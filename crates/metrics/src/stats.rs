//! Summary statistics and CDFs used by the figure harness.

use serde::{Deserialize, Serialize};

/// Five-number-style summary of a sample set.
///
/// # Examples
///
/// ```
/// use dvs_metrics::Summary;
/// let s = Summary::from_samples((1..=100).map(f64::from));
/// assert_eq!(s.count, 100);
/// assert!((s.mean - 50.5).abs() < 1e-9);
/// assert!((s.p50 - 50.0).abs() <= 1.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty set).
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes a summary; an empty iterator yields all zeroes.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut xs: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        if xs.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        xs.sort_by(f64::total_cmp);
        let count = xs.len();
        let mean = xs.iter().sum::<f64>() / count as f64;
        let pct = |p: f64| {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            xs[idx.min(count - 1)]
        };
        Summary {
            count,
            mean,
            min: xs[0],
            max: xs[count - 1],
            p50: pct(0.50),
            p90: pct(0.90),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

/// An empirical cumulative distribution function.
///
/// # Examples
///
/// ```
/// use dvs_metrics::Cdf;
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert!((cdf.fraction_at_or_below(2.0) - 0.5).abs() < 1e-12);
/// assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
/// assert_eq!(cdf.fraction_at_or_below(9.0), 1.0);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (non-finite values are dropped).
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// Expands a fixed-bin quantile grid into an explicit CDF, placing each
    /// counted sample at its bin's upper edge — the same convention
    /// [`crate::QuantileGrid::quantile`] reports, so queries on the two
    /// agree to within one bin width.
    ///
    /// [`Cdf::from_samples`] assumes the sample set is materialized; at
    /// fleet scale only sketches survive the reduction, and this
    /// constructor is the bridge back to the `Cdf`-consuming renderers.
    /// Memory is O(total count), so it is for presentation-sized grids,
    /// not for the streaming path.
    pub fn from_sketch(grid: &crate::QuantileGrid) -> Self {
        let mut sorted = Vec::with_capacity(grid.total as usize);
        for (i, &count) in grid.counts.iter().enumerate() {
            let edge = grid.lo + (i as f64 + 1.0) * grid.bin_width();
            for _ in 0..count {
                sorted.push(edge);
            }
        }
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x): the fraction of samples at or below `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` for an empty CDF or an
    /// out-of-range `q` — degenerate runs (e.g. every frame dropped under
    /// fault injection) produce empty distributions and must not panic.
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // A single-sample distribution has exactly one value at every
        // quantile; the explicit guard keeps that invariant independent of
        // the rank arithmetic below (no interpolation against a phantom
        // zeroth sample for any q in [0, 1]).
        if self.sorted.len() == 1 {
            return Some(self.sorted[0]);
        }
        let idx = ((self.sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(self.sorted[idx.min(self.sorted.len() - 1)])
    }

    /// The `q`-quantile (`q` in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`. Use
    /// [`Cdf::try_quantile`] when either can legitimately happen.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        // dvs-lint: allow(panic, reason = "documented panicking wrapper; the asserts above make try_quantile Some")
        self.try_quantile(q).expect("checked above")
    }

    /// Evaluates the CDF at `points`, returning `(x, P(X ≤ x))` pairs — the
    /// series plotted in Figure 1.
    pub fn series(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.fraction_at_or_below(x))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_zero() {
        let s = Summary::from_samples(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples([7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn summary_drops_non_finite() {
        let s = Summary::from_samples([1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn percentiles_ordered() {
        let s = Summary::from_samples((0..1000).map(f64::from));
        assert!(s.p50 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn cdf_monotonic() {
        let cdf = Cdf::from_samples((0..100).map(f64::from));
        let mut prev = 0.0;
        for x in 0..100 {
            let f = cdf.fraction_at_or_below(x as f64);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn cdf_quantile_inverse() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from));
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert!((cdf.quantile(0.5) - 50.0).abs() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "empty CDF")]
    fn empty_cdf_quantile_panics() {
        Cdf::from_samples(std::iter::empty()).quantile(0.5);
    }

    #[test]
    fn try_quantile_handles_degenerate_inputs() {
        let empty = Cdf::from_samples(std::iter::empty());
        assert_eq!(empty.try_quantile(0.5), None);
        let cdf = Cdf::from_samples((1..=100).map(f64::from));
        assert_eq!(cdf.try_quantile(-0.1), None);
        assert_eq!(cdf.try_quantile(1.1), None);
        assert_eq!(cdf.try_quantile(1.0), Some(100.0));
        assert_eq!(cdf.try_quantile(0.0), Some(1.0));
    }

    #[test]
    fn single_sample_cdf_returns_that_sample_at_every_quantile() {
        // Regression: a one-sample CDF must answer the sample itself for all
        // q in [0, 1] — never a value interpolated against a phantom zero.
        let cdf = Cdf::from_samples([42.5]);
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(cdf.try_quantile(q), Some(42.5), "q = {q}");
            assert_eq!(cdf.quantile(q), 42.5, "q = {q}");
        }
        assert_eq!(cdf.try_quantile(1.5), None);
    }

    #[test]
    fn cdf_series_matches_pointwise() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0]);
        let series = cdf.series(&[1.5, 2.5]);
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 1.0 / 3.0).abs() < 1e-12);
    }
}
