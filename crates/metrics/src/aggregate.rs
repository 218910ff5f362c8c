//! Streaming aggregate metrics for grid-scale sweeps.
//!
//! A fault-matrix cell only needs scalar aggregates (frame distribution,
//! janks, fault and watchdog tallies, latency) to fill its row, yet a full
//! [`RunReport`] carries every frame record. [`RunAggregate`] is the
//! online-statistics sink for that case: it folds a record stream into
//! fixed-size accumulators — count/mean/min/max ([`StreamingStats`]), a
//! quantile-grid CDF ([`QuantileGrid`]), per-kind frame counts, and
//! jank/stutter/FPS tallies — so per-cell memory stays bounded no matter
//! how large the grid grows. (A suite-sweep cell needs only FDPS and mean
//! latency, which it reads off its pooled report directly.)
//!
//! Every derived metric uses the *same arithmetic, in the same order*, as the
//! corresponding [`RunReport`] method (e.g. the mean accumulates latencies in
//! record order and divides once, exactly like
//! [`RunReport::mean_latency_ms`]), so aggregate rows are bit-identical to
//! full-report rows — a property the fault matrix's unit tests pin.

use serde::{Deserialize, Serialize};

use dvs_sim::{DvsError, DvsResult, SimDuration};

use crate::{FrameDistribution, FrameKind, FrameRecord, RunReport, StutterModel};

/// Online count / sum / min / max over a stream of `f64` samples.
///
/// The running sum adds samples in arrival order, which makes
/// [`StreamingStats::mean`] bit-identical to a sequential
/// `iter().sum() / len` over the same values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct StreamingStats {
    /// Number of samples observed.
    pub count: u64,
    /// Sum of all samples, accumulated in arrival order.
    pub sum: f64,
    /// Smallest sample (0 until the first observation).
    pub min: f64,
    /// Largest sample (0 until the first observation).
    pub max: f64,
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sample into the accumulator.
    pub fn observe(&mut self, sample: f64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        // dvs-lint: allow(float-accum, reason = "StreamingStats observes records in committed report order on one thread and is never shard-merged, so the addition order is fixed")
        self.sum += sample;
        self.count += 1;
    }

    /// The arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A fixed-bin cumulative distribution over a bounded value range.
///
/// Quantile queries on a true sample set need every sample retained; a grid
/// of `bins` equal-width counters over `[lo, hi]` answers the same queries
/// with bounded error (one bin width) and O(bins) memory, independent of how
/// many samples stream through. Samples outside the range clamp to the edge
/// bins, so the total count stays exact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantileGrid {
    /// Lower edge of the gridded range.
    pub lo: f64,
    /// Upper edge of the gridded range.
    pub hi: f64,
    /// Per-bin sample counts.
    pub counts: Vec<u64>,
    /// Total samples observed.
    pub total: u64,
}

impl QuantileGrid {
    /// A grid of `bins` equal-width counters spanning `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or the range is empty/reversed.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "a quantile grid needs at least one bin");
        assert!(hi > lo, "quantile grid range must be non-empty");
        QuantileGrid { lo, hi, counts: vec![0; bins], total: 0 }
    }

    /// Folds one sample into the grid (out-of-range samples clamp).
    pub fn observe(&mut self, sample: f64) {
        let bins = self.counts.len();
        let span = self.hi - self.lo;
        let idx = (((sample - self.lo) / span) * bins as f64).floor();
        let idx = (idx.max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// The width of one bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Fraction of samples at or below `value` (grid resolution).
    pub fn fraction_at_or_below(&self, value: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self
            .counts
            .iter()
            .enumerate()
            .take_while(|(i, _)| self.lo + (*i as f64 + 1.0) * self.bin_width() <= value + 1e-12)
            .map(|(_, c)| *c)
            .sum();
        below as f64 / self.total as f64
    }

    /// Folds another grid's counts into this one.
    ///
    /// Merging is exact integer addition, so it is associative and
    /// commutative *byte-for-byte* — fleet shards can reduce in any order
    /// (or any tree shape) and produce identical results, a property the
    /// fleet property wall pins. Fails if the grids disagree on shape
    /// (`lo`, `hi`, or bin count), since their bins would not line up.
    pub fn try_merge(&mut self, other: &QuantileGrid) -> DvsResult<()> {
        if self.lo.to_bits() != other.lo.to_bits()
            || self.hi.to_bits() != other.hi.to_bits()
            || self.counts.len() != other.counts.len()
        {
            // dvs-lint: allow(hot-alloc-transitive, reason = "error construction on the cold shape-mismatch path only")
            return Err(DvsError::InvalidConfig(format!(
                "cannot merge quantile grids with different shapes: \
                 [{}, {}]x{} vs [{}, {}]x{}",
                self.lo,
                self.hi,
                self.counts.len(),
                other.lo,
                other.hi,
                other.counts.len()
            )));
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += *theirs;
        }
        self.total += other.total;
        Ok(())
    }

    /// The smallest bin upper edge whose cumulative fraction reaches `q`
    /// (`0.0 ..= 1.0`); returns `lo` for an empty grid.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return self.lo;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return self.lo + (i as f64 + 1.0) * self.bin_width();
            }
        }
        self.hi
    }
}

/// The streaming counterpart of a [`RunReport`]: everything a suite or
/// fault-matrix row needs, in O(1) memory per cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunAggregate {
    /// Scenario name.
    pub name: String,
    /// Panel refresh rate in Hz.
    pub rate_hz: u32,
    /// Produced frames observed.
    pub frames: usize,
    /// Missed refreshes while content was expected.
    pub janks: usize,
    /// Injected faults that actually fired.
    pub faults: usize,
    /// Watchdog transitions into classic VSync pacing.
    pub degradations: usize,
    /// Watchdog transitions back into decoupled pacing.
    pub recoveries: usize,
    /// Wall-clock display span.
    pub display_time: SimDuration,
    /// Refreshes that occurred during the display span.
    pub ticks_active: u64,
    /// Queue-depth high-water mark.
    pub max_queued: usize,
    /// Whether the run hit its safety time limit.
    pub truncated: bool,
    /// Frames presented at their first eligible refresh.
    pub direct: usize,
    /// Frames delayed by buffer stuffing.
    pub stuffed: usize,
    /// Frames that missed their slot.
    pub dropped: usize,
    /// Rendering latency in milliseconds (count/mean/min/max).
    pub latency_ms: StreamingStats,
    /// Rendering-latency CDF on a fixed millisecond grid.
    pub latency_cdf: QuantileGrid,
    /// Maximal runs of consecutive janks.
    pub stutter_runs: usize,
    /// Jank runs long enough to cross the perceptual JND threshold.
    pub stutters_perceived: usize,
}

/// Latency CDF grid upper edge: 0–200 ms in 0.5 ms bins covers every
/// scenario in the suite (latencies beyond 200 ms clamp into the top bin).
/// Public so fleet sketches can build shape-compatible grids.
pub const LATENCY_GRID_HI_MS: f64 = 200.0;
/// Bin count of the latency CDF grid.
pub const LATENCY_GRID_BINS: usize = 400;

impl RunAggregate {
    /// An empty aggregate for the given scenario.
    pub fn new(name: impl Into<String>, rate_hz: u32) -> Self {
        RunAggregate {
            name: name.into(),
            rate_hz,
            frames: 0,
            janks: 0,
            faults: 0,
            degradations: 0,
            recoveries: 0,
            display_time: SimDuration::ZERO,
            ticks_active: 0,
            max_queued: 0,
            truncated: false,
            direct: 0,
            stuffed: 0,
            dropped: 0,
            latency_ms: StreamingStats::new(),
            latency_cdf: QuantileGrid::new(0.0, LATENCY_GRID_HI_MS, LATENCY_GRID_BINS),
            stutter_runs: 0,
            stutters_perceived: 0,
        }
    }

    /// Folds one frame record into the aggregate.
    pub fn observe(&mut self, record: &FrameRecord) {
        self.frames += 1;
        match record.kind {
            FrameKind::Direct => self.direct += 1,
            FrameKind::Stuffed => self.stuffed += 1,
            FrameKind::Dropped => self.dropped += 1,
        }
        let latency = record.latency().as_millis_f64();
        self.latency_ms.observe(latency);
        self.latency_cdf.observe(latency);
    }

    /// Summarizes a finished report.
    ///
    /// The records stream through [`RunAggregate::observe`] in report order,
    /// so derived metrics are bit-identical to the `RunReport` equivalents.
    pub fn from_report(report: &RunReport) -> Self {
        let mut agg = RunAggregate::new(report.name.clone(), report.rate_hz);
        for record in &report.records {
            agg.observe(record);
        }
        agg.janks = report.janks.len();
        agg.faults = report.fault_events.len();
        agg.degradations = report.degradations();
        agg.recoveries = report.recoveries();
        agg.display_time = report.display_time;
        agg.ticks_active = report.ticks_active;
        agg.max_queued = report.max_queued;
        agg.truncated = report.truncated;
        let stutters = StutterModel::default().evaluate(report);
        agg.stutter_runs = stutters.runs;
        agg.stutters_perceived = stutters.perceived;
        agg
    }

    /// Rebuilds a distribution-only aggregate from a latency quantile grid,
    /// without per-run frame records.
    ///
    /// [`RunAggregate::from_report`] assumes the full record stream is
    /// materialized; at fleet scale only sketches survive the reduction.
    /// This constructor recovers the fields a sketch can answer — the
    /// latency CDF, and count/min/max/sum at grid resolution (each sample
    /// stands at its bin's upper edge, so every derived value is within one
    /// bin width of the exact one) — and leaves the record-derived tallies
    /// (janks, faults, frame kinds, display span) at zero.
    pub fn from_sketch(name: impl Into<String>, rate_hz: u32, latency: &QuantileGrid) -> Self {
        let mut agg = RunAggregate::new(name, rate_hz);
        let mut sum = 0.0;
        let mut min = 0.0;
        let mut max = 0.0;
        let mut seen = 0u64;
        for (i, &c) in latency.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let edge = latency.lo + (i as f64 + 1.0) * latency.bin_width();
            if seen == 0 {
                min = edge;
            }
            max = edge;
            sum += c as f64 * edge;
            seen += c;
        }
        agg.frames = latency.total as usize;
        agg.latency_ms = StreamingStats { count: latency.total, sum, min, max };
        agg.latency_cdf = latency.clone();
        agg
    }

    /// Frame drops per second of display time — the formula of
    /// [`RunReport::fdps`], see [`fdps`](crate::fdps).
    pub fn fdps(&self) -> f64 {
        crate::fdps(self.janks, self.display_time)
    }

    /// Janks as a fraction of active refreshes — same formula as
    /// [`RunReport::fd_fraction`].
    pub fn fd_fraction(&self) -> f64 {
        if self.ticks_active == 0 {
            0.0
        } else {
            self.janks as f64 / self.ticks_active as f64
        }
    }

    /// Mean rendering latency in milliseconds — bit-identical to
    /// [`RunReport::mean_latency_ms`].
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency_ms.mean()
    }

    /// Average frames per second over the display span — same formula as
    /// [`crate::average_fps`].
    pub fn average_fps(&self) -> f64 {
        let secs = self.display_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.frames as f64 / secs
        }
    }

    /// The direct / stuffed / dropped frame distribution — same formula as
    /// [`RunReport::distribution`].
    pub fn distribution(&self) -> FrameDistribution {
        let n = self.frames.max(1) as f64;
        FrameDistribution {
            direct: self.direct as f64 / n,
            stuffed: self.stuffed as f64 / n,
            dropped: self.dropped as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JankEvent;
    use dvs_sim::SimTime;

    fn record(kind: FrameKind, basis_ms: u64, present_ms: u64) -> FrameRecord {
        FrameRecord {
            seq: 0,
            trigger: SimTime::from_millis(basis_ms),
            basis: SimTime::from_millis(basis_ms),
            content_timestamp: SimTime::from_millis(present_ms),
            queued_at: SimTime::from_millis(basis_ms + 5),
            present: SimTime::from_millis(present_ms),
            present_tick: 2,
            eligible_tick: 2,
            kind,
            ui_cost: SimDuration::from_millis(4),
            rs_cost: SimDuration::from_millis(4),
        }
    }

    fn busy_report() -> RunReport {
        let mut r = RunReport::new("busy", 60);
        r.display_time = SimDuration::from_secs(4);
        r.ticks_active = 240;
        r.max_queued = 3;
        r.records.push(record(FrameKind::Direct, 0, 33));
        r.records.push(record(FrameKind::Direct, 16, 50));
        r.records.push(record(FrameKind::Stuffed, 33, 90));
        r.records.push(record(FrameKind::Dropped, 50, 140));
        for tick in [10u64, 11, 12, 40] {
            r.janks.push(JankEvent { tick, time: SimTime::from_millis(tick * 16) });
        }
        r
    }

    #[test]
    fn aggregate_metrics_are_bit_identical_to_report_metrics() {
        let report = busy_report();
        let agg = RunAggregate::from_report(&report);
        // Exact equality on purpose: the aggregate must reproduce the same
        // floating-point bits, not merely a close value.
        assert_eq!(agg.fdps(), report.fdps());
        assert_eq!(agg.fd_fraction(), report.fd_fraction());
        assert_eq!(agg.mean_latency_ms(), report.mean_latency_ms());
        assert_eq!(agg.average_fps(), crate::average_fps(&report));
        let (da, dr) = (agg.distribution(), report.distribution());
        assert_eq!((da.direct, da.stuffed, da.dropped), (dr.direct, dr.stuffed, dr.dropped));
        let stutters = StutterModel::default().evaluate(&report);
        assert_eq!(agg.stutter_runs, stutters.runs);
        assert_eq!(agg.stutters_perceived, stutters.perceived);
    }

    #[test]
    fn empty_aggregate_is_all_zeroes() {
        let agg = RunAggregate::new("idle", 120);
        assert_eq!(agg.fdps(), 0.0);
        assert_eq!(agg.fd_fraction(), 0.0);
        assert_eq!(agg.mean_latency_ms(), 0.0);
        assert_eq!(agg.average_fps(), 0.0);
        let d = agg.distribution();
        assert_eq!((d.direct, d.stuffed, d.dropped), (0.0, 0.0, 0.0));
    }

    #[test]
    fn streaming_stats_track_min_max_mean() {
        let mut s = StreamingStats::new();
        for x in [4.0, -2.0, 10.0, 0.0] {
            s.observe(x);
        }
        assert_eq!(s.count, 4);
        assert_eq!(s.min, -2.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn quantile_grid_answers_cdf_queries() {
        let mut g = QuantileGrid::new(0.0, 100.0, 100);
        for v in 0..100 {
            g.observe(v as f64 + 0.5);
        }
        assert_eq!(g.total, 100);
        assert!((g.fraction_at_or_below(50.0) - 0.5).abs() < 1e-9);
        assert!((g.quantile(0.5) - 50.0).abs() <= g.bin_width());
        assert!((g.quantile(0.99) - 99.0).abs() <= g.bin_width() + 1e-9);
        // Out-of-range samples clamp rather than vanish.
        g.observe(1e9);
        g.observe(-5.0);
        assert_eq!(g.total, 102);
        assert_eq!(g.counts[99], 2);
        assert_eq!(g.counts[0], 2);
    }

    #[test]
    fn aggregate_round_trips_through_serde() {
        let agg = RunAggregate::from_report(&busy_report());
        let json = serde_json::to_string(&agg).unwrap();
        let back: RunAggregate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, agg);
    }
}
