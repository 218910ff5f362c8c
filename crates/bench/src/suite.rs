//! Suite results and the figure-facing suite runner: calibrate each
//! scenario's baseline, then measure every configuration on the *same*
//! trace.

use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_metrics::RunReport;
use dvs_pipeline::{run_segmented, VsyncPacer};
use dvs_workload::ScenarioSpec;
use serde::{Deserialize, Serialize};

use crate::resilient::{run_suite_resilient, ResilienceConfig};
use crate::sweep::SweepMode;

/// One scenario across all measured configurations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SuiteRow {
    /// Scenario name.
    pub name: String,
    /// Figure-axis abbreviation.
    pub abbrev: String,
    /// The baseline FDPS the paper's figure shows (calibration target).
    pub paper_fdps: f64,
    /// Measured baseline (VSync) FDPS after calibration.
    pub baseline_fdps: f64,
    /// Measured D-VSync FDPS per buffer configuration, in the order of
    /// `dvsync_buffers` passed to [`run_suite`].
    pub dvsync_fdps: Vec<f64>,
    /// Mean rendering latency (ms) under the baseline.
    pub baseline_latency_ms: f64,
    /// Mean rendering latency (ms) under the first D-VSync configuration.
    pub dvsync_latency_ms: f64,
}

/// A full suite's rows plus the configurations they were measured under.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Suite label (e.g. "Fig. 11 — 25 Android apps, Pixel 5").
    pub label: String,
    /// Baseline buffer count.
    pub baseline_buffers: usize,
    /// D-VSync buffer counts measured.
    pub dvsync_buffers: Vec<usize>,
    /// Per-scenario rows.
    pub rows: Vec<SuiteRow>,
}

impl SuiteResult {
    /// Average baseline FDPS across scenarios.
    pub fn avg_baseline(&self) -> f64 {
        self.rows.iter().map(|r| r.baseline_fdps).sum::<f64>() / self.rows.len().max(1) as f64
    }

    /// Average D-VSync FDPS for configuration index `i`.
    pub fn avg_dvsync(&self, i: usize) -> f64 {
        self.rows.iter().map(|r| r.dvsync_fdps[i]).sum::<f64>() / self.rows.len().max(1) as f64
    }

    /// FDPS reduction (%) of configuration `i` relative to the baseline.
    pub fn reduction_percent(&self, i: usize) -> f64 {
        let b = self.avg_baseline();
        if b == 0.0 {
            0.0
        } else {
            (1.0 - self.avg_dvsync(i) / b) * 100.0
        }
    }

    /// Formats the rows as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.label));
        out.push_str(&format!("{:<24} {:>9} {:>9}", "scenario", "paper", "VSync"));
        for b in &self.dvsync_buffers {
            out.push_str(&format!(" {:>9}", format!("D-V {b}buf")));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>9.2} {:>9.2}",
                truncate(&r.abbrev, 24),
                r.paper_fdps,
                r.baseline_fdps
            ));
            for v in &r.dvsync_fdps {
                out.push_str(&format!(" {:>9.2}", v));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<24} {:>9} {:>9.2}", "average", "", self.avg_baseline()));
        for i in 0..self.dvsync_buffers.len() {
            out.push_str(&format!(" {:>9.2}", self.avg_dvsync(i)));
        }
        out.push('\n');
        for i in 0..self.dvsync_buffers.len() {
            out.push_str(&format!(
                "reduction with {} buffers: {:.1}%\n",
                self.dvsync_buffers[i],
                self.reduction_percent(i)
            ));
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n - 1).chain(std::iter::once('…')).collect()
    }
}

/// Runs a VSync baseline over the scenario's animation segments.
pub fn run_vsync(spec: &ScenarioSpec, buffers: usize) -> RunReport {
    run_segmented(spec, buffers, || Box::new(VsyncPacer::new()))
}

/// Runs a D-VSync configuration over the scenario's animation segments.
pub fn run_dvsync(spec: &ScenarioSpec, buffers: usize) -> RunReport {
    run_segmented(spec, buffers, || Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(buffers))))
}

/// Calibrates every scenario's baseline to its paper FDPS, then measures the
/// baseline and each D-VSync buffer configuration on the calibrated trace.
///
/// The wrapper behind Figs. 11–13 and `repro custom`: it runs
/// [`run_suite_resilient`] with the process-default job count
/// ([`crate::sweep::default_jobs`]), a fresh grid cache and the default
/// [`ResilienceConfig`]; results are byte-identical at every job count.
///
/// # Panics
///
/// Panics with the rendered quarantine list if a cell exhausts its retries.
pub fn run_suite(
    label: &str,
    specs: &[ScenarioSpec],
    baseline_buffers: usize,
    dvsync_buffers: &[usize],
) -> SuiteResult {
    let out = run_suite_resilient(
        label,
        specs,
        baseline_buffers,
        dvsync_buffers,
        crate::sweep::default_jobs(),
        SweepMode::Aggregate,
        None,
        &ResilienceConfig::default(),
    )
    .expect("a sweep without checkpoints or injected faults cannot be interrupted");
    assert!(!out.degraded(), "suite cells failed:\n{}", out.report.quarantine.render());
    out.report.result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::CostProfile;

    #[test]
    fn suite_runner_end_to_end() {
        let specs = vec![
            ScenarioSpec::new("a", 60, 600, CostProfile::scattered(1.0)).with_paper_fdps(2.0),
            ScenarioSpec::new("b", 60, 600, CostProfile::scattered(1.0)).with_paper_fdps(1.0),
        ];
        let result = run_suite("test", &specs, 3, &[4, 5]);
        assert_eq!(result.rows.len(), 2);
        assert!(result.avg_baseline() > 0.5);
        assert!(result.avg_dvsync(1) <= result.avg_dvsync(0) + 0.3);
        assert!(result.reduction_percent(0) > 0.0);
        let text = result.render();
        assert!(text.contains("average"));
        assert!(text.contains("reduction"));
    }
}
