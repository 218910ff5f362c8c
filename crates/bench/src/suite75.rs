//! §3.2's census: how many of the 75 OS use cases exhibit frame drops.
//!
//! Paper: on Mate 40 Pro (GLES) 9 of 75 cases drop frames; on Mate 60 Pro
//! 20 of 75 (GLES) and 29 of 75 (Vulkan). The remaining cases hold full
//! frame rate — the industrial acceptance criterion.

use crate::sweep::SweepEngine;
use dvs_pipeline::calibrate_spec;
use dvs_workload::{scenarios, Backend, ScenarioSpec};
use serde::{Deserialize, Serialize};

/// The census for one platform.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Census {
    /// Platform label.
    pub platform: String,
    /// Total cases simulated (always 75).
    pub total: usize,
    /// Cases with at least one frame drop.
    pub with_drops: usize,
    /// Average FDPS over the dropping cases only.
    pub avg_fdps_dropping: f64,
    /// The paper's count.
    pub paper_with_drops: usize,
}

/// Builds the full 75-case suite for a platform: cases in the platform's
/// dropping list keep their calibration targets, the rest run smooth.
fn full_suite(dropping: &[ScenarioSpec], rate_hz: u32, backend: Backend) -> Vec<ScenarioSpec> {
    scenarios::os_use_case_catalog()
        .iter()
        .map(|case| {
            dropping.iter().find(|s| s.abbrev == case.abbrev).cloned().unwrap_or_else(|| {
                ScenarioSpec::new(
                    format!("{} ({rate_hz}Hz {backend})", case.abbrev),
                    rate_hz,
                    3 * rate_hz as usize,
                    dvs_workload::CostProfile::smooth(),
                )
                .with_abbrev(case.abbrev)
                .with_backend(backend)
            })
        })
        .collect()
}

fn census(platform: &str, dropping: &[ScenarioSpec], rate_hz: u32, backend: Backend) -> Census {
    let paper_with_drops = dropping.len();
    let suite = full_suite(dropping, rate_hz, backend);
    // One sweep cell per case: calibrate, whose best measurement is the
    // fitted spec's baseline run, folded in case order afterwards so the
    // census is independent of worker scheduling.
    let per_case: Vec<(bool, f64)> = SweepEngine::with_default_jobs().run(suite.len(), |i| {
        let baseline = calibrate_spec(&suite[i], 3).baseline;
        (baseline.janks > 0, baseline.fdps())
    });
    let mut with_drops = 0usize;
    let mut fdps_sum = 0.0;
    for (dropped, fdps) in per_case {
        if dropped {
            with_drops += 1;
            fdps_sum += fdps;
        }
    }
    Census {
        platform: platform.to_string(),
        total: suite.len(),
        with_drops,
        avg_fdps_dropping: if with_drops == 0 { 0.0 } else { fdps_sum / with_drops as f64 },
        paper_with_drops,
    }
}

/// The full 75-case OS suite in its heaviest configuration (Mate 60 Pro,
/// 120 Hz, Vulkan): the dropping cases keep their calibration targets, the
/// rest run smooth. The trace-codec and simulator-core checks in
/// `crates/bench/tests/` (exact counts, release speed floors) run on it.
pub fn bench_suite() -> Vec<ScenarioSpec> {
    full_suite(&scenarios::mate60_vulkan_suite(), 120, Backend::Vulkan)
}

/// Runs the census on all three platform configurations.
pub fn run() -> Vec<Census> {
    vec![
        census("Mate 40 Pro (90 Hz, GLES)", &scenarios::mate40_gles_suite(), 90, Backend::Gles),
        census("Mate 60 Pro (120 Hz, GLES)", &scenarios::mate60_gles_suite(), 120, Backend::Gles),
        census(
            "Mate 60 Pro (120 Hz, Vulkan)",
            &scenarios::mate60_vulkan_suite(),
            120,
            Backend::Vulkan,
        ),
    ]
}

/// Renders the census.
pub fn render(rows: &[Census]) -> String {
    let mut out = String::from("§3.2 — census of the 75 OS use cases (VSync baseline)\n");
    out.push_str(&format!(
        "{:<28} {:>12} {:>16} {:>8}\n",
        "platform", "with drops", "avg FDPS (drop)", "paper"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>6} of {:>2} {:>16.2} {:>8}\n",
            r.platform, r.with_drops, r.total, r.avg_fdps_dropping, r.paper_with_drops
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_counts_match_paper() {
        for c in run() {
            assert_eq!(c.total, 75);
            // The dropping set should be exactly the calibrated cases; allow
            // a case or two of stochastic spillover in the smooth ones.
            assert!(
                (c.with_drops as i64 - c.paper_with_drops as i64).abs() <= 2,
                "{}: {} vs paper {}",
                c.platform,
                c.with_drops,
                c.paper_with_drops
            );
        }
    }
}
