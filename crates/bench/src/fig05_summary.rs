//! Figure 5: average and maximum frame-drop percentage of total display time
//! across the four platform configurations.
//!
//! Paper: Pixel 5 (60 Hz, GLES) 3.4 % avg / 7.4 % max; Mate 40 Pro (90 Hz,
//! GLES) 3.5 % / 7.8 %; Mate 60 Pro (120 Hz, GLES) 6.3 % / 20.8 %; Mate 60
//! Pro (120 Hz, Vulkan) 7.0 % / 27.5 %.

use crate::sweep::SweepEngine;
use dvs_pipeline::calibrate_spec;
use dvs_workload::{scenarios, ScenarioSpec};
use serde::{Deserialize, Serialize};

/// One platform bar of Figure 5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlatformFd {
    /// Platform label.
    pub platform: String,
    /// Scenarios with frame drops.
    pub cases: usize,
    /// Average FD% of display refreshes across the suite.
    pub avg_fd_percent: f64,
    /// Worst-case FD%.
    pub max_fd_percent: f64,
}

fn measure(platform: &str, specs: &[ScenarioSpec], baseline_buffers: usize) -> PlatformFd {
    // Calibration's best measurement is the fitted spec's VSync baseline.
    let fds: Vec<f64> = SweepEngine::with_default_jobs().run(specs.len(), |i| {
        calibrate_spec(&specs[i], baseline_buffers).baseline.fd_fraction() * 100.0
    });
    PlatformFd {
        platform: platform.to_string(),
        cases: specs.len(),
        avg_fd_percent: fds.iter().sum::<f64>() / fds.len().max(1) as f64,
        max_fd_percent: fds.iter().cloned().fold(0.0, f64::max),
    }
}

/// Measures FD% over all four platform suites (VSync baselines).
pub fn run() -> Vec<PlatformFd> {
    vec![
        measure("Google Pixel 5 (AOSP 60Hz, GLES)", &scenarios::android_app_suite(), 3),
        measure("Mate 40 Pro (OH 90Hz, GLES)", &scenarios::mate40_gles_suite(), 3),
        measure("Mate 60 Pro (OH 120Hz, GLES)", &scenarios::mate60_gles_suite(), 3),
        measure("Mate 60 Pro (OH 120Hz, Vulkan)", &scenarios::mate60_vulkan_suite(), 3),
    ]
}

/// Renders the Figure 5 bars.
pub fn render(rows: &[PlatformFd]) -> String {
    let mut out = String::from("Fig. 5 — frame drops as % of total display time (VSync)\n");
    out.push_str(&format!("{:<36} {:>6} {:>8} {:>8}\n", "platform", "cases", "avg FD%", "max FD%"));
    for r in rows {
        out.push_str(&format!(
            "{:<36} {:>6} {:>8.1} {:>8.1}\n",
            r.platform, r.cases, r.avg_fd_percent, r.max_fd_percent
        ));
    }
    out.push_str("paper: 3.4/7.4, 3.5/7.8, 6.3/20.8, 7.0/27.5\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let rows = run();
        assert_eq!(rows.len(), 4);
        // Max exceeds the average everywhere.
        for r in &rows {
            assert!(r.max_fd_percent >= r.avg_fd_percent, "{}", r.platform);
        }
        // The Vulkan backend is the worst of the Mate 60 configurations and
        // the Mate 60 suites dominate the older devices — the paper's
        // ordering.
        assert!(rows[3].avg_fd_percent > rows[1].avg_fd_percent);
        assert!(rows[2].avg_fd_percent > rows[0].avg_fd_percent);
        // Magnitudes in the paper's ballpark (single-digit percent averages).
        for r in &rows {
            assert!(
                (0.5..15.0).contains(&r.avg_fd_percent),
                "{}: {}",
                r.platform,
                r.avg_fd_percent
            );
        }
    }
}
