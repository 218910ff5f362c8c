//! Figure 15: rendering-latency reduction on the three devices.
//!
//! Paper: Pixel 5 45.8 → 31.2 ms (−31.9 %), Mate 40 Pro 32.2 → 22.3 ms
//! (−30.7 %), Mate 60 Pro 24.2 → 16.8 ms (−30.6 %). The D-VSync numbers sit
//! at the two-period pipeline floor for each refresh rate; the VSync numbers
//! carry the extra periods of buffer stuffing after drops.

use crate::suite::run_dvsync;
use dvs_pipeline::calibrate_spec;
use dvs_workload::{scenarios, ScenarioSpec};
use serde::{Deserialize, Serialize};

/// One device's latency bar pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceLatency {
    /// Device label with its rate.
    pub device: String,
    /// Refresh rate in Hz.
    pub rate_hz: u32,
    /// Mean rendering latency under VSync, in ms.
    pub vsync_ms: f64,
    /// Mean rendering latency under D-VSync, in ms.
    pub dvsync_ms: f64,
    /// The paper's pair for reference.
    pub paper: (f64, f64),
}

impl DeviceLatency {
    /// Reduction in percent.
    pub fn reduction_percent(&self) -> f64 {
        (1.0 - self.dvsync_ms / self.vsync_ms) * 100.0
    }
}

fn measure(
    device: &str,
    rate_hz: u32,
    specs: &[ScenarioSpec],
    baseline_buffers: usize,
    dvsync_buffers: usize,
    paper: (f64, f64),
) -> DeviceLatency {
    let mut v_total = 0.0;
    let mut d_total = 0.0;
    let mut v_frames = 0usize;
    let mut d_frames = 0usize;
    for raw in specs {
        // Calibration's best measurement is the fitted spec's VSync baseline.
        let fitted = calibrate_spec(raw, baseline_buffers);
        let v = fitted.baseline;
        let d = run_dvsync(&fitted.spec, dvsync_buffers);
        v_total += v.mean_latency_ms() * v.records as f64;
        d_total += d.mean_latency_ms() * d.records.len() as f64;
        v_frames += v.records;
        d_frames += d.records.len();
    }
    DeviceLatency {
        device: device.to_string(),
        rate_hz,
        vsync_ms: v_total / v_frames.max(1) as f64,
        dvsync_ms: d_total / d_frames.max(1) as f64,
        paper,
    }
}

/// Measures mean rendering latency over each device's workload suite.
pub fn run() -> Vec<DeviceLatency> {
    vec![
        measure("Google Pixel 5 (60 Hz)", 60, &scenarios::android_app_suite(), 3, 4, (45.8, 31.2)),
        measure("Mate 40 Pro (90 Hz)", 90, &scenarios::mate40_gles_suite(), 3, 4, (32.2, 22.3)),
        measure("Mate 60 Pro (120 Hz)", 120, &scenarios::mate60_gles_suite(), 3, 4, (24.2, 16.8)),
    ]
}

/// Renders the latency bars.
pub fn render(rows: &[DeviceLatency]) -> String {
    let mut out = String::from("Fig. 15 — rendering latency (mean over all frames)\n");
    out.push_str(&format!(
        "{:<24} {:>9} {:>9} {:>7}   paper\n",
        "device", "VSync", "D-VSync", "red."
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>7.1}ms {:>7.1}ms {:>6.1}%   {:.1} -> {:.1} ms\n",
            r.device,
            r.vsync_ms,
            r.dvsync_ms,
            r.reduction_percent(),
            r.paper.0,
            r.paper.1
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_floors_scale_with_refresh_rate() {
        let rows = run();
        for r in &rows {
            let period = 1000.0 / r.rate_hz as f64;
            // D-VSync sits at the two-period pipeline floor.
            assert!(
                (r.dvsync_ms - 2.0 * period).abs() < 0.2 * period,
                "{}: dvsync {} vs floor {}",
                r.device,
                r.dvsync_ms,
                2.0 * period
            );
            // VSync carries stuffing above the floor.
            assert!(
                r.vsync_ms > r.dvsync_ms + 0.2 * period,
                "{}: vsync {} dvsync {}",
                r.device,
                r.vsync_ms,
                r.dvsync_ms
            );
        }
        // Higher refresh rates have proportionally lower latency.
        assert!(rows[0].dvsync_ms > rows[1].dvsync_ms);
        assert!(rows[1].dvsync_ms > rows[2].dvsync_ms);
    }

    #[test]
    fn reduction_is_material() {
        for r in run() {
            let red = r.reduction_percent();
            assert!((10.0..45.0).contains(&red), "{}: paper ~31%, got {red:.1}%", r.device);
        }
    }
}
