//! The cross-app interference experiment: compositor scenario families run
//! composed and solo, yielding each surface's FDPS / latency cost of sharing
//! the panel.
//!
//! Every scenario in [`dvs_workload::compositor_scenario_suite`] — app +
//! video, app + keyboard, and the mixed Classic/D-VSync/low-latency fleet —
//! runs twice per surface: once composed under a compose budget of 1 (the
//! worst-case contention a real compositor's per-refresh time budget can
//! impose) and once solo on the same panel. The deltas form the
//! interference matrix of `docs/compositor.md`.
//!
//! The sweep is **jobs-invariant**: scenarios are independent cells keyed
//! only by their specs, executed through the resilient executor
//! ([`run_compose_resilient`](crate::run_compose_resilient)) and
//! reassembled by index, so `--jobs N` never changes a byte of output
//! (pinned by `tests/proptest_compositor.rs`).

use dvs_compositor::Compositor;
use dvs_metrics::InterferenceRow;
use dvs_workload::CompositeScenario;
use serde::{Deserialize, Serialize};

/// The compose budget the interference experiment runs under: one latch per
/// panel VSync, so any two eligible surfaces contend.
pub const INTERFERENCE_BUDGET: usize = 1;

/// One scenario's interference results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ComposeRow {
    /// The scenario's name (e.g. `"app+video (60Hz)"`).
    pub scenario: String,
    /// The shared panel's refresh rate in Hz.
    pub panel_hz: u32,
    /// The compose budget the composition ran under.
    pub compose_budget: usize,
    /// Per-surface composed-vs-solo deltas, in canonical (name) order.
    pub surfaces: Vec<InterferenceRow>,
}

/// The full interference sweep: one [`ComposeRow`] per scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ComposeSweep {
    /// Rows in suite order.
    pub rows: Vec<ComposeRow>,
}

/// Runs one scenario composed (budget-capped) and solo, returning its row.
pub fn run_scenario(scenario: &CompositeScenario, budget: usize) -> ComposeRow {
    let (report, surfaces) = Compositor::from_scenario(scenario)
        .with_budget(budget)
        .run_with_interference()
        .expect("suite scenarios are valid by construction");
    ComposeRow {
        scenario: scenario.name.clone(),
        panel_hz: report.panel_rate_hz,
        compose_budget: budget,
        surfaces,
    }
}

/// Renders the sweep as the `repro compose` table.
pub fn render(sweep: &ComposeSweep) -> String {
    let mut out = String::from(
        "Cross-app interference: composed (budget 1) vs solo, per surface\n\
         (deltas are composed − solo; positive = composition hurt the surface)\n\n",
    );
    for row in &sweep.rows {
        out.push_str(&format!("{} — panel {} Hz\n", row.scenario, row.panel_hz));
        out.push_str(&format!(
            "  {:<10} {:<12} {:>4} {:>11} {:>11} {:>12} {:>9}\n",
            "surface", "path", "prio", "ΔFDPS", "Δlat (ms)", "deferred", "janks"
        ));
        for s in &row.surfaces {
            out.push_str(&format!(
                "  {:<10} {:<12} {:>4} {:>11.3} {:>11.3} {:>12} {:>4}→{}\n",
                s.name,
                s.path,
                s.priority,
                s.fdps_delta,
                s.latency_delta_ms,
                s.deferred_latches,
                s.solo_janks,
                s.composed_janks,
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::app_plus_video;

    #[test]
    fn render_names_every_surface() {
        let row = run_scenario(&app_plus_video(60, 60), 1);
        let text = render(&ComposeSweep { rows: vec![row] });
        assert!(text.contains("app") && text.contains("video"));
    }
}
