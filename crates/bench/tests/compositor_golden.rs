//! Golden baseline for the cross-app interference matrix: the compositor
//! scenario suite (app+video, app+keyboard, mixed-policy fleets at 60 and
//! 120 Hz) run composed-vs-solo must match `tests/golden/compositor.json`
//! within the documented tolerances.
//!
//! Regenerate after an intentional behaviour change with
//! `REGEN_GOLDEN=1 cargo test -p dvs-bench --test compositor_golden`,
//! then review the JSON diff.

use dvs_bench::compose::{self, ComposeSweep};
use dvs_bench::golden::{check_against, golden_dir, regen_requested, write_golden, Tolerance};
use dvs_bench::{run_compose_resilient, ResilienceConfig};

/// The interference sweep through the compose runner, with no quarantine.
fn sweep(jobs: usize) -> ComposeSweep {
    let out = run_compose_resilient(jobs, &ResilienceConfig::default())
        .expect("a compose sweep without checkpoints completes");
    assert!(!out.degraded(), "{}", out.quarantine.render());
    out.sweep
}

#[test]
fn interference_matrix_matches_golden() {
    let actual = sweep(dvs_bench::sweep::default_jobs());
    check_against(&golden_dir().join("compositor.json"), &actual, |a, g| {
        compose::compare(a, g, Tolerance::default())
    })
    .unwrap();
}

/// The regeneration escape hatch round-trips: a freshly written golden
/// compares clean against the sweep that produced it.
#[test]
fn regen_roundtrip_leaves_passing_golden() {
    let dir = std::env::temp_dir().join("dvsync_golden_regen");
    let path = dir.join("compositor_roundtrip.json");
    let actual = sweep(1);
    write_golden(&path, &actual).unwrap();
    check_against(&path, &actual, |a, g| compose::compare(a, g, Tolerance::default())).unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A deferred-latch perturbation must fail the comparator against the
/// checked-in golden — deferral counts are exact, not tolerance-banded.
#[test]
fn injected_perturbation_fails_golden() {
    let path = golden_dir().join("compositor.json");
    if regen_requested() || !path.exists() {
        // Nothing to perturb against while regenerating a fresh tree.
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let mut perturbed: ComposeSweep = serde_json::from_str(&text).unwrap();
    perturbed.rows[0].surfaces[0].deferred_latches += 1;
    let golden: ComposeSweep = serde_json::from_str(&text).unwrap();
    let diffs = compose::compare(&perturbed, &golden, Tolerance::default());
    assert!(!diffs.is_empty(), "a deferral perturbation must be caught");
}
