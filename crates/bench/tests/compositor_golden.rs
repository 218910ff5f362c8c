//! Golden baseline for the cross-app interference matrix: the compositor
//! scenario suite (app+video, app+keyboard, mixed-policy fleets at 60 and
//! 120 Hz) run composed-vs-solo must reproduce `tests/golden/compositor.json`
//! byte for byte.
//!
//! Regenerate after an intentional behaviour change with
//! `REGEN_GOLDEN=1 cargo test -p dvs-bench --test compositor_golden`,
//! then review the JSON diff.

use dvs_bench::compose::ComposeSweep;
use dvs_bench::golden::{check_against, golden_dir, regen_requested, write_golden};
use dvs_bench::{run_compose_resilient, ResilienceConfig};

/// The interference sweep through the compose runner, with no quarantine.
fn sweep(jobs: usize) -> ComposeSweep {
    let out = run_compose_resilient(jobs, &ResilienceConfig::default())
        .expect("a compose sweep without checkpoints completes");
    assert!(!out.degraded(), "{}", out.report.quarantine.render());
    out.report.sweep
}

#[test]
fn interference_matrix_matches_golden() {
    let actual = sweep(dvs_bench::sweep::default_jobs());
    check_against(&golden_dir().join("compositor.json"), &actual).unwrap_or_else(|e| panic!("{e}"));
}

/// The regeneration escape hatch round-trips: a freshly written golden
/// checks clean against the sweep that produced it.
#[test]
fn regen_roundtrip_leaves_passing_golden() {
    let dir = std::env::temp_dir().join("dvsync_golden_regen");
    let path = dir.join("compositor_roundtrip.json");
    let actual = sweep(1);
    write_golden(&path, &actual).unwrap();
    check_against(&path, &actual).unwrap_or_else(|e| panic!("{e}"));
    let _ = std::fs::remove_file(&path);
}

/// One more solo jank on one surface fails the checked-in golden and the
/// report names the changed line.
#[test]
fn injected_perturbation_fails_golden() {
    let path = golden_dir().join("compositor.json");
    if regen_requested() || !path.exists() {
        // Nothing to perturb against while regenerating a fresh tree.
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let mut perturbed: ComposeSweep = serde_json::from_str(&text).unwrap();
    let surface = &mut perturbed.rows[0].surfaces[0];
    let golden = surface.solo_janks;
    surface.solo_janks = golden + 1;
    let err = check_against(&path, &perturbed).unwrap_err();
    assert!(matches!(err, dvs_sim::DvsError::GoldenMismatch { .. }), "{err}");
    let err = err.to_string();
    assert!(err.contains("line 19:"), "{err}");
    assert!(err.contains(&format!("golden `          \"solo_janks\": {golden},`")), "{err}");
    assert!(err.contains(&format!("actual `          \"solo_janks\": {},`", golden + 1)), "{err}");
}
