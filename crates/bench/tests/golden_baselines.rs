//! Golden-baseline regression tests: canonical result summaries are checked
//! in under the repo-root `tests/golden/` and fresh runs must reproduce them
//! byte for byte ([`dvs_bench::golden::check_against`]).
//!
//! Regenerate after an intentional behaviour change with
//! `REGEN_GOLDEN=1 cargo test -p dvs-bench --test golden_baselines`,
//! then review the JSON diff.

use dvs_bench::golden::{
    check_against, golden_dir, regen_requested, write_golden, GoldenCensus, GoldenSuite,
};
use dvs_bench::{fig11_apps, suite75};

/// §3.2 census: Mate 40 Pro 9/75 dropping, Mate 60 Pro 20/75 (GLES) and
/// 29/75 (Vulkan), plus each platform's dropping-case FDPS average.
#[test]
fn census_matches_golden() {
    let actual = GoldenCensus::from_rows(&suite75::run());
    check_against(&golden_dir().join("suite75_census.json"), &actual)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Figure 11's 25-app Pixel 5 suite: per-app FDPS under VSync 3 buf and
/// D-VSync 4/5/7 buf, latency means, and the headline reduction percentages.
#[test]
fn apps_suite_matches_golden() {
    let actual = GoldenSuite::from(&fig11_apps::run());
    check_against(&golden_dir().join("apps_pixel5.json"), &actual)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// The regeneration escape hatch round-trips: writing a summary and checking
/// it back passes, so `REGEN_GOLDEN=1` always leaves a passing tree.
#[test]
fn regen_roundtrip_leaves_passing_golden() {
    let dir = std::env::temp_dir().join("dvsync_golden_regen");
    let path = dir.join("mate40_roundtrip.json");
    let actual = GoldenSuite::from(&dvs_bench::fig12_13_oscases::run_fig13_mate40());
    write_golden(&path, &actual).unwrap();
    check_against(&path, &actual).unwrap_or_else(|e| panic!("{e}"));
    let _ = std::fs::remove_file(&path);
}

/// One ulp on Walmart's baseline FDPS fails the checked-in golden and the
/// report names the changed line.
#[test]
fn injected_perturbation_fails_golden() {
    let path = golden_dir().join("apps_pixel5.json");
    if regen_requested() || !path.exists() {
        // Nothing to perturb against while regenerating a fresh tree.
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let mut perturbed: GoldenSuite = serde_json::from_str(&text).unwrap();
    let walmart = perturbed.rows.iter_mut().find(|r| r.abbrev == "Walmart").unwrap();
    let golden = walmart.baseline_fdps;
    walmart.baseline_fdps = f64::from_bits(golden.to_bits() + 1);
    let moved = walmart.baseline_fdps;
    let err = check_against(&path, &perturbed).unwrap_err();
    assert!(matches!(err, dvs_sim::DvsError::GoldenMismatch { .. }), "{err}");
    let err = err.to_string();
    assert!(err.contains("line 18:"), "{err}");
    assert!(err.contains(&format!("golden `      \"baseline_fdps\": {golden},`")), "{err}");
    assert!(err.contains(&format!("actual `      \"baseline_fdps\": {moved},`")), "{err}");
}
