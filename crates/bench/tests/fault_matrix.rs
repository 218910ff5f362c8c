//! Golden-baseline regression tests for the fault matrix and the degraded-
//! mode reference case, plus the parallel-determinism contract for fault
//! sweeps.
//!
//! Regenerate after an intentional behaviour change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p dvs-bench --test fault_matrix
//! ```

use dvs_bench::faultmatrix::{
    default_specs, run_degraded_case, run_fault_matrix_jobs, GoldenFaultMatrix,
};
use dvs_bench::golden::{check_against, golden_dir};

/// The matrix the goldens pin: every named profile over the default specs.
fn matrix(jobs: usize) -> dvs_bench::faultmatrix::FaultMatrixResult {
    run_fault_matrix_jobs(
        "golden fault matrix",
        &default_specs(),
        dvs_faults::profile_names(),
        3,
        5,
        jobs,
    )
}

#[test]
fn fault_matrix_matches_golden() {
    let actual = GoldenFaultMatrix::from(&matrix(1));
    check_against(&golden_dir().join("fault_matrix.json"), &actual)
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn degraded_mode_matches_golden() {
    check_against(&golden_dir().join("degraded_mode.json"), &run_degraded_case())
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn fault_sweep_is_jobs_invariant() {
    let seq = serde_json::to_string(&matrix(1)).unwrap();
    let par = serde_json::to_string(&matrix(4)).unwrap();
    assert_eq!(seq, par, "parallel fault sweep must be byte-identical to sequential");
}

#[test]
fn every_profile_runs_without_panicking() {
    // The full matrix exercises every (scenario, profile, pacer) cell; if any
    // injected fault trips an assert or wedges a run, this test fails (or
    // hangs against the tick cap, which truncates instead of looping).
    let m = matrix(2);
    assert_eq!(m.rows.len(), default_specs().len() * dvs_faults::profile_names().len() * 2);
    assert!(m.rows.iter().all(|r| r.frames > 0));
}
