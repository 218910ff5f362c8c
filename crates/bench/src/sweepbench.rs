//! The suite75 sweep workload: the scenario set and the buffer ladder that
//! `repro sweep` and the `perfbench` sweep workloads measure.

use dvs_workload::ScenarioSpec;

/// The benchmark scenario set. Quick mode keeps every fifth scenario — the
/// same 15-case slice of suite75 that `cargo bench --bench simcore` times.
pub fn bench_specs(quick: bool) -> Vec<ScenarioSpec> {
    crate::suite75::bench_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !quick || i % 5 == 0)
        .map(|(_, spec)| spec)
        .collect()
}

/// The D-VSync buffer counts measured against the 3-buffer VSync baseline.
pub const DEFAULT_LADDER: [usize; 4] = [4, 5, 6, 7];
