//! The sweep runner's determinism contract: a suite executed by N workers is
//! **byte-identical** (serialized JSON) to the sequential path, parallel
//! runs agree with each other, a shared grid cache changes no output byte,
//! and every row equals fresh-state reference runs bit for bit. See
//! `docs/sweep.md`.

use dvs_bench::suite::{run_dvsync, run_vsync};
use dvs_bench::{run_suite_resilient, GridCache, ResilienceConfig, ResilientSweep, SweepMode};
use dvs_workload::{scenarios, ScenarioSpec};

fn sweep(
    label: &str,
    specs: &[ScenarioSpec],
    jobs: usize,
    cache: Option<&GridCache>,
) -> ResilientSweep {
    let cfg = ResilienceConfig::default();
    run_suite_resilient(label, specs, 3, &[4], jobs, SweepMode::Aggregate, cache, &cfg)
        .expect("a sweep without checkpoints or injected faults completes")
}

fn suite_json(jobs: usize) -> String {
    let specs = scenarios::mate40_gles_suite();
    let out = sweep("determinism — Mate 40 Pro OS cases", &specs, jobs, None);
    serde_json::to_string(&out.report.result).expect("SuiteResult serializes")
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let sequential = suite_json(1);
    let parallel = suite_json(4);
    assert_eq!(sequential, parallel, "jobs=4 must reproduce the jobs=1 SuiteResult byte-for-byte");
}

#[test]
fn repeated_parallel_sweeps_agree() {
    assert_eq!(suite_json(4), suite_json(4), "two jobs=4 runs must agree");
}

#[test]
fn oversubscribed_sweep_is_still_identical() {
    // More workers than cells: the index queue just drains faster per worker.
    assert_eq!(suite_json(1), suite_json(32));
}

#[test]
fn rows_match_fresh_reference_runs_at_any_jobs() {
    // The reference shares nothing with the sweep path: an independent
    // calibration, then each configuration through a fresh arena into a
    // full per-frame report. The sweep's cache, pooled arenas and streaming
    // aggregates must reproduce it bit for bit at every worker count.
    let specs = scenarios::mate40_gles_suite();
    let reference: Vec<[f64; 4]> = specs
        .iter()
        .map(|spec| {
            let fitted = dvs_pipeline::calibrate_spec(spec, 3).spec;
            let vsync = run_vsync(&fitted, 3);
            let dvsync = run_dvsync(&fitted, 4);
            [vsync.fdps(), dvsync.fdps(), vsync.mean_latency_ms(), dvsync.mean_latency_ms()]
        })
        .collect();
    for jobs in [1usize, 8] {
        let cache = GridCache::for_suite(&specs, 3);
        let out = sweep("reference", &specs, jobs, Some(&cache));
        assert_eq!(out.report.result.rows.len(), specs.len());
        for (row, want) in out.report.result.rows.iter().zip(&reference) {
            let got = [
                row.baseline_fdps,
                row.dvsync_fdps[0],
                row.baseline_latency_ms,
                row.dvsync_latency_ms,
            ];
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "jobs {jobs}, {}: sweep row {got:?} diverged from the reference {want:?}",
                row.name
            );
        }
        assert_eq!(
            cache.stats().cache_misses,
            specs.len() as u64,
            "each scenario calibrates exactly once per cache"
        );
    }
}

#[test]
fn warm_cache_reuse_across_suite_calls_is_byte_identical() {
    // A ladder flow: repeated suite calls over one shared cache. The warm
    // calls must reproduce the cold call's rows exactly, while the cache
    // absorbs all recalibration.
    let specs = scenarios::mate40_gles_suite();
    let cache = GridCache::for_suite(&specs, 3);
    let cold = sweep("ladder", &specs, 4, Some(&cache));
    let warm = sweep("ladder", &specs, 4, Some(&cache));
    assert_eq!(
        serde_json::to_string(&cold.report.result).unwrap(),
        serde_json::to_string(&warm.report.result).unwrap(),
        "a warm grid cache must not change any output byte"
    );
    assert_eq!(warm.stats.cache_misses, specs.len() as u64);
    assert_eq!(warm.stats.cache_hits, specs.len() as u64, "the warm call hit every slot");
}
