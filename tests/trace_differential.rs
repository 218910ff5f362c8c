//! Differential equivalence for the binary trace codec: a trace that takes
//! the binary round-trip (encode to `.dvst` bytes, decode back) must drive
//! the pipeline to **byte-identical** reports as the same trace round-tripped
//! through JSON — and as the in-memory original. The recorded-trace
//! directories feeding the sweep and cache paths must likewise change
//! nothing but the cache counters.

use dvs_bench::tracetool::{ingest, record_suite, IngestOptions};
use dvs_bench::{
    resilient, run_suite_resilient, suite75, GridCache, ResilienceConfig, ResilientSweep, SweepMode,
};
use dvs_core::{DvsyncConfig, DvsyncPacer, WatchdogConfig};
use dvs_pipeline::{FramePacer, PipelineConfig, Simulator, VsyncPacer};
use dvs_workload::{FrameTrace, TraceCache};

/// Runs one trace and serializes the full report.
fn report_json(trace: &FrameTrace, buffers: usize, pacer: &mut dyn FramePacer) -> String {
    let cfg = PipelineConfig::new(trace.rate_hz, buffers);
    let report = Simulator::new(&cfg).run(trace, pacer);
    serde_json::to_string(&report).expect("reports serialize")
}

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs_trace_diff_{}_{}", tag, std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir removable");
    }
    std::fs::create_dir_all(&dir).expect("scratch dir creatable");
    dir
}

#[test]
fn binary_replay_is_byte_identical_to_json_replay() {
    // A cross-section of the OS suite plus the tiny CI scenarios: different
    // rates, cost profiles, and segment structures.
    let mut specs = resilient::tiny_suite();
    specs.extend(suite75::bench_suite().into_iter().step_by(11));
    assert!(specs.len() >= 8, "suite cross-section too small");

    let pacer_makers: Vec<fn(usize) -> Box<dyn FramePacer>> =
        vec![|_| Box::new(VsyncPacer::new()), |buffers| {
            Box::new(
                DvsyncPacer::new(DvsyncConfig::with_buffers(buffers))
                    .with_watchdog(WatchdogConfig::default()),
            )
        }];

    for spec in &specs {
        let original = spec.generate();
        let via_json =
            FrameTrace::from_json(&original.to_json().expect("traces serialize to JSON"))
                .expect("JSON decodes");
        let via_binary =
            FrameTrace::from_binary(&original.to_binary().expect("traces serialize to binary"))
                .expect("binary decodes");
        assert_eq!(via_binary, original, "{}: binary round-trip lossless", spec.name);

        for buffers in [3usize, 5] {
            for make_pacer in &pacer_makers {
                let base = report_json(&original, buffers, make_pacer(buffers).as_mut());
                let json_run = report_json(&via_json, buffers, make_pacer(buffers).as_mut());
                let bin_run = report_json(&via_binary, buffers, make_pacer(buffers).as_mut());
                assert_eq!(json_run, base, "{}: JSON replay diverged", spec.name);
                assert_eq!(bin_run, base, "{}: binary replay diverged", spec.name);
            }
        }
    }
}

#[test]
fn sweep_with_trace_dir_matches_clean_sweep_byte_for_byte() {
    let specs = resilient::tiny_suite();
    let baseline_buffers = 3;
    let ladder = [4usize, 5];
    let dir = scratch("sweep");

    // Record the *fitted* traces — the form the sweep replays.
    record_suite(&specs, &dir, true, baseline_buffers).expect("recording succeeds");

    let run = |cache: &GridCache| -> ResilientSweep {
        let cfg = ResilienceConfig::default();
        let (mode, jobs) = (SweepMode::Aggregate, 1);
        run_suite_resilient(
            "clean",
            &specs,
            baseline_buffers,
            &ladder,
            jobs,
            mode,
            Some(cache),
            &cfg,
        )
        .expect("a sweep without checkpoints completes")
    };
    let clean = run(&GridCache::for_suite(&specs, baseline_buffers));
    let recorded = run(&GridCache::with_trace_dir(&specs, baseline_buffers, &dir));

    // Identical measurements; only the cache-traffic counters may differ.
    assert_eq!(
        clean.report.to_json(),
        recorded.report.to_json(),
        "recorded sweep diverged from clean sweep"
    );
    assert_eq!(clean.stats.cache_loads, 0, "clean sweep must not read recordings");
    assert_eq!(
        recorded.stats.cache_loads,
        specs.len() as u64,
        "every scenario should replay from its recording"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_cache_replays_record_suite_output_byte_identically() {
    let specs = resilient::tiny_suite();
    let dir = scratch("cache");
    record_suite(&specs, &dir, false, 3).expect("recording succeeds");

    let cache = TraceCache::with_trace_dir(&specs, &dir);
    for (i, spec) in specs.iter().enumerate() {
        let cached = cache.get(&specs, i);
        assert_eq!(cached.trace, spec.generate(), "{}: recording diverged", spec.name);
    }
    assert_eq!(cache.stats().loads, specs.len() as u64);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_artifacts_replay_through_the_pipeline() {
    // Synthesize an external frame-time log from a generated trace, ingest
    // it, and check the calibrated artifacts both decode and drive the
    // pipeline deterministically twice over.
    let spec = &resilient::tiny_suite()[0];
    let trace = spec.generate();
    let mut log = String::from("ui_ms,rs_ms\n");
    for f in &trace.frames {
        log.push_str(&format!("{:.6},{:.6}\n", f.ui.as_millis_f64(), f.rs.as_millis_f64()));
    }
    let dir = scratch("ingest");
    let log_path = dir.join("frames.csv");
    std::fs::write(&log_path, log).expect("log written");

    let ingested = ingest(&log_path, &IngestOptions::default()).expect("ingest succeeds");
    assert_eq!(ingested.trace.len(), trace.len(), "every log line became a frame");
    ingested.write_artifacts(&dir).expect("artifacts written");

    for name in ["ingested.dvst", "ingested.calibrated.dvst"] {
        let path = dir.join(name);
        let decoded = FrameTrace::load_binary(&path).expect("artifact decodes");
        let mut a = VsyncPacer::new();
        let mut b = VsyncPacer::new();
        assert_eq!(
            report_json(&decoded, 3, &mut a),
            report_json(&decoded, 3, &mut b),
            "{}: replay not deterministic",
            path.display()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
