//! Release-build speed floors, each with a wide margin: the fleet runner
//! at one million simulated devices per minute, binary trace decode at 5×
//! JSON over the suite75 corpus, and the event heap at 5× the reference
//! tick-stepper on every fifth suite75 case. Debug builds skip the test:
//! their timings say nothing about the shipped binary.
//!
//! Each side of a ratio is the best of interleaved passes, so a stall in
//! one pass cannot flip the ratio. `fleet_allocs.rs` pins the exact work
//! behind each reading (events, polls, corpus bytes); this test only
//! checks that the work stays fast.

use std::hint::black_box;
use std::time::Instant;

use dvs_bench::sweep::default_jobs;
use dvs_bench::sweepbench::bench_specs;
use dvs_bench::{run_fleet_resilient, FleetEngine, ResilienceConfig, FRAMES_PER_DEVICE};
use dvs_metrics::RunReport;
use dvs_pipeline::{PipelineConfig, RunArena, SimCore, Simulator, VsyncPacer};
use dvs_workload::{FleetSpec, FrameTrace};

const DEVICES_PER_MIN_FLOOR: f64 = 1_000_000.0;
const DECODE_FLOOR: f64 = 5.0;
const EVENT_HEAP_FLOOR: f64 = 5.0;

fn seconds(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The best time of three interleaved passes of `a` and of `b`.
fn best_interleaved(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        best_a = best_a.min(seconds(&mut a));
        best_b = best_b.min(seconds(&mut b));
    }
    (best_a, best_b)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timings hold for release builds only")]
fn release_build_clears_the_speed_floors() {
    let jobs = default_jobs();
    let spec = FleetSpec::default_population("bench", 20_000, FRAMES_PER_DEVICE);
    let fleet_secs = seconds(&mut || {
        let cfg = ResilienceConfig::default();
        let out = run_fleet_resilient(&spec, (jobs * 8).max(16), jobs, FleetEngine::Batched, &cfg)
            .expect("the default population validates");
        assert!(!out.degraded(), "a clean fleet run quarantined shards");
    });
    let devices_per_min = spec.devices as f64 / fleet_secs * 60.0;

    let corpus: Vec<FrameTrace> = bench_specs(false).iter().map(|s| s.generate()).collect();
    let json: Vec<String> = corpus.iter().map(|t| t.to_json().expect("traces serialize")).collect();
    let binary: Vec<Vec<u8>> =
        corpus.iter().map(|t| t.to_binary().expect("traces encode")).collect();
    let (json_secs, binary_secs) = best_interleaved(
        || {
            for s in &json {
                black_box(FrameTrace::from_json(s).expect("the corpus decodes"));
            }
        },
        || {
            for b in &binary {
                black_box(FrameTrace::from_binary(b).expect("the corpus decodes"));
            }
        },
    );
    let decode = json_secs / binary_secs;

    let slice: Vec<FrameTrace> = bench_specs(true).iter().map(|s| s.generate()).collect();
    let run_slice = |core: SimCore| {
        for trace in &slice {
            let cfg = PipelineConfig::new(trace.rate_hz, 3);
            let stats = Simulator::new(&cfg).with_core(core).try_run_into(
                trace,
                &mut VsyncPacer::new(),
                &mut RunArena::new(),
                &mut RunReport::default(),
            );
            black_box(stats.expect("generated traces validate"));
        }
    };
    let (reference_secs, heap_secs) =
        best_interleaved(|| run_slice(SimCore::Reference), || run_slice(SimCore::EventHeap));
    let event_heap = reference_secs / heap_secs;

    let readings = format!(
        "fleet {:.2} M devices/min at {jobs} jobs, binary decode {decode:.1}x JSON, \
         event heap {event_heap:.1}x the tick-stepper",
        devices_per_min / 1e6
    );
    assert!(devices_per_min >= DEVICES_PER_MIN_FLOOR, "fleet below 1 M devices/min: {readings}");
    assert!(decode >= DECODE_FLOOR, "binary decode below {DECODE_FLOOR}x JSON: {readings}");
    assert!(
        event_heap >= EVENT_HEAP_FLOOR,
        "event heap below {EVENT_HEAP_FLOOR}x the tick-stepper: {readings}"
    );
    println!("{readings}");
}
