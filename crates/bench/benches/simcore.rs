//! Simulator-core benchmark: steady-state run throughput of the event-heap
//! engine against the reference tick-stepper, on a representative slice of
//! the suite75 workload.
//!
//! `crates/bench/tests/fleet_allocs.rs` pins the exact events and polls of
//! this slice on both engines, and `crates/bench/tests/speed_floors.rs`
//! holds the event heap at 5× the tick-stepper on it in release builds;
//! this criterion harness times the same hot path for `cargo bench`
//! workflows.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use dvs_metrics::RunReport;
use dvs_pipeline::{PipelineConfig, RunArena, SimCore, Simulator, VsyncPacer};
use dvs_workload::FrameTrace;

/// Every fifth suite75 case: a 15-case slice that keeps one criterion
/// iteration affordable for the tick-stepper too.
fn quick_slice() -> Vec<FrameTrace> {
    dvs_bench::suite75::bench_suite().iter().step_by(5).map(|spec| spec.generate()).collect()
}

fn bench_simcore(c: &mut Criterion) {
    let traces = quick_slice();
    let frames: u64 = traces.iter().map(|t| t.len() as u64).sum();

    let mut group = c.benchmark_group("simcore");
    group.throughput(Throughput::Elements(frames));
    for (name, core) in [
        ("event_heap_suite75_slice", SimCore::EventHeap),
        ("reference_suite75_slice", SimCore::Reference),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut events = 0u64;
                for trace in &traces {
                    let cfg = PipelineConfig::new(trace.rate_hz, 3);
                    let stats = Simulator::new(&cfg)
                        .with_core(core)
                        .try_run_into(
                            black_box(trace),
                            &mut VsyncPacer::new(),
                            &mut RunArena::new(),
                            &mut RunReport::default(),
                        )
                        .expect("bench traces are valid");
                    events += stats.events_processed;
                }
                events
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simcore);
criterion_main!(benches);
