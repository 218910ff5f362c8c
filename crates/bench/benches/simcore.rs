//! Simulator-core benchmark: steady-state run throughput of the event-heap
//! engine against the reference tick-stepper, on a representative slice of
//! the suite75 workload.
//!
//! The full comparison with machine-readable output lives in
//! `repro bench --emit-json` (see `dvs_bench::simcore`); this criterion
//! harness covers the same hot path for `cargo bench` workflows.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use dvs_bench::simcore::bench_traces;
use dvs_metrics::RunReport;
use dvs_pipeline::{PipelineConfig, RunArena, SimCore, Simulator, VsyncPacer};

fn bench_simcore(c: &mut Criterion) {
    // The quick slice (every fifth suite75 case) keeps one criterion
    // iteration affordable for the tick-stepper too.
    let traces = bench_traces(true);
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
