//! Allocations and heap bytes per device on the batched fleet path and per
//! cell of a warm suite sweep, and the exact simulated work of a fixed
//! sweep and a fixed fleet.
//!
//! A shard keeps a pool of warm lanes — arenas, traces and fault tables
//! reused device after device — so what a device still allocates is what is
//! built fresh for it. This test counts every heap allocation the shard
//! makes on the calling thread with a thread-local counting allocator and
//! pins the per-device averages. Lanes fold their runs into totals, so no
//! lane grows a frame-record vector.
//!
//! What remains per device, and why it is not pooled:
//!
//! * the `named_profile` plan of a faulted device: its seed key `String` and
//!   its stochastic-process `Vec` (about 40 % of devices are faulted);
//! * the panel timeline's segment `Vec`, built per run by
//!   `PipelineConfig::build_timeline` (a `thermal-cap` device, 5 % of the
//!   population, also copies its rate-switch list and grows the segments
//!   once to commit them);
//! * the `BufferQueue`'s slot `Vec` and its FIFO `VecDeque`;
//! * the D-VSync pacer's DTV deque.
//!
//! Bucket vectors and the cold first use of each lane add a fraction of an
//! allocation per device. The batch kernel itself allocates nothing: it runs
//! each lane to completion in that lane's own warm arena.
//!
//! A suite sweep cell runs through its worker's pooled `RunArena` and a
//! calibration shared through the `GridCache`, so a warm call allocates
//! only per-cell bookkeeping: the cell's key, its checkpoint-slot JSON and
//! its share of the rows. The byte ceiling is the runtime mirror of lint
//! rule DVS-H002: a fresh arena per cell allocates about 37 kB per cell,
//! far over it, while the allocation count alone would barely move.
//!
//! The event counts are exact: `CoreStats::events_processed` summed over
//! every cell of the seed-1 suite75 buffer ladder (the sweep benchmark's
//! pass) and over a fixed fleet population on both engines, each counted
//! once on the record path and once through the fold that sweep cells and
//! fleet devices take. A change that only makes the simulator faster leaves
//! them equal; one that alters the simulated work moves them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use dvs_bench::sweepbench::{bench_specs, DEFAULT_LADDER};
use dvs_bench::{
    run_fleet_shard, run_suite_resilient, FleetEngine, GridCache, ResilienceConfig, SweepMode,
    BATCH_WIDTH,
};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::named_profile;
use dvs_metrics::{RunReport, RunTotals};
use dvs_pipeline::{
    calibrate_spec_pooled, run_batch, tally_batch, BatchLane, FramePacer, PipelineConfig, RunArena,
    Simulator, VsyncPacer,
};
use dvs_sim::stable_seed;
use dvs_workload::{FleetSpec, FrameTrace};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocation calls (a `realloc` counts as one) and the bytes they
/// request on the current thread, delegating the memory itself to `System`.
struct CountingAlloc;

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method delegates to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-locals
// without destructors, so updating them neither allocates nor touches the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn thread_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// The ceilings on allocations and heap bytes per device for one warm
/// batched shard (about 6.5 and 1,150 B measured).
const MAX_ALLOCS_PER_DEVICE: f64 = 8.0;
const MAX_BYTES_PER_DEVICE: f64 = 1_400.0;

#[test]
fn batched_shard_allocates_at_most_eight_times_per_device() {
    let devices = 2_400;
    let spec = FleetSpec::default_population("allocs", devices, 60);
    let mut arena = RunArena::new();
    let (allocs_before, bytes_before) = (thread_allocs(), thread_bytes());
    let sketch = run_fleet_shard(&spec, 0, 1, FleetEngine::Batched, &mut arena, None);
    let (allocs, bytes) = (thread_allocs() - allocs_before, thread_bytes() - bytes_before);
    assert_eq!(sketch.devices, devices, "every device was measured");
    let per_device = allocs as f64 / devices as f64;
    assert!(
        per_device <= MAX_ALLOCS_PER_DEVICE,
        "{allocs} allocations over {devices} devices = {per_device:.2} per device \
         (ceiling {MAX_ALLOCS_PER_DEVICE})"
    );
    let bytes_per_device = bytes as f64 / devices as f64;
    assert!(
        bytes_per_device <= MAX_BYTES_PER_DEVICE,
        "{bytes} bytes over {devices} devices = {bytes_per_device:.0} B per device \
         (ceiling {MAX_BYTES_PER_DEVICE} B)"
    );
}

/// The ceilings on allocations and heap bytes per cell of a warm suite call.
const MAX_ALLOCS_PER_CELL: f64 = 40.0;
const MAX_BYTES_PER_CELL: f64 = 8.0 * 1024.0;

#[test]
fn warm_suite_cells_stay_under_the_allocation_and_byte_ceilings() {
    // The quick slice (15 scenarios) at `--jobs 1`, so every allocation
    // lands on this thread.
    let specs = bench_specs(true);
    let cache = GridCache::for_suite(&specs, 3);
    let cfg = ResilienceConfig::default();
    let call = |buffers: usize| {
        let mode = SweepMode::Aggregate;
        run_suite_resilient("allocs", &specs, 3, &[buffers], 1, mode, Some(&cache), &cfg)
            .expect("a sweep without checkpoints completes")
    };
    // The cold call calibrates every scenario into the cache.
    call(DEFAULT_LADDER[0]);
    for buffers in DEFAULT_LADDER {
        let (allocs_before, bytes_before) = (thread_allocs(), thread_bytes());
        let out = call(buffers);
        let (allocs, bytes) = (thread_allocs() - allocs_before, thread_bytes() - bytes_before);
        let cells = out.accounting.cells_total;
        assert_eq!(out.accounting.cells_ok, 2 * specs.len(), "every cell was measured");
        let (per_cell_allocs, per_cell_bytes) =
            (allocs as f64 / cells as f64, bytes as f64 / cells as f64);
        assert!(
            per_cell_allocs <= MAX_ALLOCS_PER_CELL && per_cell_bytes <= MAX_BYTES_PER_CELL,
            "{buffers} buffers: {allocs} allocations and {bytes} bytes over {cells} cells = \
             {per_cell_allocs:.1} and {per_cell_bytes:.0} B per cell (ceilings \
             {MAX_ALLOCS_PER_CELL} and {MAX_BYTES_PER_CELL} B)"
        );
    }
}

/// Events dispatched over the five cells (VSync at 3 buffers, D-VSync at
/// each ladder depth) of every seed-1 suite75 scenario, each cell run as
/// its calibrated segments.
const SUITE75_LADDER_EVENTS: u64 = 533_317;

#[test]
fn suite75_ladder_dispatches_an_exact_event_count() {
    let mut specs = bench_specs(false);
    for s in &mut specs {
        s.seed = stable_seed(&format!("perfbench/1/{}", s.name));
    }
    let mut arena = RunArena::new();
    let mut out = RunReport::default();
    let (mut recorded, mut folded) = (0, 0);
    for spec in &specs {
        let fitted = calibrate_spec_pooled(spec, 3, &mut arena);
        let segments = fitted.spec.segments_of(&fitted.trace);
        for buffers in std::iter::once(3).chain(DEFAULT_LADDER) {
            let cfg = PipelineConfig::new(spec.rate_hz, buffers);
            let sim = Simulator::new(&cfg);
            let mut totals = RunTotals::default();
            for segment in &segments {
                let pacer = || -> Box<dyn FramePacer> {
                    if buffers == 3 {
                        Box::new(VsyncPacer::new())
                    } else {
                        Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(buffers)))
                    }
                };
                let stats = sim.try_run_into(segment, pacer().as_mut(), &mut arena, &mut out);
                recorded += stats.expect("calibrated segments validate").events_processed;
                let stats = sim.try_tally_into(segment, pacer().as_mut(), &mut arena, &mut totals);
                folded += stats.expect("calibrated segments validate").events_processed;
            }
        }
    }
    assert_eq!(recorded, SUITE75_LADDER_EVENTS, "the suite75 ladder's simulated work changed");
    assert_eq!(folded, SUITE75_LADDER_EVENTS, "the fold's simulated work changed");
}

/// Events dispatched over the 2,400 devices of the allocation test's
/// population, on either fleet engine.
const FLEET_EVENTS: u64 = 440_052;

#[test]
fn fleet_population_dispatches_an_exact_event_count_on_both_engines() {
    let spec = FleetSpec::default_population("allocs", 2_400, 60);
    let mut arena = RunArena::new();
    let mut out = RunReport::default();
    let mut trace = FrameTrace::new(String::new(), 0);
    let mut per_device = 0;
    // The batched engine's buckets: devices of one (rate, buffers) cell,
    // flushed through the batch kernel at `BATCH_WIDTH` lanes.
    let mut buckets: BTreeMap<(u32, usize), Vec<BatchLane<DvsyncPacer>>> = BTreeMap::new();
    let (mut batched, mut batch_folded, mut per_device_folded) = (0, 0, 0);
    let mut flush = |(rate_hz, buffers): (u32, usize), lanes: &mut Vec<BatchLane<DvsyncPacer>>| {
        let cfg = PipelineConfig::new(rate_hz, buffers);
        let stats = run_batch(&cfg, lanes);
        batched += stats.expect("generated fleet traces validate").events_processed;
        // Fresh pacers: a lane's pacer state belongs to one run.
        for lane in lanes.iter_mut() {
            let (trace, plan) = (lane.trace.clone(), lane.plan.take());
            lane.reload(trace, plan, DvsyncPacer::new(DvsyncConfig::with_buffers(buffers)));
        }
        let stats = tally_batch(&cfg, lanes);
        batch_folded += stats.expect("generated fleet traces validate").events_processed;
        lanes.clear();
    };
    for i in 0..spec.devices {
        let dev = spec.device(i).expect("index inside the population");
        let cfg = PipelineConfig::new(dev.rate_hz, dev.buffers);
        let plan = if dev.is_clean() {
            None
        } else {
            named_profile(dev.fault_profile, dev.fault_seed_key(&spec.name))
        };
        let pacer = || DvsyncPacer::new(DvsyncConfig::with_buffers(dev.buffers));
        dev.trace_into(&mut trace);
        let stats = Simulator::new(&cfg).with_faults(plan.as_ref()).try_run_into(
            &trace,
            &mut pacer(),
            &mut arena,
            &mut out,
        );
        per_device += stats.expect("generated fleet traces validate").events_processed;
        let stats = Simulator::new(&cfg).with_faults(plan.as_ref()).try_tally_into(
            &trace,
            &mut pacer(),
            &mut arena,
            &mut RunTotals::default(),
        );
        per_device_folded += stats.expect("generated fleet traces validate").events_processed;
        let key = (dev.rate_hz, dev.buffers);
        let lanes = buckets.entry(key).or_default();
        lanes.push(BatchLane::new(trace.clone(), plan, pacer()));
        if lanes.len() == BATCH_WIDTH {
            flush(key, lanes);
        }
    }
    for (&key, lanes) in &mut buckets {
        flush(key, lanes);
    }
    assert_eq!(per_device, FLEET_EVENTS, "the per-device engine's simulated work changed");
    assert_eq!(batched, FLEET_EVENTS, "the batched engine's simulated work changed");
    assert_eq!(per_device_folded, FLEET_EVENTS, "the per-device fold's simulated work changed");
    assert_eq!(batch_folded, FLEET_EVENTS, "the batched fold's simulated work changed");
}
