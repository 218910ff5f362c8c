//! Allocations and heap bytes per device on the fleet shard path, the
//! shard's peak of live heap bytes, allocations and bytes per cell of a
//! warm suite sweep, the exact simulated work of a fixed sweep and a fixed
//! fleet, the exact work of both execution cores on a suite75 slice, and
//! the exact size of the suite75 trace corpus in both formats.
//!
//! A shard runs every device through its worker's one arena and one pooled
//! trace, so what a device still allocates is what is
//! built fresh for it. This test counts every heap allocation the shard
//! makes on the calling thread with a thread-local counting allocator and
//! pins the per-device averages. Devices fold their runs into totals, so
//! no run grows a frame-record vector.
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
//! The same counter tracks the thread's live heap bytes, so the test also
//! pins the shard's peak: one arena, one trace and the sketch. A pool of 64
//! batch-kernel lanes, each with its own arena and report, holds about 35
//! times as much.
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
//! pass) and over a fixed fleet population, each counted once on the record
//! path and once through the fold that sweep cells and fleet devices take,
//! and the fleet also through the batch kernel's lanes. A change that only
//! makes the simulator faster leaves them equal; one that alters the
//! simulated work moves them.
//!
//! The suite75 slice (every fifth case, VSync at 3 buffers) pins what the
//! event heap saves: the same events on both cores, and the polls only the
//! reference tick-stepper makes. The corpus sizes are a pure function of
//! the trace generator and both encoders, so they are exact too; the
//! binary container's 5× size floor over JSON rides on them.
//! `speed_floors.rs` times the same two workloads in release builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use dvs_bench::sweepbench::{bench_specs, DEFAULT_LADDER};
use dvs_bench::{
    run_fleet_shard, run_suite_resilient, GridCache, ResilienceConfig, SweepMode, BATCH_WIDTH,
};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::named_profile;
use dvs_metrics::{RunReport, RunTotals};
use dvs_pipeline::{
    calibrate_spec_pooled, run_batch, BatchLane, FramePacer, PipelineConfig, RunArena, SimCore,
    Simulator, VsyncPacer,
};
use dvs_sim::stable_seed;
use dvs_workload::{FleetSpec, FrameTrace};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts allocation calls (a `realloc` counts as one) and the bytes they
/// request on the current thread, and tracks the thread's live heap bytes
/// and their peak, delegating the memory itself to `System`.
struct CountingAlloc;

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Moves the thread's live byte count by `delta` (freeing memory another
/// thread allocated can take it below zero, which only lowers the peak).
fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method delegates to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-locals
// without destructors, so updating them neither allocates nor touches the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        track(new_size as i64 - layout.size() as i64);
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

/// The thread's live heap bytes now; resets the peak to it.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

fn thread_peak() -> i64 {
    PEAK.with(Cell::get)
}

/// The ceilings on allocations and heap bytes per device for one warm
/// shard (about 5.5 and 433 B measured).
const MAX_ALLOCS_PER_DEVICE: f64 = 8.0;
const MAX_BYTES_PER_DEVICE: f64 = 520.0;

/// The ceiling on the shard's peak of live heap bytes, above what was live
/// before it: about 22 KiB measured, against about 766 KiB for a pool of 64
/// lanes, each with its own arena and report.
const MAX_PEAK_BYTES: i64 = 28 * 1024;

#[test]
fn batched_shard_allocates_at_most_eight_times_per_device() {
    let devices = 2_400;
    let spec = FleetSpec::default_population("allocs", devices, 60);
    let live_before = reset_peak();
    let mut arena = RunArena::new();
    let (allocs_before, bytes_before) = (thread_allocs(), thread_bytes());
    let sketch = run_fleet_shard(&spec, 0, 1, &mut arena, None);
    let (allocs, bytes) = (thread_allocs() - allocs_before, thread_bytes() - bytes_before);
    let peak = thread_peak() - live_before;
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
    assert!(
        peak <= MAX_PEAK_BYTES,
        "the shard's live heap peaked {peak} bytes above its start (ceiling {MAX_PEAK_BYTES} B)"
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
/// population, run alone, folded as a shard folds them, or in the lanes of
/// the batch kernel.
const FLEET_EVENTS: u64 = 440_052;

#[test]
fn fleet_population_dispatches_an_exact_event_count_on_every_path() {
    let spec = FleetSpec::default_population("allocs", 2_400, 60);
    let mut arena = RunArena::new();
    let mut out = RunReport::default();
    let mut trace = FrameTrace::new(String::new(), 0);
    let mut per_device = 0;
    // The batch kernel's buckets: devices of one (rate, buffers) cell,
    // flushed at `BATCH_WIDTH` lanes, as the benchmark's traced copy runs
    // them.
    let mut buckets: BTreeMap<(u32, usize), Vec<BatchLane<DvsyncPacer>>> = BTreeMap::new();
    let (mut batched, mut folded) = (0, 0);
    let mut flush = |(rate_hz, buffers): (u32, usize), lanes: &mut Vec<BatchLane<DvsyncPacer>>| {
        let cfg = PipelineConfig::new(rate_hz, buffers);
        let stats = run_batch(&cfg, lanes);
        batched += stats.expect("generated fleet traces validate").events_processed;
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
        folded += stats.expect("generated fleet traces validate").events_processed;
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
    assert_eq!(per_device, FLEET_EVENTS, "the recorded runs' simulated work changed");
    assert_eq!(folded, FLEET_EVENTS, "the shard fold's simulated work changed");
    assert_eq!(batched, FLEET_EVENTS, "the batch kernel's simulated work changed");
}

/// Events dispatched over every fifth suite75 case at VSync with 3
/// buffers, on either core.
const SLICE_EVENTS: u64 = 25_577;

/// Polling-clock steps the reference tick-stepper takes over the same
/// slice; the event heap takes none.
const SLICE_REFERENCE_POLLS: u64 = 12_963_916;

#[test]
fn suite75_slice_dispatches_exact_events_and_polls_on_both_cores() {
    let traces: Vec<FrameTrace> = bench_specs(true).iter().map(|s| s.generate()).collect();
    let mut arena = RunArena::new();
    let mut out = RunReport::default();
    for (core, polls) in [(SimCore::EventHeap, 0), (SimCore::Reference, SLICE_REFERENCE_POLLS)] {
        let (mut got_events, mut got_polls) = (0, 0);
        for trace in &traces {
            let cfg = PipelineConfig::new(trace.rate_hz, 3);
            let stats = Simulator::new(&cfg)
                .with_core(core)
                .try_run_into(trace, &mut VsyncPacer::new(), &mut arena, &mut out)
                .expect("generated traces validate");
            got_events += stats.events_processed;
            got_polls += stats.polls;
        }
        assert_eq!(
            (got_events, got_polls),
            (SLICE_EVENTS, polls),
            "{core:?}: the slice's events or polls changed"
        );
    }
}

/// The suite75 corpus: traces, frames, and its bytes as JSON and in the
/// binary container (5.06× smaller).
const CORPUS_TRACES: usize = 75;
const CORPUS_FRAMES: usize = 33_960;
const CORPUS_JSON_BYTES: usize = 945_941;
const CORPUS_BINARY_BYTES: usize = 187_067;

#[test]
fn suite75_corpus_encodes_to_exact_sizes() {
    let traces: Vec<FrameTrace> = bench_specs(false).iter().map(|s| s.generate()).collect();
    let frames: usize = traces.iter().map(FrameTrace::len).sum();
    let json: usize = traces.iter().map(|t| t.to_json().expect("traces serialize").len()).sum();
    let binary: usize = traces.iter().map(|t| t.to_binary().expect("traces encode").len()).sum();
    assert_eq!(
        (traces.len(), frames, json, binary),
        (CORPUS_TRACES, CORPUS_FRAMES, CORPUS_JSON_BYTES, CORPUS_BINARY_BYTES),
        "the corpus or an encoder changed"
    );
}
