//! Allocations per device on the batched fleet path, and allocations and
//! heap bytes per cell of a warm suite sweep.
//!
//! A shard keeps a pool of warm lanes — arenas, reports, traces and fault
//! tables reused device after device — so what a device still allocates is
//! what is built fresh for it. This test counts every heap allocation the
//! shard makes on the calling thread with a thread-local counting allocator
//! and pins the per-device average.
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dvs_bench::sweepbench::{bench_specs, DEFAULT_LADDER};
use dvs_bench::{
    run_fleet_shard, run_suite_resilient, FleetEngine, GridCache, ResilienceConfig, SweepMode,
};
use dvs_pipeline::RunArena;
use dvs_workload::FleetSpec;

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

/// The ceiling on allocations per device for one warm batched shard.
const MAX_ALLOCS_PER_DEVICE: f64 = 8.0;

#[test]
fn batched_shard_allocates_at_most_eight_times_per_device() {
    let devices = 2_400;
    let spec = FleetSpec::default_population("allocs", devices, 60);
    let mut arena = RunArena::new();
    let before = thread_allocs();
    let sketch = run_fleet_shard(&spec, 0, 1, FleetEngine::Batched, &mut arena, None);
    let allocs = thread_allocs() - before;
    assert_eq!(sketch.devices, devices, "every device was measured");
    let per_device = allocs as f64 / devices as f64;
    assert!(
        per_device <= MAX_ALLOCS_PER_DEVICE,
        "{allocs} allocations over {devices} devices = {per_device:.2} per device \
         (ceiling {MAX_ALLOCS_PER_DEVICE})"
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
