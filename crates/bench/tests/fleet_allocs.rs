//! Allocations per device on the batched fleet path.
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dvs_bench::{run_fleet_shard, FleetEngine};
use dvs_pipeline::RunArena;
use dvs_workload::FleetSpec;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocation calls (a `realloc` counts as one) on the current
/// thread, delegating the memory itself to `System`.
struct CountingAlloc;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// without a destructor, so updating it neither allocates nor touches the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The ceiling on allocations per device for one warm batched shard.
const MAX_ALLOCS_PER_DEVICE: f64 = 8.0;

#[test]
fn batched_shard_allocates_at_most_eight_times_per_device() {
    let devices = 2_400;
    let spec = FleetSpec::default_population("allocs", devices, 60);
    let mut arena = RunArena::new();
    let before = thread_allocs();
    let sketch = run_fleet_shard(&spec, 0, 1, FleetEngine::Batched, &mut arena);
    let allocs = thread_allocs() - before;
    assert_eq!(sketch.devices, devices, "every device was measured");
    let per_device = allocs as f64 / devices as f64;
    assert!(
        per_device <= MAX_ALLOCS_PER_DEVICE,
        "{allocs} allocations over {devices} devices = {per_device:.2} per device \
         (ceiling {MAX_ALLOCS_PER_DEVICE})"
    );
}
