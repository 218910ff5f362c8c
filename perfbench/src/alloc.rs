//! The benchmark binary's counting allocator.
//!
//! Two kinds of counters ride on every heap operation:
//!
//! * process-wide live bytes with a high-water mark, which `peak_heap_mb`
//!   reports;
//! * per-thread allocation calls and bytes requested, which the span
//!   recorder reads at span boundaries to attribute allocations to layers.
//!
//! A `realloc` counts as one allocation of its new size, as the `repro`
//! binary's allocator counts it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocation calls and bytes requested by the current thread so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadAllocs {
    pub allocs: u64,
    pub bytes: u64,
}

/// The current thread's running totals.
#[inline]
pub fn thread_allocs() -> ThreadAllocs {
    ThreadAllocs {
        allocs: ALLOCS.try_with(Cell::get).unwrap_or(0),
        bytes: BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

/// Runs `f` without charging its allocations to the current thread, so the
/// span recorder's own bookkeeping never shows up in a layer's counts.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let saved = thread_allocs();
    let r = f();
    let _ = ALLOCS.try_with(|c| c.set(saved.allocs));
    let _ = BYTES.try_with(|c| c.set(saved.bytes));
    r
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the bytes live right now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[inline]
fn grew(bytes: usize, requested: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + requested as u64));
}

pub struct CountingAlloc;

// SAFETY: every method delegates to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed atomics and
// const-initialised thread-locals without destructors, so updating them
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size(), layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size(), layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let old = layout.size();
            if new_size >= old {
                grew(new_size - old, new_size);
            } else {
                LIVE.fetch_sub(old - new_size, Ordering::Relaxed);
                let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
                let _ = BYTES.try_with(|c| c.set(c.get() + new_size as u64));
            }
        }
        p
    }
}
