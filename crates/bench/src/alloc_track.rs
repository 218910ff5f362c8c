//! Process-wide allocation counters for benchmark instrumentation.
//!
//! The fleet benchmark (`repro fleet --bench`) reports how many heap bytes
//! and allocation calls each arm makes. This module holds the counters
//! and their safe accessors; the `unsafe` [`std::alloc::GlobalAlloc`]
//! wrapper that feeds them lives in the `repro` binary (this library is
//! `#![forbid(unsafe_code)]`), so:
//!
//! * under `repro`, every heap allocation increments the counters;
//! * under `cargo test` (no wrapper installed), the counters stay at zero
//!   and [`enabled`] reports `false`.
//!
//! The gate on what a warm sweep cell allocates — the runtime mirror of
//! lint rule DVS-H002 — is the per-cell byte ceiling in
//! `crates/bench/tests/fleet_allocs.rs`, which counts with its own
//! thread-local allocator.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

static BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Monotonic allocation totals observed since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocSnapshot {
    /// Heap bytes requested.
    pub bytes: u64,
    /// Allocation calls.
    pub allocs: u64,
}

/// Records one allocation of `size` bytes. Called by the counting allocator
/// installed in the `repro` binary; never called under plain `cargo test`.
#[inline]
pub fn record_alloc(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// The current totals.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot { bytes: BYTES.load(Ordering::Relaxed), allocs: ALLOCS.load(Ordering::Relaxed) }
}

/// Totals accumulated since `start` (a prior [`snapshot`]).
pub fn delta_since(start: AllocSnapshot) -> AllocSnapshot {
    let now = snapshot();
    AllocSnapshot {
        bytes: now.bytes.saturating_sub(start.bytes),
        allocs: now.allocs.saturating_sub(start.allocs),
    }
}

/// Whether a counting allocator is feeding the counters (any traffic seen).
pub fn enabled() -> bool {
    ALLOCS.load(Ordering::Relaxed) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_monotonic_and_saturating() {
        let start = snapshot();
        record_alloc(128);
        record_alloc(64);
        let d = delta_since(start);
        assert!(d.bytes >= 192, "recorded bytes must appear in the delta");
        assert!(d.allocs >= 2);
        assert!(enabled());
        // A snapshot from the future saturates to zero rather than wrapping.
        let future = AllocSnapshot { bytes: u64::MAX, allocs: u64::MAX };
        assert_eq!(delta_since(future), AllocSnapshot::default());
    }
}
