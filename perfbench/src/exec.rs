//! What the workloads share: the outcome of one pass, and the worker pool
//! the traced passes use in place of the resilient executor.
//!
//! The executor's cell loop is private to `dvs-bench`, so a traced pass
//! cannot reach inside it. Instead it repeats the executor's public calls in
//! the executor's order: `jobs` threads pull unit indices from a shared
//! counter, each unit attempt runs under `catch_unwind` with a fresh arena
//! after a panic, and each completion is published under one lock. The
//! report a traced pass assembles must hash to the untraced digest, which
//! is what keeps the two paths honest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use dvs_bench::{CellSlot, QuarantinedSlot, RetryPolicy};
use dvs_pipeline::RunArena;

use crate::trace::{span, take_thread, Kind, ThreadTrace};

/// Executor traffic one pass reports beside its digest.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCounts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Cache misses served from a recorded trace instead of calibration.
    pub cache_loads: u64,
    /// Units that needed more than one attempt.
    pub retried: u64,
}

/// The checked outcome of one pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// FNV-1a of the pass's canonical report JSON.
    pub digest: u64,
    /// Units (shards or cells) attempted.
    pub units: u64,
    /// Units quarantined after exhausting their retries.
    pub quarantined: u64,
    /// Output checks that failed; any entry fails every unit of the pass.
    pub problems: Vec<String>,
    pub exec: ExecCounts,
    /// The model's simulated headline, printed beside the paper's figures.
    pub headline: String,
}

impl Pass {
    pub fn failed_units(&self) -> u64 {
        if self.problems.is_empty() {
            self.quarantined
        } else {
            self.units
        }
    }
}

/// What only a traced pass measures.
#[derive(Default)]
pub struct Probe {
    /// Events the simulator dispatched, where a call returns `CoreStats`.
    pub events: u64,
    /// Frames decoded from recorded traces.
    pub decoded_frames: u64,
    /// Bytes of checkpoint files written.
    pub checkpoint_bytes: u64,
    pub threads: Vec<ThreadTrace>,
}

pub fn digest(json: &str) -> u64 {
    dvs_sim::fnv1a(json.as_bytes())
}

/// Runs `unit(arena, i)` for every `i < n` on `jobs` workers that pull
/// indices from a shared counter, each with its own [`RunArena`], and
/// returns every worker's spans.
pub fn for_each_unit<F>(n: usize, jobs: usize, unit: F) -> Vec<ThreadTrace>
where
    F: Fn(&mut RunArena, usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut arena = RunArena::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            unit(&mut arena, i);
        }
        take_thread()
    };
    if jobs <= 1 || n <= 1 {
        return vec![worker()];
    }
    thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.min(n)).map(|_| s.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join().expect("benchmark worker panicked")).collect()
    })
}

/// One unit's bounded attempt loop inside an `exec.cell` span, as the
/// executor runs it: a panicking attempt is retried on a fresh arena until
/// the retry budget is spent. `work` returns the unit's result serialized,
/// as the executor stores it; a unit that never succeeds is quarantined
/// under `key`.
pub fn attempt(
    id: usize,
    key: &str,
    arena: &mut RunArena,
    work: impl Fn(&mut RunArena) -> Option<String>,
) -> CellSlot {
    let budget = RetryPolicy::default().max_attempts.max(1);
    span(Kind::Cell, id as u64, || {
        let mut cause = String::new();
        for attempts in 1..=budget {
            match catch_unwind(AssertUnwindSafe(|| work(arena))) {
                Ok(Some(json)) => return CellSlot { ok: Some(json), quarantined: None, attempts },
                Ok(None) => cause = "result failed to serialize".to_string(),
                Err(_) => {
                    *arena = RunArena::new();
                    cause = "panicked".to_string();
                }
            }
        }
        CellSlot {
            ok: None,
            quarantined: Some(QuarantinedSlot { key: key.to_string(), cause }),
            attempts: budget,
        }
    })
}
