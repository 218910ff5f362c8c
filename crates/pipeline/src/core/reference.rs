//! The reference tick-stepper: the retained differential-testing baseline.
//!
//! This engine deliberately keeps the naive fixed-timestep dispatch shape:
//! pending events sit in an *unsorted* list, and a polling clock marches
//! forward in fixed [`POLL_QUANTUM`]-sized steps, linear-scanning the list at
//! every step for due work. Between two VSync pulses at 60 Hz that is ~3,300
//! wasted polls — the per-quantum overhead the event-heap core exists to
//! eliminate.
//!
//! Two properties make it a valid equivalence oracle despite the different
//! dispatch shape:
//!
//! 1. Events are handed to the state machine at their **exact** scheduled
//!    time (the clock only gates *when* they are noticed, never the timestamp
//!    they carry), so every handler sees the same `now` as under the heap.
//! 2. Sequence numbers record insertion order, and due events are released
//!    in `(time, seq)` order — the tie-break [`dvs_sim::EventQueue`]
//!    encodes in its entries' positions, reached here by an independent
//!    mechanism.
//!
//! It also reads faults straight from the materialized [`FaultSchedule`]
//! (ordered-map probes), cross-checking the event-heap core's compiled
//! fault tables from a second, independent path.

use dvs_faults::FaultSchedule;
use dvs_metrics::{RunReport, RunTotals};
use dvs_sim::{SimDuration, SimTime};
use dvs_workload::FrameTrace;

use super::{CoreStats, Ev, PipeState, RunArena, StepOutcome};
use crate::config::PipelineConfig;
use crate::pacer::FramePacer;

/// The polling clock's step size: 5 µs. Fine enough to resolve the sim's
/// smallest configured offsets (rs-signal offsets and pacer wake times are
/// tens of µs and up), coarse enough that the oracle stays usable in
/// debug-mode test runs. Dispatch order never depends on the quantum — due
/// events are always released in `(time, seq)` order with their exact
/// timestamps — so this only sets how much dead polling the stepper pays,
/// i.e. its fidelity to the fixed-timestep loops it stands in for.
pub(crate) const POLL_QUANTUM: SimDuration = SimDuration::from_micros(5);

/// The naive dispatcher: unsorted pending list + quantum-stepped clock.
///
/// Generic over the event payload so the composite reference engine (which
/// dispatches surface-tagged events) polls through the identical structure.
pub(crate) struct PollingDispatcher<E> {
    pending: Vec<(SimTime, u64, E)>,
    pub(crate) next_seq: u64,
    clock: SimTime,
    pub(crate) polls: u64,
}

impl<E: Copy> PollingDispatcher<E> {
    pub(crate) fn new() -> Self {
        PollingDispatcher {
            // dvs-lint: allow(hot-alloc-transitive, reason = "dispatcher construction happens once per run, before the frame loop")
            pending: Vec::new(),
            next_seq: 0,
            clock: SimTime::from_nanos(0),
            polls: 0,
        }
    }

    /// Appends an event, stamped with its insertion order.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: E) {
        self.pending.push((at, self.next_seq, ev));
        self.next_seq += 1;
    }

    /// Releases the earliest `(time, seq)` event once the polling clock has
    /// caught up with it, stepping the clock one quantum per empty poll.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if self.pending.is_empty() {
                return None;
            }
            self.polls += 1;
            let mut best = 0usize;
            for i in 1..self.pending.len() {
                let (at, seq, _) = self.pending[i];
                let (bat, bseq, _) = self.pending[best];
                if (at, seq) < (bat, bseq) {
                    best = i;
                }
            }
            let (at, _, _) = self.pending[best];
            if at <= self.clock {
                let (at, _, ev) = self.pending.swap_remove(best);
                return Some((at, ev));
            }
            self.clock += POLL_QUANTUM;
        }
    }
}

/// Runs one trace to completion on the tick-stepper, writing the run report
/// into `out` (its frames folded into `totals` instead of recorded, when
/// given) and using `arena` buffers for the state machine's scratch.
///
/// The dispatcher itself stays freshly allocated on purpose: this engine is
/// the equivalence oracle, and keeping its dispatch structure independent of
/// the pooled buffers means arena-reuse bugs cannot hide in both engines at
/// once.
pub(crate) fn execute(
    cfg: &PipelineConfig,
    trace: &FrameTrace,
    pacer: &mut dyn FramePacer,
    schedule: FaultSchedule,
    arena: &mut RunArena,
    out: &mut RunReport,
    totals: Option<&mut RunTotals>,
) -> CoreStats {
    let (scratch, _, _) = arena.split();
    let mut st = PipeState::new(cfg, trace, pacer, schedule, scratch, out);
    let mut dispatch = PollingDispatcher::new();
    dispatch.schedule(st.first_pulse_at(), Ev::Tick(0));
    let mut processed = 0u64;
    while let Some((t, ev)) = dispatch.pop() {
        processed += 1;
        if st.step(t, ev, &mut |at, e| dispatch.schedule(at, e)) == StepOutcome::Done {
            break;
        }
    }
    let stats = CoreStats {
        events_processed: processed,
        events_scheduled: dispatch.next_seq,
        polls: dispatch.polls,
    };
    st.finish(totals);
    stats
}
