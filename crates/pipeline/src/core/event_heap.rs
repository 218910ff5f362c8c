//! The event-heap execution engine (the production default).
//!
//! Dispatch is a pre-sized sorted run queue ([`dvs_sim::EventQueue`]) that
//! pops events in `(time, insertion order)`: the loop pops the next due
//! event and jumps the clock straight to it — no polling quanta, no dead
//! iterations between VSync pulses. (The engine keeps its historical name;
//! at the handful of events a run holds pending, a linear insert beats a
//! binary heap.) The steady-state loop performs **zero heap allocations**:
//!
//! * the run queue is pre-sized to the worst-case population (one pending
//!   tick + one wake + one UI completion + one render completion per
//!   context, with slack for stale wakes);
//! * fault lookups go through [`CompiledFaults`](dvs_faults::CompiledFaults)
//!   tables pooled in the arena and reloaded straight from the run's plan;
//!   tick-domain processes draw as the run reaches each tick, so a run pays
//!   for the ticks it takes, not for the safety cap (clean runs reload to
//!   empty tables and a zero flag word);
//! * all per-frame state lives in vectors sized from the trace before the
//!   first event fires.
//!
//! The state machine takes its scheduler callback as a generic, so the
//! queue insert inlines into each step.

use dvs_faults::FaultPlan;
use dvs_metrics::{RunReport, RunTotals};
use dvs_workload::FrameTrace;

use super::{CoreStats, Ev, PipeState, RunArena, StepOutcome};
use crate::config::PipelineConfig;
use crate::pacer::FramePacer;

/// Worst-case concurrent queue population: one pending tick, one wake, one
/// UI completion, one render completion per context — doubled for stale
/// wakes that remain queued after a better plan superseded them.
fn heap_capacity(render_threads: usize) -> usize {
    2 * (3 + render_threads)
}

/// Runs one trace to completion on the run queue, under `plan`'s faults
/// (`None` runs clean), writing the run report into `out` (its frames folded
/// into `totals` instead of recorded, when given) and using `arena` buffers
/// for all transient state.
pub(crate) fn execute(
    cfg: &PipelineConfig,
    trace: &FrameTrace,
    pacer: &mut dyn FramePacer,
    plan: Option<&FaultPlan>,
    arena: &mut RunArena,
    out: &mut RunReport,
    totals: Option<&mut RunTotals>,
) -> CoreStats {
    let (scratch, heap, faults) = arena.split();
    faults.reload(plan, &cfg.fault_horizon(trace.len()));
    // A pooled queue must rewind its `total_scheduled` counter so reused
    // runs report the same stats as fresh ones.
    heap.reset();
    heap.reserve(heap_capacity(cfg.render_threads));
    let mut st = PipeState::new(cfg, trace, pacer, faults, scratch, out);
    heap.schedule(st.first_pulse_at(), Ev::Tick(0));
    let mut processed = 0u64;
    while let Some((t, ev)) = heap.pop() {
        processed += 1;
        if st.step(t, ev, &mut |at, e| heap.schedule(at, e)) == StepOutcome::Done {
            break;
        }
    }
    let stats = CoreStats {
        events_processed: processed,
        events_scheduled: heap.total_scheduled(),
        polls: 0,
    };
    st.finish(totals);
    stats
}
