//! The struct-of-arrays batch kernel: K homogeneous runs in lockstep.
//!
//! Fleet-scale sweeps run millions of short, independent device simulations.
//! Driving each one through [`crate::Simulator`] pays per-run dispatch
//! overhead — pacer boxing, validation, state-machine setup and teardown —
//! that is pure fixed cost at this scale. The batch kernel keeps K lane
//! states resident (state machines, event heaps, pacers — parallel arrays of
//! lane state, stepped together) and marches one shared *time frontier*
//! across all of them: each pass lets every live lane drain exactly the
//! events due in the current window. Pacers are monomorphized (`P:
//! FramePacer` instead of a boxed trait object per run), and lane arenas are
//! reused batch after batch, so the steady state stays allocation-free.
//!
//! **Homogeneity contract:** every lane in one batch shares the same
//! [`PipelineConfig`] (rate, buffer depth, watchdog, render threads) and the
//! same pacer *type*. Traces, fault plans, and trace lengths may differ per
//! lane — a lane that finishes early simply drops out of the frontier march.
//!
//! **Byte-identity contract:** each lane owns a private event heap and its
//! `step` only schedules into that heap, so the per-lane pop sequence is
//! exactly the solo [`super::event_heap`] sequence no matter how the
//! frontier slices time. The differential wall
//! (`tests/fleet_differential.rs`) pins batched reports byte-identical to
//! per-device [`crate::Simulator`] runs for K ∈ {1, 2, 7, 64}, clean and
//! faulted.

use dvs_faults::{CompiledFaults, FaultPlan};
use dvs_metrics::RunReport;
use dvs_sim::{DvsError, SimTime};
use dvs_workload::FrameTrace;

use super::event_heap::heap_capacity;
use super::{CoreStats, Ev, PipeState, RunArena, StepOutcome};
use crate::config::PipelineConfig;
use crate::pacer::FramePacer;

/// One device's slot in a batch: its inputs plus pooled run state that
/// survives from batch to batch.
pub struct BatchLane<P: FramePacer> {
    /// The lane's frame trace for this batch.
    pub trace: FrameTrace,
    /// Optional fault plan, resolved over the lane's own horizon exactly
    /// like [`crate::Simulator::try_run_faulted_into`].
    pub plan: Option<FaultPlan>,
    /// The lane's pacer. Fresh per run (pacing state must not leak across
    /// devices); monomorphized so batches skip the per-run boxed pacer.
    pub pacer: P,
    /// Pooled run-state buffers and fault tables, reused across successive
    /// batches.
    pub arena: RunArena,
    /// The lane's output report (fully reset before each run).
    pub out: RunReport,
}

impl<P: FramePacer> BatchLane<P> {
    /// A lane with cold buffers; the first run grows them to the working
    /// set and later [`BatchLane::reload`]s reuse them.
    pub fn new(trace: FrameTrace, plan: Option<FaultPlan>, pacer: P) -> Self {
        BatchLane { trace, plan, pacer, arena: RunArena::new(), out: RunReport::default() }
    }

    /// Re-arms the lane for the next batch, keeping the warm arena and
    /// report allocations.
    pub fn reload(&mut self, trace: FrameTrace, plan: Option<FaultPlan>, pacer: P) {
        self.trace = trace;
        self.plan = plan;
        self.pacer = pacer;
    }
}

/// One live lane mid-flight: the state machine plus its private heap.
struct Live<'a> {
    st: PipeState<'a, &'a mut CompiledFaults>,
    heap: &'a mut dvs_sim::EventQueue<Ev>,
    done: bool,
}

/// Runs every lane to completion in lockstep, writing each lane's report
/// into its `out` slot. Returns the summed dispatch counters.
///
/// Validation matches [`crate::Simulator`]: empty traces and rate
/// mismatches are rejected up front (before any lane starts), so a failed
/// batch has no partial side effects beyond reset reports.
pub fn run_batch<P: FramePacer>(
    cfg: &PipelineConfig,
    lanes: &mut [BatchLane<P>],
) -> Result<CoreStats, DvsError> {
    for lane in lanes.iter_mut() {
        if lane.trace.is_empty() {
            return Err(DvsError::EmptyTrace);
        }
        if lane.trace.rate_hz != cfg.rate_hz {
            return Err(DvsError::RateMismatch {
                trace_hz: lane.trace.rate_hz,
                config_hz: cfg.rate_hz,
            });
        }
    }

    // Lane setup mirrors `event_heap::execute` line for line: reload the
    // pooled fault tables from the plan → reset + pre-size the pooled heap →
    // seed Tick(0). The one live-lane vector is per batch of K runs, not per
    // event.
    let mut live: Vec<Live<'_>> = Vec::with_capacity(lanes.len());
    for lane in lanes.iter_mut() {
        let (scratch, heap, faults) = lane.arena.split();
        faults.reload(lane.plan.as_ref(), &cfg.fault_horizon(lane.trace.len()));
        heap.reset();
        heap.reserve(heap_capacity(cfg.render_threads));
        let st = PipeState::new(cfg, &lane.trace, &mut lane.pacer, faults, scratch, &mut lane.out);
        heap.schedule(st.first_pulse_at(), Ev::Tick(0));
        live.push(Live { st, heap, done: false });
    }

    // The lockstep frontier march. Every pass advances a shared deadline by
    // one VSync period and lets each live lane drain all events due at or
    // before it — including events a step just scheduled inside the window,
    // so the per-lane pop order is exactly the solo order.
    let stride = cfg.rate().period();
    let mut frontier = SimTime::ZERO + stride;
    let mut processed = 0u64;
    let mut remaining = live.len();
    while remaining > 0 {
        for lane in live.iter_mut() {
            if lane.done {
                continue;
            }
            loop {
                match lane.heap.peek_time() {
                    Some(t) if t <= frontier => {}
                    Some(_) => break,
                    None => {
                        // Heap drained without a Done: the solo loop exits
                        // here too and finishes the run.
                        lane.done = true;
                        remaining -= 1;
                        break;
                    }
                }
                if let Some((t, ev)) = lane.heap.pop() {
                    processed += 1;
                    let heap = &mut *lane.heap;
                    if lane.st.step(t, ev, &mut |at, e| heap.schedule(at, e)) == StepOutcome::Done {
                        lane.done = true;
                        remaining -= 1;
                        break;
                    }
                }
            }
        }
        frontier += stride;
    }

    let mut scheduled = 0u64;
    for lane in live {
        scheduled += lane.heap.total_scheduled();
        lane.st.finish();
    }
    Ok(CoreStats { events_processed: processed, events_scheduled: scheduled, polls: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacer::VsyncPacer;
    use crate::simulator::Simulator;
    use dvs_faults::named_profile;
    use dvs_workload::{CostProfile, ScenarioSpec};

    fn trace_of(name: &str, rate: u32, frames: usize, long_rate: f64) -> FrameTrace {
        ScenarioSpec::new(name, rate, frames, CostProfile::scattered(long_rate)).generate()
    }

    fn json(report: &RunReport) -> String {
        serde_json::to_string(report).expect("reports serialize")
    }

    #[test]
    fn batched_lanes_match_solo_runs_byte_for_byte() {
        let cfg = PipelineConfig::new(60, 4);
        let mut lanes: Vec<BatchLane<VsyncPacer>> = (0..7)
            .map(|i| {
                let trace = trace_of(&format!("lane{i}"), 60, 40 + 9 * i, 1.0 + i as f64);
                let plan = (i % 3 == 1)
                    .then(|| named_profile("gpu-spikes", format!("batch/{i}")))
                    .flatten();
                BatchLane::new(trace, plan, VsyncPacer::new())
            })
            .collect();
        run_batch(&cfg, &mut lanes).expect("batch runs");

        let sim = Simulator::new(&cfg);
        for lane in &lanes {
            let mut pacer = VsyncPacer::new();
            let solo = match &lane.plan {
                Some(plan) => sim.run_faulted(&lane.trace, &mut pacer, plan).expect("solo"),
                None => sim.try_run(&lane.trace, &mut pacer).expect("solo"),
            };
            assert_eq!(json(&lane.out), json(&solo), "lane {} diverged", lane.trace.name);
        }
    }

    #[test]
    fn reloaded_lanes_stay_identical_across_batches() {
        let cfg = PipelineConfig::new(60, 4);
        let first = trace_of("warmup", 60, 80, 3.0);
        let second = trace_of("reuse", 60, 50, 1.5);
        let mut lanes = vec![BatchLane::new(first, None, VsyncPacer::new())];
        run_batch(&cfg, &mut lanes).expect("warm batch");
        lanes[0].reload(second.clone(), None, VsyncPacer::new());
        run_batch(&cfg, &mut lanes).expect("reused batch");

        let mut fresh = vec![BatchLane::new(second, None, VsyncPacer::new())];
        run_batch(&cfg, &mut fresh).expect("fresh batch");
        assert_eq!(json(&lanes[0].out), json(&fresh[0].out), "warm arena changed the bytes");
    }

    #[test]
    fn batch_rejects_rate_mismatch_before_running() {
        let cfg = PipelineConfig::new(60, 4);
        let mut lanes = vec![
            BatchLane::new(trace_of("ok", 60, 10, 1.0), None, VsyncPacer::new()),
            BatchLane::new(trace_of("bad", 90, 10, 1.0), None, VsyncPacer::new()),
        ];
        assert!(run_batch(&cfg, &mut lanes).is_err());
    }
}
