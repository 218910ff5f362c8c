//! K homogeneous runs over a pooled lane set, each into its own report.
//!
//! A [`BatchLane`] holds one device's trace, fault plan and pacer next to a
//! [`RunArena`] and report that survive from batch to batch. [`run_batch`]
//! validates every lane, then runs each lane to completion through
//! [`super::event_heap::execute`], the same path a solo
//! [`crate::Simulator`] run takes.
//!
//! The fleet runner no longer uses it: a shard runs every device through
//! its worker's one arena and folds it into totals
//! ([`crate::Simulator::try_tally_into`]), which needs one arena where a
//! lane pool kept 64. [`run_batch`] now serves the repository benchmark's
//! traced fleet copy, which still buckets devices into lanes, and the
//! differential wall that pins those lanes to solo runs.
//!
//! **Homogeneity contract:** every lane in one batch shares the same
//! [`PipelineConfig`] (rate, buffer depth, watchdog, render threads) and the
//! same pacer *type*. Traces, fault plans, and trace lengths may differ per
//! lane. Pacers are stored by value so reloading a lane needs no box; the
//! event loop still calls them through `&mut dyn FramePacer`.
//!
//! **Byte-identity contract:** each lane owns its arena (event queue, fault
//! tables, scratch) and report, so a batched report is exactly the solo
//! report. The differential wall (`tests/fleet_differential.rs`) pins
//! batched reports byte-identical to per-device [`crate::Simulator`] runs
//! for K ∈ {1, 2, 7, 64}, clean and faulted.

use dvs_faults::FaultPlan;
use dvs_metrics::RunReport;
use dvs_sim::DvsError;
use dvs_workload::FrameTrace;

use super::event_heap::execute;
use super::{CoreStats, RunArena};
use crate::config::PipelineConfig;
use crate::pacer::FramePacer;
use crate::simulator::Simulator;

/// One device's slot in a batch: its inputs plus pooled run state that
/// survives from batch to batch.
pub struct BatchLane<P: FramePacer> {
    /// The lane's frame trace for this batch.
    pub trace: FrameTrace,
    /// Optional fault plan, resolved over the lane's own horizon exactly
    /// like a plan attached with [`crate::Simulator::with_faults`].
    pub plan: Option<FaultPlan>,
    /// The lane's pacer. Fresh per run (pacing state must not leak across
    /// devices); stored by value so a reload needs no boxed pacer.
    pub pacer: P,
    /// Pooled run-state buffers and fault tables, reused across successive
    /// batches.
    pub arena: RunArena,
    /// The lane's output report (fully reset before each [`run_batch`]).
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

/// Runs every lane to completion, writing each lane's report into its `out`
/// slot. Returns the summed dispatch counters.
///
/// Validation matches [`crate::Simulator`]: empty traces and rate
/// mismatches are rejected before any lane runs, so a failed batch leaves
/// every lane untouched.
pub fn run_batch<P: FramePacer>(
    cfg: &PipelineConfig,
    lanes: &mut [BatchLane<P>],
) -> Result<CoreStats, DvsError> {
    // Qualified so dvs-lint's call graph resolves it to this one function.
    let sim = Simulator::new(cfg);
    for lane in lanes.iter() {
        Simulator::validate(&sim, &lane.trace)?;
    }
    let mut total = CoreStats::default();
    for lane in lanes.iter_mut() {
        let (trace, pacer, plan) = (&lane.trace, &mut lane.pacer, lane.plan.as_ref());
        let stats = execute(cfg, trace, pacer, plan, &mut lane.arena, &mut lane.out, None);
        total.events_processed += stats.events_processed;
        total.events_scheduled += stats.events_scheduled;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacer::VsyncPacer;
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

        for lane in &lanes {
            let solo = Simulator::new(&cfg)
                .with_faults(lane.plan.as_ref())
                .run(&lane.trace, &mut VsyncPacer::new());
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
