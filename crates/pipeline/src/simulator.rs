//! The discrete-event rendering-pipeline simulator.
//!
//! The pipeline semantics live in [`crate::core`]; this module is the public
//! entry point. A [`Simulator`] is configured by builders — the execution
//! engine ([`Simulator::with_core`]) and an optional injected fault plan
//! ([`Simulator::with_faults`]) — and then runs through one fallible pooled
//! call, [`Simulator::try_run_into`], which validates the trace and hands it
//! to the selected engine. [`Simulator::run`] is the one convenience
//! wrapper: a fresh arena and report, panicking on invalid input.

use dvs_faults::{FaultPlan, FaultSchedule};
use dvs_metrics::RunReport;
use dvs_sim::DvsError;
use dvs_workload::FrameTrace;

use crate::config::PipelineConfig;
use crate::core::{self, CoreStats, RunArena, SimCore};
use crate::pacer::FramePacer;

/// Replays a [`FrameTrace`] through the two-stage pipeline under a pacing
/// policy. See the [crate docs](crate) for an example.
///
/// Runs execute on the event-heap engine by default; pass
/// [`SimCore::Reference`] to [`Simulator::with_core`] to use the retained
/// tick-stepper (the differential-testing baseline). Both engines produce
/// byte-identical reports.
#[derive(Debug)]
pub struct Simulator<'c> {
    cfg: &'c PipelineConfig,
    core: SimCore,
    plan: Option<&'c FaultPlan>,
}

impl<'c> Simulator<'c> {
    /// Creates a simulator over the given configuration (event-heap engine,
    /// no injected faults).
    pub fn new(cfg: &'c PipelineConfig) -> Self {
        Simulator { cfg, core: SimCore::default(), plan: None }
    }

    /// Selects which execution engine runs the event loop.
    pub fn with_core(mut self, core: SimCore) -> Self {
        self.core = core;
        self
    }

    /// Injects `plan` into every run of this simulator (`None` runs clean).
    ///
    /// The plan resolves over each run's exact horizon (trace length × tick
    /// cap), so the fault stream is a pure function of `(plan, config,
    /// trace)` — identical inputs replay byte-identically, including every
    /// degradation transition. The event-heap engine draws per-tick faults
    /// as the run reaches them; the reference engine materializes the whole
    /// schedule up front; both see the same faults.
    pub fn with_faults(mut self, plan: Option<&'c FaultPlan>) -> Self {
        self.plan = plan;
        self
    }

    /// Runs the trace to completion (or the safety tick cap) into a fresh
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or its rate disagrees with the config.
    /// Fallible callers use [`Simulator::try_run_into`].
    pub fn run(&self, trace: &FrameTrace, pacer: &mut dyn FramePacer) -> RunReport {
        let mut out = RunReport::default();
        self.run_into(trace, pacer, &mut RunArena::new(), &mut out);
        out
    }

    /// Runs the trace into a caller-provided [`RunArena`] and output report,
    /// reusing their allocations, and returns the engine's dispatch
    /// counters (the events/sec numerators of the benchmark harness).
    ///
    /// Empty traces and rate mismatches are rejected with a typed error
    /// before anything runs. The output is byte-identical to
    /// [`Simulator::run`] — `out` is fully reset before the first event
    /// fires — but a warm arena makes the whole run allocation-free, which
    /// is what sweep grids batch-running hundreds of cells per worker thread
    /// want.
    pub fn try_run_into(
        &self,
        trace: &FrameTrace,
        pacer: &mut dyn FramePacer,
        arena: &mut RunArena,
        out: &mut RunReport,
    ) -> Result<CoreStats, DvsError> {
        self.validate(trace)?;
        Ok(match self.core {
            SimCore::EventHeap => {
                core::event_heap::execute(self.cfg, trace, pacer, self.plan, arena, out)
            }
            SimCore::Reference => {
                let schedule = self.plan.map_or_else(FaultSchedule::default, |p| {
                    p.materialize(&self.cfg.fault_horizon(trace.len()))
                });
                core::reference::execute(self.cfg, trace, pacer, schedule, arena, out)
            }
        })
    }

    /// [`Simulator::try_run_into`] for crate callers whose traces are valid
    /// by construction or whose public contract is to panic.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Simulator::run`].
    pub(crate) fn run_into(
        &self,
        trace: &FrameTrace,
        pacer: &mut dyn FramePacer,
        arena: &mut RunArena,
        out: &mut RunReport,
    ) {
        if let Err(e) = self.try_run_into(trace, pacer, arena, out) {
            // dvs-lint: allow(panic, reason = "documented panicking wrapper; fallible callers use try_run_into")
            panic!("{e}");
        }
    }

    /// Rejects an empty trace or one recorded at another rate.
    pub(crate) fn validate(&self, trace: &FrameTrace) -> Result<(), DvsError> {
        if trace.is_empty() {
            return Err(DvsError::EmptyTrace);
        }
        if trace.rate_hz != self.cfg.rate_hz {
            return Err(DvsError::RateMismatch {
                trace_hz: trace.rate_hz,
                config_hz: self.cfg.rate_hz,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacer::VsyncPacer;
    use dvs_metrics::{FaultClass, FrameKind};
    use dvs_sim::SimDuration;
    use dvs_workload::{CostProfile, FrameCost, ScenarioSpec};

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    /// A hand-built trace: `costs` are (ui, rs) in milliseconds.
    fn trace_of(rate: u32, costs: &[(f64, f64)]) -> FrameTrace {
        let mut t = FrameTrace::new("hand", rate);
        for &(ui, rs) in costs {
            t.push(FrameCost::new(ms(ui), ms(rs)));
        }
        t
    }

    fn run_vsync(trace: &FrameTrace, buffers: usize) -> RunReport {
        let cfg = PipelineConfig::new(trace.rate_hz, buffers);
        Simulator::new(&cfg).run(trace, &mut VsyncPacer::new())
    }

    #[test]
    fn smooth_trace_never_janks() {
        let trace = trace_of(60, &[(2.0, 5.0); 100]);
        let report = run_vsync(&trace, 3);
        assert_eq!(report.janks.len(), 0);
        assert_eq!(report.records.len(), 100);
        assert!(!report.truncated);
    }

    #[test]
    fn smooth_trace_latency_is_two_periods() {
        let trace = trace_of(60, &[(2.0, 5.0); 100]);
        let report = run_vsync(&trace, 3);
        // Every frame: triggered at tick k, latched at k+1, shown at k+2.
        let p = 1000.0 / 60.0;
        for r in &report.records {
            assert!(
                (r.latency().as_millis_f64() - 2.0 * p).abs() < 0.1,
                "frame {} latency {}",
                r.seq,
                r.latency()
            );
            assert_eq!(r.kind, FrameKind::Direct);
        }
        assert!((report.mean_latency_ms() - 2.0 * p).abs() < 0.1);
    }

    #[test]
    fn one_long_frame_janks_once_and_stuffs_followers() {
        let mut costs = vec![(2.0, 5.0); 40];
        costs[20] = (2.0, 24.0); // total ~26 ms > 16.7 ms period
        let trace = trace_of(60, &costs);
        let report = run_vsync(&trace, 3);
        assert_eq!(report.janks.len(), 1, "a single isolated long frame = one jank");
        // The long frame itself is classified as dropped.
        let long = report.records.iter().find(|r| r.seq == 20).unwrap();
        assert_eq!(long.kind, FrameKind::Dropped);
        // Followers wait in the queue: buffer stuffing with 3-period latency.
        let p = 1000.0 / 60.0;
        let follower = report.records.iter().find(|r| r.seq == 25).unwrap();
        assert_eq!(follower.kind, FrameKind::Stuffed);
        assert!(
            (follower.latency().as_millis_f64() - 3.0 * p).abs() < 0.1,
            "follower latency {}",
            follower.latency()
        );
    }

    #[test]
    fn very_long_frame_janks_multiple_times() {
        let mut costs = vec![(2.0, 5.0); 40];
        costs[20] = (2.0, 50.0); // ~52 ms total ≈ 3.1 periods
        let trace = trace_of(60, &costs);
        let report = run_vsync(&trace, 3);
        assert!(
            report.janks.len() >= 2,
            "a 3-period frame should jank repeatedly, got {}",
            report.janks.len()
        );
    }

    #[test]
    fn sustained_moderate_load_pipelines_without_janks() {
        // ui+rs = 1.2 periods but each stage under one period: the two-stage
        // pipeline sustains it at full rate, at the cost of a deeper pipeline
        // (the "triple buffering saves it" case of Fig 1).
        let trace = trace_of(60, &[(6.0, 14.0); 100]);
        let report = run_vsync(&trace, 3);
        assert_eq!(report.janks.len(), 0);
        // Deep pipeline: latency settles at ~3 periods instead of 2.
        let late = report.records.iter().find(|r| r.seq == 50).unwrap();
        assert!(late.latency().as_millis_f64() > 2.4 * 16.7, "{}", late.latency());
    }

    #[test]
    fn each_isolated_long_frame_janks_under_triple_buffering() {
        // VSync's production is locked to the display cadence, so it can
        // never build up slack: every isolated long frame janks again. This
        // is §3.4's core observation and what D-VSync exists to fix.
        let mut costs = vec![(2.0, 5.0); 60];
        costs[20] = (2.0, 24.0);
        costs[40] = (2.0, 24.0);
        let trace = trace_of(60, &costs);
        let report = run_vsync(&trace, 3);
        assert_eq!(report.janks.len(), 2, "no slack accrues between long frames");
    }

    #[test]
    fn all_frames_present_in_fifo_order() {
        let spec = ScenarioSpec::new("order", 60, 300, CostProfile::scattered(3.0));
        let trace = spec.generate();
        let report = run_vsync(&trace, 3);
        assert_eq!(report.records.len(), 300);
        let mut ticks: Vec<u64> = report.records.iter().map(|r| r.present_tick).collect();
        let sorted = {
            let mut t = ticks.clone();
            t.sort();
            t
        };
        assert_eq!(ticks, sorted, "presents are tick-ordered by seq");
        ticks.dedup();
        assert_eq!(ticks.len(), 300, "no two frames share a refresh");
    }

    #[test]
    fn display_time_covers_presented_span() {
        let trace = trace_of(120, &[(1.0, 3.0); 240]);
        let report = run_vsync(&trace, 4);
        // 240 frames at 120 Hz ≈ 2 s of display time.
        assert!((report.display_time.as_secs_f64() - 2.0).abs() < 0.05);
        assert_eq!(report.ticks_active, 240);
    }

    #[test]
    fn truncation_reported_when_capped() {
        let trace = trace_of(60, &[(2.0, 5.0); 100]);
        let cfg = PipelineConfig { max_ticks: Some(10), ..PipelineConfig::new(60, 3) };
        let report = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
        assert!(report.truncated);
        assert!(report.records.len() < 100);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let trace = FrameTrace::new("empty", 60);
        let cfg = PipelineConfig::new(60, 3);
        Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn rate_mismatch_panics() {
        let trace = trace_of(60, &[(1.0, 2.0)]);
        let cfg = PipelineConfig::new(120, 3);
        Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
    }

    #[test]
    fn parallel_rendering_sustains_render_bound_loads() {
        // Every frame's render stage takes 1.35 periods: a single render
        // thread caps throughput at ~0.74 frames per refresh (janks
        // everywhere), while two contexts sustain the full rate — the reason
        // OpenHarmony keeps an extra back buffer (§2).
        let trace = trace_of(60, &[(2.0, 22.5); 90]);
        let single = run_vsync(&trace, 4);
        let cfg = PipelineConfig::new(60, 4).with_render_threads(2);
        let parallel = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
        assert!(
            single.janks.len() > 20,
            "single-threaded RS must fall behind: {} janks",
            single.janks.len()
        );
        assert!(
            parallel.janks.len() <= 1,
            "two contexts sustain the cadence: {} janks",
            parallel.janks.len()
        );
    }

    #[test]
    fn parallel_rendering_queues_in_frame_order() {
        // Alternating long/short render stages on two contexts: the short
        // successor finishes first but must queue after its predecessor.
        let costs: Vec<(f64, f64)> =
            (0..60).map(|i| (1.0, if i % 2 == 0 { 14.0 } else { 3.0 })).collect();
        let trace = trace_of(60, &costs);
        let cfg = PipelineConfig::new(60, 5).with_render_threads(2);
        let report = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
        assert_eq!(report.records.len(), 60);
        for w in report.records.windows(2) {
            assert!(w[0].queued_at <= w[1].queued_at, "queue order inverted");
            assert!(w[0].present_tick < w[1].present_tick);
        }
    }

    #[test]
    #[should_panic(expected = "at least one render thread")]
    fn zero_render_threads_rejected() {
        let _ = PipelineConfig::new(60, 3).with_render_threads(0);
    }

    #[test]
    fn rs_signal_alignment_keeps_two_period_latency_for_short_frames() {
        // OpenHarmony-style: the render service wakes at VSync-rs (tick +
        // 5 ms). Short frames still make the classic two-period pipeline.
        let trace = trace_of(60, &[(2.0, 4.0); 60]);
        let cfg = PipelineConfig::new(60, 4).with_rs_signal(ms(5.0));
        let report = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
        assert_eq!(report.janks.len(), 0);
        let p = 1000.0 / 60.0;
        let steady: Vec<_> = report.records.iter().filter(|r| r.seq > 5).collect();
        for r in steady {
            assert!(
                (r.latency().as_millis_f64() - 2.0 * p).abs() < 0.2,
                "frame {}: {}",
                r.seq,
                r.latency()
            );
        }
    }

    #[test]
    fn rs_signal_alignment_punishes_ui_overruns() {
        // A UI stage that slips past the VSync-rs signal forfeits the whole
        // period: signal-aligned dispatch is less forgiving than immediate
        // hand-off — the brittleness D-VSync's own event posting removes.
        let mut costs = vec![(2.0, 4.0); 60];
        costs[30] = (12.0, 4.0); // UI 12 ms > the 5 ms rs-signal offset
        let trace = trace_of(60, &costs);
        let aligned_cfg = PipelineConfig::new(60, 4).with_rs_signal(ms(5.0));
        let aligned = Simulator::new(&aligned_cfg).run(&trace, &mut VsyncPacer::new());
        let immediate_cfg = PipelineConfig::new(60, 4);
        let immediate = Simulator::new(&immediate_cfg).run(&trace, &mut VsyncPacer::new());
        assert!(
            aligned.janks.len() > immediate.janks.len(),
            "aligned {} vs immediate {}",
            aligned.janks.len(),
            immediate.janks.len()
        );
    }

    #[test]
    fn app_offset_shifts_trigger_basis() {
        let trace = trace_of(60, &[(2.0, 4.0); 30]);
        let cfg = PipelineConfig::new(60, 3);
        let mut pacer = VsyncPacer::new().with_app_offset(ms(3.0));
        let report = Simulator::new(&cfg).run(&trace, &mut pacer);
        let p_ns = 1_000_000_000u64 / 60;
        for r in report.records.iter().filter(|r| r.seq > 2) {
            let into_period = r.basis.as_nanos() % p_ns;
            // Within a few ns of 3 ms past the tick (period rounding).
            assert!(
                (into_period as i64 - 3_000_000).abs() < 100,
                "frame {} basis {} ({into_period} ns into period)",
                r.seq,
                r.basis
            );
        }
    }

    #[test]
    fn try_run_returns_typed_errors() {
        let cfg = PipelineConfig::new(60, 3);
        let sim = Simulator::new(&cfg);
        let try_run = |trace: &FrameTrace| {
            let mut out = RunReport::default();
            sim.try_run_into(trace, &mut VsyncPacer::new(), &mut RunArena::new(), &mut out)
        };
        assert_eq!(try_run(&FrameTrace::new("empty", 60)).unwrap_err(), DvsError::EmptyTrace);
        assert_eq!(
            try_run(&trace_of(120, &[(1.0, 2.0)])).unwrap_err(),
            DvsError::RateMismatch { trace_hz: 120, config_hz: 60 }
        );
    }

    #[test]
    fn clean_fault_plan_matches_plain_run() {
        let trace = trace_of(60, &[(2.0, 5.0); 60]);
        let cfg = PipelineConfig::new(60, 3);
        let plain = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
        let clean = FaultPlan::new("k");
        let faulted =
            Simulator::new(&cfg).with_faults(Some(&clean)).run(&trace, &mut VsyncPacer::new());
        assert_eq!(plain.records, faulted.records);
        assert_eq!(plain.janks, faulted.janks);
        assert!(faulted.fault_events.is_empty());
    }

    #[test]
    fn missed_vsync_janks_and_is_logged() {
        let trace = trace_of(60, &[(2.0, 5.0); 40]);
        let cfg = PipelineConfig::new(60, 3);
        let plan =
            FaultPlan::new("miss").with_event(dvs_faults::FaultEvent::MissVsync { tick: 10 });
        let report =
            Simulator::new(&cfg).with_faults(Some(&plan)).run(&trace, &mut VsyncPacer::new());
        assert!(report.janks.iter().any(|j| j.tick == 10), "swallowed pulse shows as a jank");
        assert!(report
            .fault_events
            .iter()
            .any(|f| f.tick == 10 && f.class == FaultClass::VsyncMiss));
        assert!(!report.truncated);
        assert_eq!(report.records.len(), 40, "all frames still present eventually");
    }

    #[test]
    fn rs_stall_injection_janks_like_a_long_frame() {
        let trace = trace_of(60, &[(2.0, 5.0); 40]);
        let cfg = PipelineConfig::new(60, 3);
        let plan = FaultPlan::new("stall").with_event(dvs_faults::FaultEvent::StallRs {
            frame: 20,
            extra: SimDuration::from_millis(19),
        });
        let report =
            Simulator::new(&cfg).with_faults(Some(&plan)).run(&trace, &mut VsyncPacer::new());
        // 5 + 19 = 24 ms render > one period: same signature as the organic
        // long-frame test above.
        assert_eq!(report.janks.len(), 1);
        assert!(report.fault_events.iter().any(|f| f.class == FaultClass::RsStall));
    }

    #[test]
    fn alloc_denial_delays_but_conserves_frames() {
        let trace = trace_of(60, &[(2.0, 5.0); 40]);
        let cfg = PipelineConfig::new(60, 3);
        let mut plan = FaultPlan::new("deny");
        for tick in 8..12 {
            plan = plan.with_event(dvs_faults::FaultEvent::DenyAlloc { tick });
        }
        let report =
            Simulator::new(&cfg).with_faults(Some(&plan)).run(&trace, &mut VsyncPacer::new());
        assert!(!report.truncated, "denial must not wedge the run");
        assert_eq!(report.records.len(), 40, "every frame still presents");
        assert!(report.fault_events.iter().any(|f| f.class == FaultClass::AllocDenied));
    }

    #[test]
    fn faulted_runs_replay_byte_identically() {
        let spec = ScenarioSpec::new("replay", 60, 200, CostProfile::scattered(3.0));
        let trace = spec.generate();
        let cfg = PipelineConfig::new(60, 4);
        let plan = dvs_faults::named_profile("mixed", "replay-seed").unwrap();
        let sim = Simulator::new(&cfg).with_faults(Some(&plan));
        let a = sim.run(&trace, &mut VsyncPacer::new());
        let b = sim.run(&trace, &mut VsyncPacer::new());
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "identical plan + seed must replay byte-identically");
        assert!(!a.fault_events.is_empty(), "the mixed profile injects something in 200 frames");
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = ScenarioSpec::new("det", 90, 500, CostProfile::scattered(4.0));
        let trace = spec.generate();
        let a = run_vsync(&trace, 4);
        let b = run_vsync(&trace, 4);
        assert_eq!(a.janks.len(), b.janks.len());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn works_at_all_paper_rates() {
        for rate in [60u32, 90, 120] {
            let spec = ScenarioSpec::new("r", rate, 200, CostProfile::scattered(2.0));
            let mut spec = spec;
            spec.rate_hz = rate;
            let trace = spec.generate();
            let report = run_vsync(&trace, 4);
            assert_eq!(report.rate_hz, rate);
            assert!(!report.records.is_empty());
        }
    }

    #[test]
    fn reference_core_matches_event_heap_exactly() {
        let spec = ScenarioSpec::new("cores", 60, 300, CostProfile::scattered(3.0));
        let trace = spec.generate();
        let cfg = PipelineConfig::new(60, 4);
        let heap = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
        let reference =
            Simulator::new(&cfg).with_core(SimCore::Reference).run(&trace, &mut VsyncPacer::new());
        assert_eq!(
            serde_json::to_string(&heap).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "engines must be byte-identical"
        );
    }

    #[test]
    fn pooled_run_into_matches_fresh_runs_across_arena_reuse() {
        // One arena reused across different traces, both engines, and
        // alternating faulted and clean runs must reproduce every fresh-run
        // report byte for byte: a fault table one run leaves in the arena
        // never reaches the next clean run.
        let cfg = PipelineConfig::new(60, 3);
        let mixed = dvs_faults::named_profile("mixed", "pool-seed").unwrap();
        let mut arena = RunArena::new();
        let mut out = RunReport::default();
        let traces = [
            trace_of(60, &[(2.0, 5.0); 80]),
            trace_of(60, &[(2.0, 24.0); 30]),
            ScenarioSpec::new("pool", 60, 200, CostProfile::scattered(3.0)).generate(),
        ];
        for core in [SimCore::EventHeap, SimCore::Reference] {
            for trace in &traces {
                for plan in [Some(&mixed), None] {
                    let sim = Simulator::new(&cfg).with_core(core).with_faults(plan);
                    let fresh = sim.run(trace, &mut VsyncPacer::new());
                    sim.try_run_into(trace, &mut VsyncPacer::new(), &mut arena, &mut out).unwrap();
                    assert_eq!(
                        plan.is_some(),
                        !out.fault_events.is_empty(),
                        "the profile fires on every trace ({core:?}, {})",
                        trace.name
                    );
                    assert_eq!(
                        serde_json::to_string(&fresh).unwrap(),
                        serde_json::to_string(&out).unwrap(),
                        "pooled run diverged from fresh run ({core:?}, {}, faulted: {})",
                        trace.name,
                        plan.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn instrumented_run_reports_engine_counters() {
        let trace = trace_of(60, &[(2.0, 5.0); 50]);
        let cfg = PipelineConfig::new(60, 3);
        let stats = |core| {
            let mut out = RunReport::default();
            Simulator::new(&cfg)
                .with_core(core)
                .try_run_into(&trace, &mut VsyncPacer::new(), &mut RunArena::new(), &mut out)
                .unwrap()
        };
        let (heap_stats, ref_stats) = (stats(SimCore::EventHeap), stats(SimCore::Reference));
        assert_eq!(heap_stats.polls, 0, "the heap never polls");
        assert_eq!(heap_stats.events_processed, ref_stats.events_processed);
        assert_eq!(heap_stats.events_scheduled, ref_stats.events_scheduled);
        assert!(
            ref_stats.polls > 10 * ref_stats.events_processed,
            "the tick-stepper pays per-quantum polling overhead: {} polls for {} events",
            ref_stats.polls,
            ref_stats.events_processed
        );
    }
}
