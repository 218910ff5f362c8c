//! The public multi-surface composite runner.
//!
//! [`CompositeSim`] drives M producer pipelines ("surfaces") into one shared
//! panel: per-surface buffer queues, a deterministic composition step at
//! each panel VSync, and a compose budget that rations latches between
//! contending surfaces in priority order. The state machine lives in
//! [`crate::core`]'s `compose` module; this module is the validation /
//! fault-materialization entry point, mirroring [`crate::Simulator`] for
//! the single-pipeline path.

use dvs_faults::{FaultPlan, FaultSchedule, Horizon};
use dvs_metrics::RunReport;
use dvs_sim::DvsError;
use dvs_workload::FrameTrace;

use crate::config::PipelineConfig;
use crate::core::compose::{self, SurfaceInput};
use crate::core::{CompositeArena, CoreStats, SimCore};
use crate::pacer::FramePacer;

/// One surface's inputs to a composite run.
pub struct SurfaceRun<'a> {
    /// Per-surface pipeline knobs: buffer count, render threads, compose
    /// latch, rs-signal offset. `rate_hz` must equal the panel's; the
    /// clock-noise fields are ignored (the shared timeline is the panel's).
    pub cfg: &'a PipelineConfig,
    /// The surface's frame trace (its `rate_hz` must match `cfg`).
    pub trace: &'a FrameTrace,
    /// The surface's pacing policy (Classic VSync, D-VSync, …).
    pub pacer: &'a mut dyn FramePacer,
    /// Per-surface injected faults: stage stalls, alloc denials, and
    /// per-surface VSync callback misses. Shared tick-grid faults (pulse
    /// delays, rate switches) come from the *panel* plan — pass the same
    /// plan at both levels to reproduce single-pipeline fault semantics.
    pub plan: Option<&'a FaultPlan>,
    /// Compose priority: higher latches earlier when the budget contends;
    /// canonical order breaks ties.
    pub priority: u8,
}

/// Dispatch counters and interference tallies from one composite run.
#[derive(Clone, Debug, Default)]
pub struct CompositeStats {
    /// The engine's event-dispatch counters (shared across surfaces).
    pub core: CoreStats,
    /// Per-surface (canonical order) latches denied by the compose budget
    /// while an eligible buffer was waiting — the raw cross-surface
    /// interference signal.
    pub deferred_latches: Vec<u64>,
}

/// Drives M surfaces into one shared panel.
///
/// Two replay guarantees hold by construction and are pinned by the
/// repo-level test walls:
///
/// * an M=1 run with the same schedule at the surface and panel levels is
///   **byte-identical** to the single-pipeline [`crate::Simulator`] run
///   (`tests/compositor_differential.rs`);
/// * M>1 runs replay byte-identically from the same inputs on both
///   execution engines, regardless of sweep parallelism
///   (`tests/proptest_compositor.rs`).
///
/// Callers pass surfaces in **canonical order** — the order fixes the event
/// insertion sequence and the order of `outs`. The `dvs-compositor` crate
/// sorts surfaces by name before calling in, which is what makes its
/// reports independent of registration order.
///
/// # Examples
///
/// ```
/// use dvs_pipeline::{CompositeSim, PipelineConfig, SurfaceRun, VsyncPacer};
/// use dvs_workload::{CostProfile, ScenarioSpec};
///
/// let app = ScenarioSpec::new("app", 120, 240, CostProfile::scattered(2.0)).generate();
/// let video = ScenarioSpec::new("video", 120, 240, CostProfile::smooth()).generate();
/// let cfg = PipelineConfig::new(120, 3);
/// let (mut p0, mut p1) = (VsyncPacer::new(), VsyncPacer::new());
/// let mut surfaces = [
///     SurfaceRun { cfg: &cfg, trace: &app, pacer: &mut p0, plan: None, priority: 1 },
///     SurfaceRun { cfg: &cfg, trace: &video, pacer: &mut p1, plan: None, priority: 0 },
/// ];
/// let panel = PipelineConfig::new(120, 3);
/// let (reports, stats) = CompositeSim::new(&panel)
///     .try_run(&mut surfaces, None)
///     .expect("valid surfaces");
/// assert_eq!(reports.len(), 2);
/// assert_eq!(stats.deferred_latches, vec![0, 0], "unbounded budget never defers");
/// ```
#[derive(Debug)]
pub struct CompositeSim<'c> {
    panel: &'c PipelineConfig,
    compose_budget: Option<usize>,
    core: SimCore,
}

impl<'c> CompositeSim<'c> {
    /// Creates a composite runner over the shared panel configuration
    /// (event-heap engine, unbounded compose budget).
    ///
    /// The panel configuration owns the shared timeline (rate, drift,
    /// jitter) and the safety tick cap; its buffer/latch fields are unused —
    /// those are per-surface concerns.
    pub fn new(panel: &'c PipelineConfig) -> Self {
        CompositeSim { panel, compose_budget: None, core: SimCore::default() }
    }

    /// Selects which execution engine runs the event loop.
    pub fn with_core(mut self, core: SimCore) -> Self {
        self.core = core;
        self
    }

    /// Caps how many surfaces may latch per panel VSync (the compositor's
    /// per-refresh composition time budget). Surfaces beyond the budget
    /// keep their buffers queued and are counted as deferred when one was
    /// eligible. Must be at least 1.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.compose_budget = Some(budget);
        self
    }

    /// Runs the composite to completion, allocating fresh reports.
    ///
    /// Reports come back in the surfaces' (canonical) order. See
    /// [`CompositeSim::try_run_into`] for the pooled variant.
    pub fn try_run(
        &self,
        surfaces: &mut [SurfaceRun<'_>],
        panel_plan: Option<&FaultPlan>,
    ) -> Result<(Vec<RunReport>, CompositeStats), DvsError> {
        let mut arena = CompositeArena::new();
        let mut outs = vec![RunReport::default(); surfaces.len()];
        let stats = self.try_run_into(surfaces, panel_plan, &mut arena, &mut outs)?;
        Ok((outs, stats))
    }

    /// Pooled composite run: writes per-surface reports into `outs`
    /// (canonical order) reusing the arena's buffers. Byte-identical to
    /// [`CompositeSim::try_run`] — every pooled buffer is reset before the
    /// first event fires.
    pub fn try_run_into(
        &self,
        surfaces: &mut [SurfaceRun<'_>],
        panel_plan: Option<&FaultPlan>,
        arena: &mut CompositeArena,
        outs: &mut [RunReport],
    ) -> Result<CompositeStats, DvsError> {
        self.validate(surfaces, outs)?;
        let budget = match self.compose_budget {
            None => usize::MAX,
            Some(0) => {
                return Err(DvsError::InvalidConfig("compose_budget must be at least 1".into()))
            }
            Some(b) => b,
        };
        // Each surface's plan materializes over its own horizon — exactly
        // the horizon the single-pipeline path would use, which is what
        // keeps M=1 fault streams identical.
        let tick_cap = surfaces.iter().map(|s| s.cfg.tick_cap(s.trace.len())).max().unwrap_or(0);
        let max_frames = surfaces.iter().map(|s| s.trace.len() as u64).max().unwrap_or(0);
        let panel_schedule = match panel_plan {
            None => FaultSchedule::default(),
            Some(p) => {
                p.materialize(&Horizon::new(max_frames, tick_cap, self.panel.rate().period()))
            }
        };
        let inputs: Vec<SurfaceInput<'_>> = surfaces
            .iter_mut()
            .map(|s| {
                let schedule = match s.plan {
                    None => FaultSchedule::default(),
                    Some(p) => p.materialize(&Horizon::new(
                        s.trace.len() as u64,
                        s.cfg.tick_cap(s.trace.len()),
                        s.cfg.rate().period(),
                    )),
                };
                SurfaceInput {
                    cfg: s.cfg,
                    trace: s.trace,
                    pacer: &mut *s.pacer,
                    schedule,
                    priority: s.priority,
                }
            })
            .collect();
        let (core_stats, deferred) =
            compose::execute(self.core, self.panel, budget, &panel_schedule, inputs, arena, outs);
        Ok(CompositeStats { core: core_stats, deferred_latches: deferred })
    }

    fn validate(&self, surfaces: &[SurfaceRun<'_>], outs: &[RunReport]) -> Result<(), DvsError> {
        if surfaces.is_empty() {
            return Err(DvsError::EmptyComposite);
        }
        if outs.len() != surfaces.len() {
            return Err(DvsError::InvalidConfig(format!(
                "composite outputs ({}) must match surfaces ({})",
                outs.len(),
                surfaces.len()
            )));
        }
        for s in surfaces {
            if s.trace.is_empty() {
                return Err(DvsError::EmptyTrace);
            }
            if s.trace.rate_hz != s.cfg.rate_hz {
                return Err(DvsError::RateMismatch {
                    trace_hz: s.trace.rate_hz,
                    config_hz: s.cfg.rate_hz,
                });
            }
            if s.cfg.rate_hz != self.panel.rate_hz {
                return Err(DvsError::SurfaceRateMismatch {
                    surface_hz: s.cfg.rate_hz,
                    panel_hz: self.panel.rate_hz,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacer::VsyncPacer;
    use crate::simulator::Simulator;
    use dvs_workload::{CostProfile, ScenarioSpec};

    fn spec(name: &str, frames: usize) -> ScenarioSpec {
        ScenarioSpec::new(name, 120, frames, CostProfile::scattered(2.0))
    }

    #[test]
    fn m1_composite_equals_single_pipeline() {
        let trace = spec("solo", 180).generate();
        let cfg = PipelineConfig::new(120, 3);
        let single = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());

        let mut pacer = VsyncPacer::new();
        let mut surfaces =
            [SurfaceRun { cfg: &cfg, trace: &trace, pacer: &mut pacer, plan: None, priority: 0 }];
        let (reports, stats) = CompositeSim::new(&cfg).try_run(&mut surfaces, None).expect("valid");
        assert_eq!(
            serde_json::to_string(&reports[0]).unwrap(),
            serde_json::to_string(&single).unwrap(),
            "M=1 composite must be byte-identical to the single pipeline"
        );
        assert_eq!(stats.deferred_latches, vec![0]);
    }

    #[test]
    fn budget_one_defers_contending_surfaces() {
        let a = spec("app", 240).generate();
        let b = spec("video", 240).generate();
        let cfg = PipelineConfig::new(120, 3);
        let (mut pa, mut pb) = (VsyncPacer::new(), VsyncPacer::new());
        let mut surfaces = [
            SurfaceRun { cfg: &cfg, trace: &a, pacer: &mut pa, plan: None, priority: 1 },
            SurfaceRun { cfg: &cfg, trace: &b, pacer: &mut pb, plan: None, priority: 0 },
        ];
        let (reports, stats) =
            CompositeSim::new(&cfg).with_budget(1).try_run(&mut surfaces, None).expect("valid");
        let deferred: u64 = stats.deferred_latches.iter().sum();
        assert!(deferred > 0, "two live surfaces through a budget of 1 must contend");
        // The low-priority surface bears the interference.
        assert!(stats.deferred_latches[1] >= stats.deferred_latches[0]);
        assert!(reports[1].janks.len() >= reports[0].janks.len());
    }

    #[test]
    fn composite_replays_identically_across_cores() {
        let a = spec("app", 160).generate();
        let b = spec("kbd", 120).generate();
        let cfg = PipelineConfig::new(120, 4);
        let run = |core: SimCore| {
            let (mut pa, mut pb) = (VsyncPacer::new(), VsyncPacer::new());
            let mut surfaces = [
                SurfaceRun { cfg: &cfg, trace: &a, pacer: &mut pa, plan: None, priority: 2 },
                SurfaceRun { cfg: &cfg, trace: &b, pacer: &mut pb, plan: None, priority: 1 },
            ];
            let (reports, _) = CompositeSim::new(&cfg)
                .with_core(core)
                .with_budget(1)
                .try_run(&mut surfaces, None)
                .expect("valid");
            serde_json::to_string(&reports).unwrap()
        };
        assert_eq!(run(SimCore::EventHeap), run(SimCore::Reference));
    }

    #[test]
    fn rejects_bad_shapes() {
        let cfg = PipelineConfig::new(120, 3);
        let err = CompositeSim::new(&cfg).try_run(&mut [], None).unwrap_err();
        assert_eq!(err, DvsError::EmptyComposite);

        let slow = PipelineConfig::new(60, 3);
        let trace = spec("s", 30).generate();
        let mut pacer = VsyncPacer::new();
        let mut surfaces =
            [SurfaceRun { cfg: &slow, trace: &trace, pacer: &mut pacer, plan: None, priority: 0 }];
        let err = CompositeSim::new(&cfg).try_run(&mut surfaces, None).unwrap_err();
        assert_eq!(err, DvsError::RateMismatch { trace_hz: 120, config_hz: 60 });
    }

    #[test]
    fn zero_budget_is_rejected() {
        let cfg = PipelineConfig::new(120, 3);
        let trace = spec("s", 30).generate();
        let mut pacer = VsyncPacer::new();
        let mut surfaces =
            [SurfaceRun { cfg: &cfg, trace: &trace, pacer: &mut pacer, plan: None, priority: 0 }];
        let err = CompositeSim::new(&cfg).with_budget(0).try_run(&mut surfaces, None).unwrap_err();
        assert!(matches!(err, DvsError::InvalidConfig(_)));
    }
}
