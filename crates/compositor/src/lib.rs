//! The multi-surface compositor: M concurrent pipelines into one panel.
//!
//! A smartphone display is shared. The app scrolling in the foreground, the
//! video decoding in picture-in-picture, and the keyboard echoing keystrokes
//! each run their *own* rendering pipeline — their own UI/render stages,
//! their own buffer queue, their own pacing policy — yet all of them latch
//! into the same panel at the same hardware VSync. [`Compositor`] models
//! exactly that:
//!
//! * each registered surface picks a [`PacingPath`] — [`PacingPath::Classic`]
//!   VSync coupling, the paper's decoupled [`PacingPath::Dvsync`] path, or a
//!   [`PacingPath::LowLatency`] zero-latch path (the POLYPATH-style option
//!   that presents a frame on the very tick it was queued before);
//! * a **compose budget** caps how many surfaces may latch per panel VSync;
//!   when it contends, higher-priority surfaces win and the losers' deferred
//!   latches are counted as cross-surface interference;
//! * the whole composition replays **byte-identically**: surfaces are
//!   canonicalized by name before the run, so registration order never
//!   changes the report, and both execution engines (`SimCore::EventHeap`
//!   and the polling reference) produce identical bytes.
//!
//! The result is a [`CompositeReport`]: one full [`RunReport`] per surface
//! plus the composition parameters and per-surface deferred-latch counts.
//! Solo baselines for the interference matrix come from
//! [`Compositor::solo_reports`], which re-runs each surface alone through
//! the same machinery.
//!
//! # Examples
//!
//! ```
//! use dvs_compositor::Compositor;
//! use dvs_workload::app_plus_video;
//!
//! let scenario = app_plus_video(60, 120);
//! let report = Compositor::from_scenario(&scenario).run().expect("valid scenario");
//! assert_eq!(report.surfaces.len(), 2);
//! assert_eq!(report.panel_rate_hz, 60);
//! // Canonical (name-sorted) order, independent of registration order.
//! assert_eq!(report.surfaces[0].name, "app");
//! assert_eq!(report.surfaces[1].name, "video");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::FaultPlan;
use dvs_metrics::{CompositeReport, InterferenceRow, RunReport, SurfaceReport};
use dvs_pipeline::{CompositeSim, FramePacer, PipelineConfig, SimCore, SurfaceRun, VsyncPacer};
use dvs_sim::{DvsError, SimDuration};
use dvs_workload::{CompositeScenario, FrameTrace, PacingPath};

/// Stock buffer count for VSync-coupled surfaces (Android's triple buffer).
const CLASSIC_BUFFERS: usize = 3;

/// One registered surface: trace, policy, and optional injected faults.
#[derive(Clone, Debug)]
pub struct Surface {
    /// The surface's frame trace; `trace.name` is the registration key and
    /// must be unique within a compositor.
    pub trace: FrameTrace,
    /// The pacing path driving this surface's pipeline.
    pub path: PacingPath,
    /// Compose priority: higher latches first under budget contention.
    pub priority: u8,
    /// Buffer-queue capacity override; `None` picks the path's stock size
    /// (3 for Classic/low-latency, the paper's 4 for D-VSync).
    pub buffers: Option<usize>,
    /// Per-surface injected faults (stage stalls, alloc denials, VSync
    /// callback misses for this surface only).
    pub plan: Option<FaultPlan>,
}

impl Surface {
    /// Creates a surface with stock buffering and no faults.
    pub fn new(trace: FrameTrace, path: PacingPath, priority: u8) -> Self {
        Surface { trace, path, priority, buffers: None, plan: None }
    }

    /// Overrides the buffer-queue capacity.
    pub fn with_buffers(mut self, buffers: usize) -> Self {
        self.buffers = Some(buffers);
        self
    }

    /// Attaches a per-surface fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The buffer count this surface runs with.
    fn buffer_count(&self) -> usize {
        self.buffers.unwrap_or(match self.path {
            PacingPath::Classic | PacingPath::LowLatency => CLASSIC_BUFFERS,
            PacingPath::Dvsync => DvsyncConfig::paper_default().buffer_count,
        })
    }

    /// Builds this surface's pipeline configuration against `panel_hz`.
    fn config(&self, panel_hz: u32) -> PipelineConfig {
        let cfg = PipelineConfig::new(panel_hz, self.buffer_count());
        match self.path {
            PacingPath::LowLatency => cfg.with_compose_latch(SimDuration::ZERO),
            PacingPath::Classic | PacingPath::Dvsync => cfg,
        }
    }

    /// Builds a fresh pacer for this surface — fresh per run, so replays
    /// from the same inputs are byte-identical.
    fn pacer(&self) -> Box<dyn FramePacer> {
        match self.path {
            PacingPath::Classic | PacingPath::LowLatency => Box::new(VsyncPacer::new()),
            PacingPath::Dvsync => {
                Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(self.buffer_count())))
            }
        }
    }
}

/// Drives M registered surfaces into one shared panel.
///
/// See the [module docs](self) for the model; see
/// [`dvs_pipeline::CompositeSim`] for the underlying state machine.
#[derive(Clone, Debug)]
pub struct Compositor {
    panel_hz: u32,
    compose_budget: Option<usize>,
    core: SimCore,
    panel_plan: Option<FaultPlan>,
    max_ticks: Option<u64>,
    surfaces: Vec<Surface>,
}

impl Compositor {
    /// Creates an empty compositor over a panel at `panel_hz` (event-heap
    /// engine, unbounded compose budget).
    pub fn new(panel_hz: u32) -> Self {
        Compositor {
            panel_hz,
            compose_budget: None,
            core: SimCore::default(),
            panel_plan: None,
            max_ticks: None,
            surfaces: Vec::new(),
        }
    }

    /// Builds a compositor from a workload [`CompositeScenario`], generating
    /// each surface's trace from its spec.
    pub fn from_scenario(scenario: &CompositeScenario) -> Self {
        let mut c = Compositor::new(scenario.panel_hz);
        for s in &scenario.surfaces {
            c = c
                .with_surface(Surface::new(s.spec.generate(), s.path, s.priority))
                // dvs-lint: allow(panic, reason = "CompositeScenario name uniqueness is pinned by dvs-workload's suite tests; a violated invariant here is a workload bug")
                .expect("scenario surface names are unique");
        }
        c
    }

    /// Selects the execution engine.
    pub fn with_core(mut self, core: SimCore) -> Self {
        self.core = core;
        self
    }

    /// Caps latches per panel VSync (must be at least 1; rejected at run).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.compose_budget = Some(budget);
        self
    }

    /// Injects panel-level faults: pulse delays and rate switches that
    /// reshape the shared tick grid for *every* surface.
    pub fn with_panel_plan(mut self, plan: FaultPlan) -> Self {
        self.panel_plan = Some(plan);
        self
    }

    /// Overrides the safety tick cap on the shared timeline.
    pub fn with_max_ticks(mut self, ticks: u64) -> Self {
        self.max_ticks = Some(ticks);
        self
    }

    /// Registers a surface. Rejects a name the compositor already holds —
    /// names are the canonical sort key, so they must be unique.
    pub fn with_surface(mut self, surface: Surface) -> Result<Self, DvsError> {
        if self.surfaces.iter().any(|s| s.trace.name == surface.trace.name) {
            return Err(DvsError::DuplicateSurface(surface.trace.name.clone()));
        }
        self.surfaces.push(surface);
        Ok(self)
    }

    /// The registered surfaces, in registration order.
    pub fn surfaces(&self) -> &[Surface] {
        &self.surfaces
    }

    /// The panel configuration the shared timeline runs on.
    fn panel_config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::new(self.panel_hz, CLASSIC_BUFFERS);
        cfg.max_ticks = self.max_ticks;
        cfg
    }

    /// Canonical surface order: indices into `self.surfaces` sorted by name.
    fn canonical_indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.surfaces.len()).collect();
        idx.sort_by(|&a, &b| self.surfaces[a].trace.name.cmp(&self.surfaces[b].trace.name));
        idx
    }

    /// Runs the composition and assembles the report.
    ///
    /// Surfaces are canonicalized by name first, so two compositors holding
    /// the same surfaces in different registration order produce
    /// byte-identical reports.
    pub fn run(&self) -> Result<CompositeReport, DvsError> {
        if self.surfaces.is_empty() {
            return Err(DvsError::EmptyComposite);
        }
        let order = self.canonical_indices();
        let panel = self.panel_config();
        let configs: Vec<PipelineConfig> =
            order.iter().map(|&i| self.surfaces[i].config(self.panel_hz)).collect();
        let mut pacers: Vec<Box<dyn FramePacer>> =
            order.iter().map(|&i| self.surfaces[i].pacer()).collect();

        let mut runs: Vec<SurfaceRun<'_>> = Vec::with_capacity(order.len());
        for ((&i, cfg), pacer) in order.iter().zip(&configs).zip(&mut pacers) {
            let s = &self.surfaces[i];
            runs.push(SurfaceRun {
                cfg,
                trace: &s.trace,
                pacer: pacer.as_mut(),
                plan: s.plan.as_ref(),
                priority: s.priority,
            });
        }

        let mut sim = CompositeSim::new(&panel).with_core(self.core);
        if let Some(budget) = self.compose_budget {
            sim = sim.with_budget(budget);
        }
        let (reports, stats) = sim.try_run(&mut runs, self.panel_plan.as_ref())?;

        let surfaces = order
            .iter()
            .zip(reports)
            .zip(&stats.deferred_latches)
            .map(|((&i, report), &deferred)| {
                let s = &self.surfaces[i];
                SurfaceReport {
                    name: s.trace.name.clone(),
                    path: s.path.label().to_string(),
                    priority: s.priority,
                    deferred_latches: deferred,
                    report,
                }
            })
            .collect();

        Ok(CompositeReport {
            panel_rate_hz: self.panel_hz,
            compose_budget: self.compose_budget,
            surfaces,
        })
    }

    /// Runs each surface *alone* on the panel (same path, same faults, no
    /// contention) — the solo baselines for the interference matrix.
    pub fn solo_reports(&self) -> Result<Vec<RunReport>, DvsError> {
        if self.surfaces.is_empty() {
            return Err(DvsError::EmptyComposite);
        }
        let order = self.canonical_indices();
        let panel = self.panel_config();
        let mut reports = Vec::with_capacity(order.len());
        for &i in &order {
            let s = &self.surfaces[i];
            let cfg = s.config(self.panel_hz);
            let mut pacer = s.pacer();
            let mut runs = [SurfaceRun {
                cfg: &cfg,
                trace: &s.trace,
                pacer: pacer.as_mut(),
                plan: s.plan.as_ref(),
                priority: s.priority,
            }];
            let (mut out, _) = CompositeSim::new(&panel)
                .with_core(self.core)
                .try_run(&mut runs, self.panel_plan.as_ref())?;
            reports.push(out.remove(0));
        }
        Ok(reports)
    }

    /// Runs the composition *and* the solo baselines, returning the report
    /// with its full interference matrix.
    pub fn run_with_interference(
        &self,
    ) -> Result<(CompositeReport, Vec<InterferenceRow>), DvsError> {
        let report = self.run()?;
        let solo = self.solo_reports()?;
        let rows = report.interference_against(&solo);
        Ok((report, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::{app_plus_keyboard, mixed_policy_fleet, CostProfile, ScenarioSpec};

    fn trace(name: &str, hz: u32, frames: usize) -> FrameTrace {
        ScenarioSpec::new(name, hz, frames, CostProfile::scattered(2.0)).generate()
    }

    #[test]
    fn duplicate_surface_names_are_rejected() {
        let c = Compositor::new(60)
            .with_surface(Surface::new(trace("app", 60, 30), PacingPath::Classic, 1))
            .unwrap();
        let err =
            c.with_surface(Surface::new(trace("app", 60, 30), PacingPath::Dvsync, 2)).unwrap_err();
        assert_eq!(err, DvsError::DuplicateSurface("app".into()));
    }

    #[test]
    fn empty_compositor_is_rejected() {
        assert_eq!(Compositor::new(60).run().unwrap_err(), DvsError::EmptyComposite);
        assert_eq!(Compositor::new(60).solo_reports().unwrap_err(), DvsError::EmptyComposite);
    }

    #[test]
    fn registration_order_does_not_change_the_report() {
        let (a, b, c) = (trace("alpha", 120, 90), trace("beta", 120, 90), trace("gamma", 120, 90));
        // Policy and priority travel with the surface (keyed by name), so
        // only the registration order varies between the two runs.
        let build_named = |ts: [&FrameTrace; 3]| {
            let mut comp = Compositor::new(120).with_budget(1);
            for t in ts {
                let (path, prio) = match t.name.as_str() {
                    "alpha" => (PacingPath::Dvsync, 2),
                    "beta" => (PacingPath::Classic, 1),
                    _ => (PacingPath::LowLatency, 3),
                };
                comp = comp.with_surface(Surface::new(t.clone(), path, prio)).unwrap();
            }
            comp
        };
        let r1 = build_named([&a, &b, &c]).run().unwrap();
        let r2 = build_named([&c, &a, &b]).run().unwrap();
        assert_eq!(serde_json::to_string(&r1).unwrap(), serde_json::to_string(&r2).unwrap());
    }

    #[test]
    fn scenario_round_trip_produces_per_surface_reports() {
        let sc = app_plus_keyboard(60, 60);
        let report = Compositor::from_scenario(&sc).run().unwrap();
        assert_eq!(report.surfaces.len(), 2);
        assert_eq!(report.surfaces[0].name, "app");
        assert_eq!(report.surfaces[0].path, "classic");
        assert_eq!(report.surfaces[1].name, "keyboard");
        assert_eq!(report.surfaces[1].path, "low-latency");
        for s in &report.surfaces {
            assert_eq!(s.report.records.len(), 60);
        }
    }

    #[test]
    fn cores_agree_on_a_mixed_fleet() {
        let sc = mixed_policy_fleet(120, 120);
        let run = |core: SimCore| {
            let report =
                Compositor::from_scenario(&sc).with_core(core).with_budget(2).run().unwrap();
            serde_json::to_string(&report).unwrap()
        };
        assert_eq!(run(SimCore::EventHeap), run(SimCore::Reference));
    }

    #[test]
    fn interference_rows_cover_every_surface() {
        let sc = mixed_policy_fleet(60, 90);
        let (report, rows) =
            Compositor::from_scenario(&sc).with_budget(1).run_with_interference().unwrap();
        assert_eq!(rows.len(), report.surfaces.len());
        // Budget 1 across 3 surfaces must defer someone at some point.
        assert!(report.total_deferred_latches() > 0);
        // Solo runs can't defer: rows' deferred counts come from composition.
        for row in &rows {
            let s = report.surface(&row.name).unwrap();
            assert_eq!(row.deferred_latches, s.deferred_latches);
        }
    }
}
