//! The multi-surface composite state machine: M surfaces, one panel clock.
//!
//! [`CompositeState`] steps M [`SurfaceState`]s against a single shared
//! [`VsyncTimeline`]. Panel ticks are global events; everything else
//! (UI/render completions, pacer wakes) is tagged with the surface it
//! belongs to and joins the same `(time, insertion order)` order the
//! single-pipeline engines use — which is what keeps composite replay
//! byte-identical, and what collapses an M=1 composite run to the *exact*
//! event sequence of [`PipeState`](super::PipeState) (pinned by
//! `tests/compositor_differential.rs`).
//!
//! At each panel VSync the composition step runs in **latch order** —
//! priority descending, canonical surface order breaking ties — and spends
//! one unit of *compose budget* per latched surface. A surface reached
//! after the budget is spent keeps its buffer queued for the next refresh;
//! if an eligible buffer was actually waiting, the denial is counted as a
//! *deferred latch* — the cross-surface interference signal reported by
//! `dvs-metrics`' `CompositeReport`.
//!
//! Fault streams split by ownership: stage stalls, alloc denials, and
//! per-surface VSync callback misses/delays are read from each surface's
//! own schedule, while the shared tick grid (pulse delays, rate switches)
//! is reshaped only by the panel-level schedule. Feeding the same schedule
//! to both levels reproduces the single-pipeline semantics exactly.

use dvs_display::{RefreshRate, VsyncTimeline};
use dvs_faults::FaultSchedule;
use dvs_metrics::{FaultClass, RunReport};
use dvs_sim::{EventQueue, SimTime};
use dvs_workload::FrameTrace;

use super::reference::PollingDispatcher;
use super::{CoreStats, Ev, FaultView, RunArena, SimCore, StepOutcome, SurfaceState};
use crate::config::PipelineConfig;
use crate::pacer::FramePacer;

/// Events driving one composite run: panel ticks are global, everything
/// else belongs to the surface carrying the index.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CompositeEv {
    /// Shared HW-VSync tick `k` (every surface's latch opportunity).
    Tick(u64),
    /// A per-surface event (never `Ev::Tick`).
    Surface(u32, Ev),
}

/// Pooled storage for composite runs: one [`RunArena`] of scratch buffers
/// per surface plus the shared surface-tagged event heap.
///
/// Like [`RunArena`], a warm composite arena replays byte-identically to a
/// fresh one: every buffer (including the run queue and its
/// `total_scheduled` counter) is reset before the first event fires.
pub struct CompositeArena {
    surfaces: Vec<RunArena>,
    heap: EventQueue<CompositeEv>,
}

impl CompositeArena {
    /// An empty arena; buffers grow to each run's working set on first use.
    pub fn new() -> Self {
        CompositeArena { surfaces: Vec::new(), heap: EventQueue::new() }
    }

    /// Grows the per-surface arena pool to at least `m` entries.
    fn ensure_surfaces(&mut self, m: usize) {
        while self.surfaces.len() < m {
            self.surfaces.push(RunArena::new());
        }
    }
}

impl Default for CompositeArena {
    fn default() -> Self {
        Self::new()
    }
}

/// One surface's inputs to a composite run, in canonical (caller-sorted)
/// order.
pub(crate) struct SurfaceInput<'a> {
    pub(crate) cfg: &'a PipelineConfig,
    pub(crate) trace: &'a FrameTrace,
    pub(crate) pacer: &'a mut dyn FramePacer,
    /// This surface's materialized fault stream (stage stalls, alloc
    /// denials, per-surface VSync callback misses).
    pub(crate) schedule: FaultSchedule,
    /// Compose priority: higher latches earlier when the budget contends.
    pub(crate) priority: u8,
}

/// Worst-case concurrent heap population: one shared pending tick, plus per
/// surface one wake, one UI completion, and one render completion per
/// context — doubled for stale wakes that remain queued after a better plan
/// superseded them.
fn heap_capacity(render_threads: impl Iterator<Item = usize>) -> usize {
    2 * (1 + render_threads.map(|rt| 2 + rt).sum::<usize>())
}

/// The composite state machine: M surfaces stepped against one timeline.
struct CompositeState<'a, F: FaultView> {
    timeline: VsyncTimeline,
    tick_cap: u64,
    /// Latches available per refresh (`usize::MAX` = uncontended).
    budget: usize,
    /// The panel-level fault stream: owns the shared tick grid.
    panel_faults: F,
    /// Indices into `surfaces` in latch order (priority desc, index asc).
    latch_order: Vec<u32>,
    /// Surfaces in canonical order (fixes event insertion sequence).
    surfaces: Vec<SurfaceState<'a, F>>,
}

impl<'a, F: FaultView> CompositeState<'a, F> {
    /// The instant of the first event every run starts from (tick 0).
    fn first_pulse_at(&self) -> SimTime {
        self.timeline.pulse(0).at
    }

    /// Commits panel-level rate switches to the shared timeline, recording
    /// each committed switch in **every** surface's report (each surface
    /// observes the panel's grid change). Mirrors
    /// [`SurfaceState::commit_rate_switches`] so an M=1 run with the same
    /// schedule at both levels reproduces the single-pipeline records.
    fn commit_panel_rate_switches(&mut self) {
        for (tick, rate_hz) in self.panel_faults.rate_switches() {
            if self.timeline.try_switch_rate_at_tick(tick, RefreshRate::from_hz(rate_hz)).is_ok() {
                let time = self.timeline.tick_time(tick);
                for s in self.surfaces.iter_mut() {
                    s.push_fault_record(tick, time, FaultClass::RateSwitch);
                }
            }
        }
    }

    /// Handles one popped event. `sched` enqueues follow-up events into the
    /// engine's dispatch structure.
    fn step(
        &mut self,
        t: SimTime,
        ev: CompositeEv,
        sched: &mut impl FnMut(SimTime, CompositeEv),
    ) -> StepOutcome {
        let Self { timeline, tick_cap, budget, panel_faults, latch_order, surfaces } = self;
        match ev {
            CompositeEv::Tick(k) => {
                if k >= *tick_cap {
                    for s in surfaces.iter_mut() {
                        if !s.complete() {
                            s.mark_truncated();
                        }
                    }
                    return StepOutcome::Done;
                }
                // Composition step: latch in priority order, spending one
                // unit of compose budget per latched surface. Jank and
                // deferral accounting happen inside `on_tick`; nothing here
                // schedules events, so latch order is free to differ from
                // the canonical event order below.
                let mut budget_left = *budget;
                for &i in latch_order.iter() {
                    let Some(s) = surfaces.get_mut(i as usize) else {
                        debug_assert!(false, "latch order index out of range");
                        continue;
                    };
                    if s.complete() {
                        continue;
                    }
                    let missed = s.fault_missed(k);
                    let delayed = s.fault_delayed(k);
                    if s.on_tick(k, t, missed, delayed, budget_left > 0) {
                        budget_left -= 1;
                    }
                }
                if surfaces.iter().all(|s| s.complete()) {
                    return StepOutcome::Done;
                }
                // The shared grid: pulse delays come from the panel-level
                // stream, and the next tick is scheduled once for all
                // surfaces.
                let pulse = timeline.pulse(k + 1);
                sched(
                    pulse.at + panel_faults.tick_delay(pulse.tick),
                    CompositeEv::Tick(pulse.tick),
                );
                // Producer side, canonical order: a present may have
                // released a buffer a surface's render stage was blocked on.
                for (i, s) in surfaces.iter_mut().enumerate() {
                    if s.complete() {
                        continue;
                    }
                    let mut sub = |at, e| sched(at, CompositeEv::Surface(i as u32, e));
                    s.pump_rs(t, timeline, &mut sub);
                    s.try_start(t, timeline, &mut sub);
                }
            }
            CompositeEv::Surface(i, e) => {
                let idx = i as usize;
                let Some(s) = surfaces.get_mut(idx) else {
                    debug_assert!(false, "surface event index out of range");
                    return StepOutcome::Continue;
                };
                let mut sub = |at, e| sched(at, CompositeEv::Surface(i, e));
                match e {
                    Ev::UiDone(frame) => {
                        s.on_ui_done(frame);
                        s.pump_rs(t, timeline, &mut sub);
                        s.try_start(t, timeline, &mut sub);
                    }
                    Ev::RsDone(frame) => {
                        s.finish_rs(frame, t);
                        s.pump_rs(t, timeline, &mut sub);
                        s.try_start(t, timeline, &mut sub);
                    }
                    Ev::Wake => {
                        s.clear_wake();
                        s.try_start(t, timeline, &mut sub);
                    }
                    Ev::Tick(_) => {
                        debug_assert!(false, "panel ticks are global, never surface-tagged");
                    }
                }
            }
        }
        StepOutcome::Continue
    }

    /// Consumes the state, completing every surface's report in canonical
    /// order. Returns each surface's deferred-latch count.
    fn finish(self) -> Vec<u64> {
        let timeline = self.timeline;
        self.surfaces
            .into_iter()
            .map(|s| {
                let deferred = s.deferred_latches();
                s.finish(&timeline, None);
                deferred
            })
            .collect()
    }
}

/// Builds the composite state over `inputs` (canonical order) with one
/// fault view per surface plus the panel-level view.
#[allow(clippy::too_many_arguments)]
fn build_state<'a, F: FaultView>(
    panel_cfg: &PipelineConfig,
    tick_cap: u64,
    budget: usize,
    panel_faults: F,
    latch_order: Vec<u32>,
    inputs: Vec<(SurfaceInput<'a>, F)>,
    arenas: &'a mut [RunArena],
    outs: &'a mut [RunReport],
) -> CompositeState<'a, F> {
    let surfaces = inputs
        .into_iter()
        .zip(arenas.iter_mut())
        .zip(outs.iter_mut())
        .map(|(((input, faults), arena), out)| {
            let (scratch, _, _) = arena.split();
            SurfaceState::new(input.cfg, input.trace, input.pacer, faults, scratch, out)
        })
        .collect();
    let mut st = CompositeState {
        timeline: panel_cfg.build_timeline(),
        tick_cap,
        budget,
        panel_faults,
        latch_order,
        surfaces,
    };
    st.commit_panel_rate_switches();
    st
}

/// Runs one composite simulation to completion on the chosen engine,
/// writing per-surface reports into `outs` (canonical order) and using
/// `arena` buffers for all transient state.
///
/// Returns the engine's dispatch counters and each surface's deferred-latch
/// count. The caller (`crate::composite`) has already validated shapes:
/// `inputs`, `outs` are the same non-zero length and every rate agrees.
pub(crate) fn execute<'a>(
    core: SimCore,
    panel_cfg: &PipelineConfig,
    budget: usize,
    panel_schedule: &FaultSchedule,
    inputs: Vec<SurfaceInput<'a>>,
    arena: &'a mut CompositeArena,
    outs: &'a mut [RunReport],
) -> (CoreStats, Vec<u64>) {
    debug_assert_eq!(inputs.len(), outs.len());
    let tick_cap = inputs.iter().map(|s| s.cfg.tick_cap(s.trace.len())).max().unwrap_or(0);
    let max_frames = inputs.iter().map(|s| s.trace.len() as u64).max().unwrap_or(0);
    let capacity = heap_capacity(inputs.iter().map(|s| s.cfg.render_threads));
    // Latch order: priority descending, canonical index breaking ties.
    let mut latch_order: Vec<u32> = (0..inputs.len() as u32).collect();
    latch_order.sort_by_key(|&i| (std::cmp::Reverse(inputs[i as usize].priority), i));

    arena.ensure_surfaces(inputs.len());
    let CompositeArena { surfaces: arenas, heap } = arena;

    match core {
        SimCore::EventHeap => {
            // The event-heap engine reads faults through compiled dense
            // tables, cross-checked against the reference engine's
            // ordered-map probes by the differential suite.
            let panel_faults = panel_schedule.compile(tick_cap, max_frames);
            let compiled: Vec<_> = inputs
                .into_iter()
                .map(|s| {
                    let faults = s.schedule.compile(tick_cap, s.trace.len() as u64);
                    (s, faults)
                })
                .collect();
            let mut st = build_state(
                panel_cfg,
                tick_cap,
                budget,
                panel_faults,
                latch_order,
                compiled,
                arenas,
                outs,
            );
            // A pooled queue must rewind its `total_scheduled` counter so
            // reused runs report the same stats as fresh ones.
            heap.reset();
            heap.reserve(capacity);
            heap.schedule(st.first_pulse_at(), CompositeEv::Tick(0));
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
            (stats, st.finish())
        }
        SimCore::Reference => {
            // Like the single-pipeline oracle, the dispatcher stays freshly
            // allocated on purpose: keeping its structure independent of
            // the pooled buffers means arena-reuse bugs cannot hide in both
            // engines at once.
            // dvs-lint: allow(hot-alloc-transitive, reason = "reference-engine setup, once per run; the oracle trades speed for auditability")
            let panel_faults = panel_schedule.clone();
            let scheduled: Vec<_> = inputs
                .into_iter()
                .map(|mut s| {
                    let faults = std::mem::take(&mut s.schedule);
                    (s, faults)
                })
                .collect();
            let mut st = build_state(
                panel_cfg,
                tick_cap,
                budget,
                panel_faults,
                latch_order,
                scheduled,
                arenas,
                outs,
            );
            let mut dispatch = PollingDispatcher::new();
            dispatch.schedule(st.first_pulse_at(), CompositeEv::Tick(0));
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
            (stats, st.finish())
        }
    }
}
