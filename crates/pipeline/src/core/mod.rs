//! The simulator's core state machine, shared by both execution engines.
//!
//! One run's semantics — panel latching, the UI↔render sync barrier,
//! frame-order buffer queueing, fault application, report assembly — live
//! here in [`SurfaceState`], written once so the two engines cannot drift
//! apart. A surface is one producer pipeline (app UI thread → render stage
//! → buffer queue → per-surface latch) stepped against a panel clock *owned
//! by the caller*:
//!
//! * [`PipeState`] wraps exactly one surface plus its own timeline — the
//!   single-pipeline simulator every prior experiment runs on;
//! * [`compose`] steps M surfaces against one shared timeline with a
//!   compose budget — the multi-surface compositor (`dvs-compositor`).
//!
//! What differs between the engines is *dispatch*: how the next
//! `(time, event)` pair is found.
//!
//! * [`reference`] — the retained tick-stepper. It keeps pending events in
//!   an unsorted list and advances a polling clock in fixed quanta,
//!   scanning for due work at every step — the classic fixed-timestep loop
//!   that pays per-quantum overhead even when nothing happens between
//!   VSync pulses.
//! * [`event_heap`] — the production core. Events sit in a pre-sized
//!   sorted run queue ([`dvs_sim::EventQueue`]) and the loop jumps
//!   straight from one event to the next; the steady state allocates
//!   nothing. The [`batch`] lane entry point runs each lane through it.
//!
//! Both engines must produce **byte-identical** [`RunReport`]s; the
//! repo-level differential suites (`tests/differential.rs`,
//! `tests/compositor_differential.rs`) pin that over the whole suite75
//! scenario set plus arbitrary fault plans, and pin the M=1 compositor to
//! the single-pipeline path byte for byte.

pub(crate) mod batch;
pub(crate) mod compose;
pub(crate) mod event_heap;
pub(crate) mod reference;

use std::collections::VecDeque;

use dvs_buffer::{BufferQueue, FrameMeta, SlotId};
use dvs_display::{Panel, PanelOutcome, PulseEvent, RefreshRate, TickCursor, VsyncTimeline};
use dvs_faults::{CompiledFaults, FaultSchedule};
use dvs_metrics::{
    FaultClass, FaultRecord, FrameKind, FrameRecord, JankEvent, RunReport, RunTotals,
};
use dvs_sim::{EventQueue, SimDuration, SimTime};
use dvs_workload::FrameTrace;

use crate::config::PipelineConfig;
use crate::pacer::{FramePacer, PacerCtx};

pub use compose::CompositeArena;

/// Which execution engine a [`Simulator`](crate::Simulator) run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimCore {
    /// The retained tick-stepper: simple, auditable, slow. Kept as the
    /// differential-testing baseline.
    Reference,
    /// The event-heap scheduler: pop-next-event stepping with pre-sized
    /// buffers (the default).
    #[default]
    EventHeap,
}

/// Dispatch-engine counters for throughput reporting.
///
/// These never influence the simulation; they exist so benchmarks can report
/// events/sec and quantify the dead time the event-heap core eliminates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Events handed to the state machine.
    pub events_processed: u64,
    /// Events scheduled over the run (processed + abandoned at exit).
    pub events_scheduled: u64,
    /// Polling-clock steps taken (zero for the event-heap engine).
    pub polls: u64,
}

/// Events driving one run.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// HW-VSync tick `k`.
    Tick(u64),
    /// A frame's UI stage completed.
    UiDone(usize),
    /// A frame's render stage completed (buffer ready to queue).
    RsDone(usize),
    /// A pacer-requested wake-up to retry starting a frame.
    Wake,
}

/// A view of a run's resolved fault stream.
///
/// The reference engine reads the materialized [`FaultSchedule`] directly
/// (ordered-map probes); the event-heap engine reads [`CompiledFaults`],
/// whose tick-domain processes draw each tick the first time a query
/// reaches it — hence `&mut self` on the per-tick queries. On `Tick(k)` the
/// deepest tick any query reads is `k + 1` (the next pulse's delay). The
/// differential suite holds the two views to identical answers.
pub(crate) trait FaultView {
    fn ui_extra(&self, frame: u64) -> SimDuration;
    fn rs_extra(&self, frame: u64) -> SimDuration;
    fn is_missed(&mut self, tick: u64) -> bool;
    fn tick_delay(&mut self, tick: u64) -> SimDuration;
    fn deny_alloc(&mut self, tick: u64) -> bool;
    fn rate_switches(&self) -> Vec<(u64, u32)>;
}

impl FaultView for FaultSchedule {
    fn ui_extra(&self, frame: u64) -> SimDuration {
        FaultSchedule::ui_extra(self, frame)
    }
    fn rs_extra(&self, frame: u64) -> SimDuration {
        FaultSchedule::rs_extra(self, frame)
    }
    fn is_missed(&mut self, tick: u64) -> bool {
        FaultSchedule::is_missed(self, tick)
    }
    fn tick_delay(&mut self, tick: u64) -> SimDuration {
        FaultSchedule::tick_delay(self, tick)
    }
    fn deny_alloc(&mut self, tick: u64) -> bool {
        FaultSchedule::deny_alloc(self, tick)
    }
    fn rate_switches(&self) -> Vec<(u64, u32)> {
        FaultSchedule::rate_switches(self)
    }
}

impl FaultView for CompiledFaults {
    fn ui_extra(&self, frame: u64) -> SimDuration {
        CompiledFaults::ui_extra(self, frame)
    }
    fn rs_extra(&self, frame: u64) -> SimDuration {
        CompiledFaults::rs_extra(self, frame)
    }
    fn is_missed(&mut self, tick: u64) -> bool {
        CompiledFaults::is_missed(self, tick)
    }
    fn tick_delay(&mut self, tick: u64) -> SimDuration {
        CompiledFaults::tick_delay(self, tick)
    }
    fn deny_alloc(&mut self, tick: u64) -> bool {
        CompiledFaults::deny_alloc(self, tick)
    }
    fn rate_switches(&self) -> Vec<(u64, u32)> {
        CompiledFaults::rate_switches(self).to_vec()
    }
}

/// A borrowed view: pooled tables stay in their [`RunArena`] across runs.
impl<F: FaultView> FaultView for &mut F {
    fn ui_extra(&self, frame: u64) -> SimDuration {
        (**self).ui_extra(frame)
    }
    fn rs_extra(&self, frame: u64) -> SimDuration {
        (**self).rs_extra(frame)
    }
    fn is_missed(&mut self, tick: u64) -> bool {
        (**self).is_missed(tick)
    }
    fn tick_delay(&mut self, tick: u64) -> SimDuration {
        (**self).tick_delay(tick)
    }
    fn deny_alloc(&mut self, tick: u64) -> bool {
        (**self).deny_alloc(tick)
    }
    fn rate_switches(&self) -> Vec<(u64, u32)> {
        (**self).rate_switches()
    }
}

/// Per-frame bookkeeping while a run is in progress.
#[derive(Clone, Copy, Debug)]
struct FrameState {
    trigger: SimTime,
    basis: SimTime,
    content: SimTime,
    /// The buffer slot, assigned when the render stage dequeues one.
    slot: Option<SlotId>,
    queued_at: Option<SimTime>,
    present: Option<(u64, SimTime)>,
}

/// Pooled, reusable run storage: everything a simulation run allocates that
/// is not part of its output.
///
/// A fresh run allocates per-frame state vectors, render-stage queues, the
/// event queue, and report vectors — a dozen allocations whose sizes repeat
/// across every cell of a sweep grid. An arena owns those buffers once per
/// worker thread; each run `clear`s and reuses them, so a warm arena runs an
/// entire grid without touching the allocator. Runs through an arena are
/// **byte-identical** to fresh runs: every buffer is reset to its
/// freshly-constructed state (including the event queue's counter, see
/// [`EventQueue::reset`]) before the first event fires.
///
/// The two [`RunReport`] slots serve the segmented runner and the fold:
/// `segment` is the per-segment output that gets drained into the caller's
/// combined report, and `combined` is a scratch slot — see
/// [`RunArena::with_scratch_report`] — that takes the janks, faults and
/// transitions of every run folded into [`RunTotals`] by
/// [`Simulator::try_tally_into`](crate::Simulator::try_tally_into). The
/// fault tables are the event-heap engine's [`CompiledFaults`], reloaded
/// from each run's plan.
pub struct RunArena {
    frames: Vec<Option<FrameState>>,
    rs_pending: VecDeque<usize>,
    rs_finished: Vec<(usize, SimTime)>,
    heap: EventQueue<Ev>,
    faults: CompiledFaults,
    pub(crate) segment: RunReport,
    combined: RunReport,
}

impl RunArena {
    /// An empty arena; buffers grow to each run's working set on first use.
    pub fn new() -> Self {
        RunArena {
            // dvs-lint: allow(hot-alloc, reason = "arena construction happens once per worker; runs reuse these buffers")
            frames: Vec::new(),
            rs_pending: VecDeque::new(),
            // dvs-lint: allow(hot-alloc, reason = "arena construction happens once per worker; runs reuse these buffers")
            rs_finished: Vec::new(),
            heap: EventQueue::new(),
            faults: CompiledFaults::default(),
            segment: RunReport::default(),
            combined: RunReport::default(),
        }
    }

    /// Lends out the arena's scratch [`RunReport`] slot alongside the arena
    /// itself, so a caller can run into a pooled report, derive scalars from
    /// it, and hand the allocation back — all without a fresh report per
    /// call. Used by the fault matrix's cells, which aggregate frame kinds,
    /// and by every run folded into [`RunTotals`].
    pub fn with_scratch_report<R>(
        &mut self,
        f: impl FnOnce(&mut RunArena, &mut RunReport) -> R,
    ) -> R {
        let mut out = std::mem::take(&mut self.combined);
        let result = f(self, &mut out);
        self.combined = out;
        result
    }
}

impl Default for RunArena {
    fn default() -> Self {
        Self::new()
    }
}

/// Mutable views into the arena's run-state buffers, split off so the
/// engines can borrow the dispatch structure (`heap`) independently.
pub(crate) struct Scratch<'a> {
    frames: &'a mut Vec<Option<FrameState>>,
    rs_pending: &'a mut VecDeque<usize>,
    rs_finished: &'a mut Vec<(usize, SimTime)>,
}

impl RunArena {
    /// Splits the arena into the state-machine scratch buffers, the event
    /// heap, and the fault tables (only the event-heap engine uses the
    /// latter two).
    pub(crate) fn split(&mut self) -> (Scratch<'_>, &mut EventQueue<Ev>, &mut CompiledFaults) {
        (
            Scratch {
                frames: &mut self.frames,
                rs_pending: &mut self.rs_pending,
                rs_finished: &mut self.rs_finished,
            },
            &mut self.heap,
            &mut self.faults,
        )
    }
}

/// Whether the event loop should continue or stop after a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Keep popping events.
    Continue,
    /// The run is over (trace complete or safety cap hit).
    Done,
}

/// The mutable state of one surface's run, independent of the dispatch
/// engine *and* of the panel clock, which the caller owns and passes into
/// every method that needs it.
///
/// Per-frame bookkeeping and the render-stage queues live in borrowed
/// [`RunArena`] buffers, and observations (janks, fault firings, frame
/// records) are written directly into the borrowed output report — the
/// state machine itself owns no growable storage, which is what lets a warm
/// arena run allocation-free.
pub(crate) struct SurfaceState<'a, F: FaultView> {
    cfg: &'a PipelineConfig,
    trace: &'a FrameTrace,
    pacer: &'a mut dyn FramePacer,
    queue: BufferQueue,
    panel: Panel,
    frames: &'a mut Vec<Option<FrameState>>,
    next_frame: usize,
    ui_busy: bool,
    /// Render contexts currently drawing.
    rs_active: usize,
    rs_pending: &'a mut VecDeque<usize>,
    /// Frames whose render stage finished but whose predecessors have not
    /// queued yet (parallel rendering queues buffers in frame order). At
    /// most `render_threads` entries, so a linear scan beats a tree.
    rs_finished: &'a mut Vec<(usize, SimTime)>,
    /// The next frame index allowed to enter the buffer queue.
    next_to_queue: usize,
    in_flight: usize,
    presented: usize,
    first_present_tick: Option<u64>,
    last_present_tick: u64,
    pending_wake: Option<SimTime>,
    truncated: bool,
    /// Injected faults resolved for this surface (clean-run views answer
    /// zero). On the single-pipeline path this stream is also the panel's.
    faults: F,
    /// The last tick an alloc denial was logged for (dedupes retries).
    denial_logged: Option<u64>,
    /// The refresh interval last asked for: every handler of one refresh
    /// reads it instead of searching the timeline again.
    tick: TickCursor,
    /// Latches the compositor's compose budget denied while an eligible
    /// buffer was waiting (always zero on the single-pipeline path).
    deferred_latches: u64,
    /// The surface's output: janks and fault firings stream in as they
    /// happen, frame records are assembled by [`SurfaceState::finish`].
    out: &'a mut RunReport,
}

impl<'a, F: FaultView> SurfaceState<'a, F> {
    /// Resets the output report and scratch buffers and builds the surface
    /// state. The caller owns the panel timeline (and is responsible for
    /// committing any injected rate switches to it — see
    /// [`SurfaceState::commit_rate_switches`]).
    pub(crate) fn new(
        cfg: &'a PipelineConfig,
        trace: &'a FrameTrace,
        pacer: &'a mut dyn FramePacer,
        faults: F,
        scratch: Scratch<'a>,
        out: &'a mut RunReport,
    ) -> Self {
        let Scratch { frames, rs_pending, rs_finished } = scratch;
        out.reset(&trace.name, cfg.rate_hz);
        frames.clear();
        frames.resize(trace.len(), None);
        rs_pending.clear();
        rs_pending.reserve(cfg.render_threads + 1);
        rs_finished.clear();
        rs_finished.reserve(cfg.render_threads);
        SurfaceState {
            cfg,
            trace,
            pacer,
            queue: BufferQueue::new(cfg.buffer_count),
            panel: Panel::new(cfg.latch()),
            frames,
            next_frame: 0,
            ui_busy: false,
            rs_active: 0,
            rs_pending,
            rs_finished,
            next_to_queue: 0,
            in_flight: 0,
            presented: 0,
            first_present_tick: None,
            last_present_tick: 0,
            pending_wake: None,
            truncated: false,
            faults,
            denial_logged: None,
            tick: TickCursor::new(),
            deferred_latches: 0,
            out,
        }
    }

    /// Commits this surface's injected rate switches (LTPO glitches /
    /// thermal caps) to the caller's timeline, recording each committed
    /// switch. Fault resolution guarantees strictly increasing switch ticks,
    /// so each switch commits. On the single-pipeline path the surface's
    /// fault stream is also the panel's; composite runs reshape the shared
    /// timeline from the panel-level schedule instead (see [`compose`]).
    pub(crate) fn commit_rate_switches(&mut self, timeline: &mut VsyncTimeline) {
        for (tick, rate_hz) in self.faults.rate_switches() {
            if timeline.try_switch_rate_at_tick(tick, RefreshRate::from_hz(rate_hz)).is_ok() {
                self.push_fault_record(tick, timeline.tick_time(tick), FaultClass::RateSwitch);
            }
        }
    }

    /// Appends a fault firing to the surface's report.
    pub(crate) fn push_fault_record(&mut self, tick: u64, time: SimTime, class: FaultClass) {
        self.out.fault_events.push(FaultRecord { tick, time, class });
    }

    /// Whether every trace frame has reached the screen.
    pub(crate) fn complete(&self) -> bool {
        self.presented >= self.trace.len()
    }

    /// Marks the run truncated (safety tick cap reached before the trace
    /// completed).
    pub(crate) fn mark_truncated(&mut self) {
        self.truncated = true;
    }

    /// Latches the compositor's compose budget denied this surface while an
    /// eligible buffer was waiting.
    pub(crate) fn deferred_latches(&self) -> u64 {
        self.deferred_latches
    }

    /// Whether this surface's fault stream swallows VSync tick `k`.
    pub(crate) fn fault_missed(&mut self, k: u64) -> bool {
        self.faults.is_missed(k)
    }

    /// Whether this surface's fault stream delays VSync tick `k`.
    pub(crate) fn fault_delayed(&mut self, k: u64) -> bool {
        !self.faults.tick_delay(k).is_zero()
    }

    /// One panel refresh for this surface. `missed`/`delayed` are the tick's
    /// resolved fault status (computed by the caller, whose fault stream may
    /// be panel-level), and `allow_latch` is false when the compositor's
    /// compose budget is already spent this refresh. Returns whether a new
    /// frame was latched (i.e. whether compose budget was consumed).
    pub(crate) fn on_tick(
        &mut self,
        k: u64,
        t: SimTime,
        missed: bool,
        delayed: bool,
        allow_latch: bool,
    ) -> bool {
        // Content is expected at every refresh between the first present and
        // the end of the animation; a repeat in that window is a jank.
        let expected = self.first_present_tick.is_some() && self.presented < self.trace.len();
        if delayed {
            self.out.fault_events.push(FaultRecord {
                tick: k,
                time: t,
                class: FaultClass::VsyncDelay,
            });
        }
        if missed {
            // The HW pulse is swallowed: no latch, no present opportunity.
            // The previous frame stays on screen, which the user perceives
            // exactly like a jank when content was expected.
            self.out.fault_events.push(FaultRecord {
                tick: k,
                time: t,
                class: FaultClass::VsyncMiss,
            });
            if expected {
                self.out.janks.push(JankEvent { tick: k, time: t });
                self.pacer.on_jank(k, t);
            }
            return false;
        }
        if !allow_latch {
            // The compositor ran out of compose budget before reaching this
            // surface: its window is skipped this refresh even if a buffer
            // was ready. To the surface that is indistinguishable from a
            // repeat — but the deferral is recorded separately, because it
            // is cross-surface interference, not the surface's own doing.
            if self.panel.would_present(&self.queue, t) {
                self.deferred_latches += 1;
            }
            if expected {
                self.out.janks.push(JankEvent { tick: k, time: t });
                self.pacer.on_jank(k, t);
            }
            return false;
        }
        match self.panel.on_vsync(&mut self.queue, t) {
            PanelOutcome::Presented(buf) => {
                let seq = buf.meta.seq as usize;
                let state =
                    // dvs-lint: allow(panic, reason = "a presented buffer's seq was assigned in try_start; absence is a state-machine bug")
                    self.frames[seq].as_mut().expect("presented frame must have been started");
                state.present = Some((k, t));
                self.presented += 1;
                self.first_present_tick.get_or_insert(k);
                self.last_present_tick = k;
                self.pacer.on_present(buf.meta.seq, k, t);
                true
            }
            PanelOutcome::Repeated => {
                if expected {
                    self.out.janks.push(JankEvent { tick: k, time: t });
                    self.pacer.on_jank(k, t);
                }
                false
            }
        }
    }

    /// A frame's UI stage completed: hand it to the render stage.
    pub(crate) fn on_ui_done(&mut self, frame: usize) {
        self.ui_busy = false;
        self.rs_pending.push_back(frame);
    }

    /// A pacer wake-up fired: clear it so `try_start` can re-plan.
    pub(crate) fn clear_wake(&mut self) {
        self.pending_wake = None;
    }

    pub(crate) fn try_start(
        &mut self,
        now: SimTime,
        timeline: &VsyncTimeline,
        sched: &mut impl FnMut(SimTime, Ev),
    ) {
        if self.next_frame >= self.trace.len() || self.ui_busy {
            return;
        }
        // UI↔render sync barrier: the UI thread blocks at the start of draw
        // until the previous frame's render stage has picked up its work
        // (which itself requires a free buffer — the real back-pressure).
        if !self.rs_pending.is_empty() {
            return;
        }
        let free_slots = self.queue.free_len();
        let tick = self.tick.at(timeline, now);
        let ctx = PacerCtx {
            now,
            period: tick.period,
            last_tick: tick.last,
            next_tick: tick.next,
            queued: self.queue.queued_len(),
            in_flight: self.in_flight,
            free_slots,
            frame_index: self.next_frame as u64,
            last_present_tick: self.first_present_tick.map(|_| self.last_present_tick),
        };
        match self.pacer.plan_next(&ctx) {
            None => {}
            Some(plan) if plan.start <= now => {
                let idx = self.next_frame;
                self.frames[idx] = Some(FrameState {
                    trigger: now,
                    basis: plan.basis,
                    content: plan.content_timestamp,
                    slot: None,
                    queued_at: None,
                    present: None,
                });
                self.next_frame += 1;
                self.ui_busy = true;
                self.in_flight += 1;
                let mut ui = self.trace.frames[idx].ui;
                let stall = self.faults.ui_extra(idx as u64);
                if !stall.is_zero() {
                    ui += stall;
                    self.out.fault_events.push(FaultRecord {
                        tick: idx as u64,
                        time: now,
                        class: FaultClass::UiStall,
                    });
                }
                sched(now + ui, Ev::UiDone(idx));
            }
            Some(plan) if self.pending_wake.is_none_or(|w| plan.start < w) => {
                self.pending_wake = Some(plan.start);
                sched(plan.start, Ev::Wake);
            }
            Some(_) => {}
        }
    }

    /// Starts the render stage for pending frames while a render context is
    /// idle and a buffer can be dequeued. With a VSync-rs signal configured,
    /// work dispatched now begins at the next signal instead of immediately.
    pub(crate) fn pump_rs(
        &mut self,
        now: SimTime,
        timeline: &VsyncTimeline,
        sched: &mut impl FnMut(SimTime, Ev),
    ) {
        while self.rs_active < self.cfg.render_threads {
            let Some(&frame) = self.rs_pending.front() else { return };
            // Transient allocation failure: dequeues are denied for the rest
            // of this refresh interval. Ticks keep firing and re-enter
            // `pump_rs`, so the dispatch is retried — the fault degrades
            // throughput instead of wedging the pipeline.
            let cur_tick = self.tick.at(timeline, now).last.0;
            if self.faults.deny_alloc(cur_tick) {
                if self.denial_logged != Some(cur_tick) {
                    self.denial_logged = Some(cur_tick);
                    self.out.fault_events.push(FaultRecord {
                        tick: cur_tick,
                        time: now,
                        class: FaultClass::AllocDenied,
                    });
                }
                return;
            }
            let Some(slot) = self.queue.dequeue_free() else { return };
            self.rs_pending.pop_front();
            // dvs-lint: allow(panic, reason = "rs_pending only holds frames try_start created; absence is a state-machine bug")
            self.frames[frame].as_mut().expect("pending frame was started").slot = Some(slot);
            self.rs_active += 1;
            let start = match self.cfg.rs_signal_offset {
                None => now,
                Some(offset) => {
                    // The next VSync-rs signal at or after `now`.
                    let tick = self.tick.at(timeline, now);
                    let last_signal = tick.last.1 + offset;
                    if last_signal >= now {
                        last_signal
                    } else {
                        tick.next.1 + offset
                    }
                }
            };
            let mut rs = self.trace.frames[frame].rs;
            let stall = self.faults.rs_extra(frame as u64);
            if !stall.is_zero() {
                rs += stall;
                self.out.fault_events.push(FaultRecord {
                    tick: frame as u64,
                    time: now,
                    class: FaultClass::RsStall,
                });
            }
            sched(start + rs, Ev::RsDone(frame));
        }
    }

    pub(crate) fn finish_rs(&mut self, frame: usize, now: SimTime) {
        self.rs_active -= 1;
        self.rs_finished.push((frame, now));
        // Buffers enter the queue in frame order: a fast successor rendered
        // on a parallel context waits for its predecessor.
        while let Some(pos) = self.rs_finished.iter().position(|&(f, _)| f == self.next_to_queue) {
            self.rs_finished.swap_remove(pos);
            let idx = self.next_to_queue;
            // dvs-lint: allow(panic, reason = "next_to_queue trails next_frame, so the frame state was created in try_start")
            let state = self.frames[idx].as_mut().expect("rs of unstarted frame");
            state.queued_at = Some(now);
            let meta = FrameMeta::new(idx as u64, state.content).with_rate(self.cfg.rate_hz);
            // dvs-lint: allow(panic, reason = "pump_rs assigns the slot before scheduling RsDone; absence is a state-machine bug")
            let slot = state.slot.expect("render stage had a slot");
            // dvs-lint: allow(panic, reason = "the slot was dequeued from this queue in pump_rs and queued exactly once")
            self.queue.queue(slot, meta, now).expect("slot was dequeued at render start");
            self.in_flight -= 1;
            self.next_to_queue += 1;
        }
    }

    /// The pulse of tick `k + 1`, for the handler of tick `k` running at
    /// `now`. A pulse fires inside its own refresh interval, so the cursor
    /// at `now` already holds the next tick; the timeline is asked only if
    /// it does not.
    pub(crate) fn pulse_after(
        &mut self,
        k: u64,
        now: SimTime,
        timeline: &VsyncTimeline,
    ) -> PulseEvent {
        let next = self.tick.at(timeline, now).next;
        if next.0 == k + 1 {
            PulseEvent { tick: next.0, at: next.1 }
        } else {
            timeline.pulse(k + 1)
        }
    }

    /// Consumes the state, completing the borrowed output report. Identical
    /// across engines by construction — this is the single assembly path,
    /// and (unlike a return-by-value report) it allocates nothing once the
    /// output's vectors have reached the run's working set.
    ///
    /// With `totals`, the run's frames are folded into the caller's running
    /// [`RunTotals`] instead of becoming records: the report still gets its
    /// janks, faults, transitions and span, but no record is built or
    /// classified. A run whose presents leave frame order takes the record
    /// path and is reduced from its sorted records, so every sum adds in
    /// record order either way.
    pub(crate) fn finish(mut self, timeline: &VsyncTimeline, totals: Option<&mut RunTotals>) {
        self.truncated |= self.presented < self.trace.len();
        self.out.truncated = self.truncated;
        self.out.max_queued = self.queue.max_queued_observed();
        self.out.mode_transitions = self.pacer.take_transitions();
        (self.out.display_time, self.out.ticks_active) = match self.first_present_tick {
            Some(first) => {
                let last = self.last_present_tick;
                let span = timeline.tick_time(last) - timeline.tick_time(first);
                (span + timeline.period_at(last), last - first + 1)
            }
            None => (SimDuration::ZERO, 0),
        };
        let Some(totals) = totals else {
            self.assemble_records(timeline);
            return;
        };
        totals.janks += self.out.janks.len();
        totals.display_time += self.out.display_time;
        totals.ticks_active += self.out.ticks_active;
        if !self.tally_frames(totals) {
            self.assemble_records(timeline);
            for record in &self.out.records {
                totals.add_record(record);
            }
        }
    }

    /// Adds every presented frame to `totals` in frame order, and returns
    /// `true`; or returns `false`, with `totals` untouched, as soon as a
    /// present leaves frame order (record order is present order).
    fn tally_frames(&self, totals: &mut RunTotals) -> bool {
        let (mut tally, mut last_tick) = (*totals, 0);
        for (s, cost) in self.frames.iter().zip(&self.trace.frames) {
            let Some(FrameState {
                basis, queued_at: Some(_), present: Some((ptick, ptime)), ..
            }) = s
            else {
                continue;
            };
            if *ptick < last_tick {
                return false;
            }
            last_tick = *ptick;
            tally.add_frame(ptime.saturating_since(*basis), cost.ui + cost.rs);
        }
        *totals = tally;
        true
    }

    /// Builds the presented frames' records into the output report.
    fn assemble_records(&mut self, timeline: &VsyncTimeline) {
        // Presented frames become records in one pass over the frame
        // states, classified as they are built. The queue is FIFO in frame
        // order, so frame order is present order and the jank scan can run
        // alongside; a run whose presents leave frame order is sorted
        // stably and classified again (the sort allocates past 20 records).
        let mut classify = Classifier::new(timeline);
        let latch = self.cfg.latch();
        let RunReport { records, janks, .. } = &mut *self.out;
        records.reserve(self.presented);
        let (mut in_order, mut last_tick) = (true, 0);
        for (idx, (s, cost)) in self.frames.iter().zip(&self.trace.frames).enumerate() {
            let Some(s) = s else { continue };
            let (Some((ptick, ptime)), Some(queued_at)) = (s.present, s.queued_at) else {
                continue;
            };
            in_order &= last_tick <= ptick;
            last_tick = ptick;
            let mut record = FrameRecord {
                seq: idx as u64,
                trigger: s.trigger,
                basis: s.basis,
                content_timestamp: s.content,
                queued_at,
                present: ptime,
                present_tick: ptick,
                eligible_tick: eligible_tick(&mut self.tick, timeline, queued_at + latch),
                kind: FrameKind::Direct,
                ui_cost: cost.ui,
                rs_cost: cost.rs,
            };
            record.kind = classify.next(janks, &record);
            records.push(record);
        }
        if !in_order {
            records.sort_by_key(|r| r.present_tick);
            let mut classify = Classifier::new(timeline);
            for r in records.iter_mut() {
                r.kind = classify.next(janks, r);
            }
        }
    }
}

/// The first tick a buffer can latch at, for a buffer whose latch deadline
/// (queue time plus the compose latch) is `target`.
fn eligible_tick(tick: &mut TickCursor, timeline: &VsyncTimeline, target: SimTime) -> u64 {
    if target.as_nanos() == 0 {
        return 0;
    }
    let probe = SimTime::from_nanos(target.as_nanos() - 1);
    // Frames queue in frame order, so successive probes rise and the cursor
    // answers most of them without a search.
    tick.at(timeline, probe).next.0
}

/// Classifies records taken in present order. The first frame presented
/// after a jank is the one the screen waited for — a drop. A frame whose
/// end-to-end latency exceeds the two-period pipeline depth waited behind
/// earlier frames (in the queue, or blocked on a buffer): stuffing. The
/// 20 % margin tolerates clock jitter.
struct Classifier {
    stuffed_threshold: SimDuration,
    /// Janks already passed by an earlier record.
    janks_seen: usize,
}

impl Classifier {
    fn new(timeline: &VsyncTimeline) -> Self {
        Classifier { stuffed_threshold: timeline.period_at(0).mul_f64(2.2), janks_seen: 0 }
    }

    /// The kind of `record`, the next record in present order.
    fn next(&mut self, janks: &[JankEvent], record: &FrameRecord) -> FrameKind {
        let seen = self.janks_seen;
        while janks.get(self.janks_seen).is_some_and(|j| j.tick < record.present_tick) {
            self.janks_seen += 1;
        }
        if self.janks_seen > seen {
            FrameKind::Dropped
        } else if record.latency() > self.stuffed_threshold {
            FrameKind::Stuffed
        } else {
            FrameKind::Direct
        }
    }
}

/// The single-pipeline state machine: exactly one [`SurfaceState`] plus the
/// panel timeline it alone drives. This is the path every pre-compositor
/// experiment runs on, and the byte-identity baseline the M=1 compositor is
/// differentially pinned to.
pub(crate) struct PipeState<'a, F: FaultView> {
    timeline: VsyncTimeline,
    tick_cap: u64,
    surface: SurfaceState<'a, F>,
}

impl<'a, F: FaultView> PipeState<'a, F> {
    pub(crate) fn new(
        cfg: &'a PipelineConfig,
        trace: &'a FrameTrace,
        pacer: &'a mut dyn FramePacer,
        faults: F,
        scratch: Scratch<'a>,
        out: &'a mut RunReport,
    ) -> Self {
        let mut timeline = cfg.build_timeline();
        let mut surface = SurfaceState::new(cfg, trace, pacer, faults, scratch, out);
        // With one surface, its injected rate switches reshape the panel's
        // tick grid directly before the run starts.
        surface.commit_rate_switches(&mut timeline);
        PipeState { timeline, tick_cap: cfg.tick_cap(trace.len()), surface }
    }

    /// The instant of the first event every run starts from (tick 0).
    pub(crate) fn first_pulse_at(&self) -> SimTime {
        self.timeline.pulse(0).at
    }

    /// Handles one popped event. `sched` enqueues follow-up events into the
    /// engine's dispatch structure.
    pub(crate) fn step(
        &mut self,
        t: SimTime,
        ev: Ev,
        sched: &mut impl FnMut(SimTime, Ev),
    ) -> StepOutcome {
        let s = &mut self.surface;
        match ev {
            Ev::Tick(k) => {
                if k >= self.tick_cap {
                    s.mark_truncated();
                    return StepOutcome::Done;
                }
                let missed = s.fault_missed(k);
                let delayed = s.fault_delayed(k);
                s.on_tick(k, t, missed, delayed, true);
                if s.complete() {
                    return StepOutcome::Done;
                }
                // An injected pulse delay shifts when the NEXT tick's event
                // fires; fault resolution clamps delays to a quarter period
                // so pulses stay ordered.
                let pulse = s.pulse_after(k, t, &self.timeline);
                sched(pulse.at + s.faults.tick_delay(pulse.tick), Ev::Tick(pulse.tick));
                // A present may have released a buffer the render stage was
                // blocked on.
                s.pump_rs(t, &self.timeline, sched);
                s.try_start(t, &self.timeline, sched);
            }
            Ev::UiDone(frame) => {
                s.on_ui_done(frame);
                s.pump_rs(t, &self.timeline, sched);
                s.try_start(t, &self.timeline, sched);
            }
            Ev::RsDone(frame) => {
                s.finish_rs(frame, t);
                s.pump_rs(t, &self.timeline, sched);
                s.try_start(t, &self.timeline, sched);
            }
            Ev::Wake => {
                s.clear_wake();
                s.try_start(t, &self.timeline, sched);
            }
        }
        StepOutcome::Continue
    }

    /// Consumes the state, completing the borrowed output report (and
    /// folding the run into `totals` when given; see
    /// [`SurfaceState::finish`]).
    pub(crate) fn finish(self, totals: Option<&mut RunTotals>) {
        self.surface.finish(&self.timeline, totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacer::VsyncPacer;
    use dvs_workload::FrameCost;

    /// No simulated run presents out of frame order, so `finish`'s
    /// fallback is driven here directly: four frames presented at ticks
    /// 3, 6, 5 and 9 (frames 1 and 2 swapped), with janks at ticks 4, 7
    /// and 8. Finishes the run into a fresh report, folding it into
    /// `totals` when given.
    fn finish_out_of_order(totals: Option<&mut RunTotals>) -> RunReport {
        let cfg = PipelineConfig::new(60, 3);
        let timeline = cfg.build_timeline();
        let mut trace = FrameTrace::new("out-of-order", 60);
        for _ in 0..4 {
            trace.push(FrameCost::new(SimDuration::from_millis(2), SimDuration::from_millis(5)));
        }
        let mut pacer = VsyncPacer::new();
        let mut arena = RunArena::new();
        let mut out = RunReport::default();
        let (scratch, _, faults) = arena.split();
        let mut s = SurfaceState::new(&cfg, &trace, &mut pacer, faults, scratch, &mut out);
        // (present tick, latency in µs) per frame; 2.2 periods is 36.7 ms.
        for (frame, (tick, latency_us)) in
            [(3, 20_100), (6, 40_300), (5, 19_700), (9, 20_900)].into_iter().enumerate()
        {
            let present = timeline.tick_time(tick);
            let basis = present - SimDuration::from_micros(latency_us);
            s.frames[frame] = Some(FrameState {
                trigger: basis,
                basis,
                content: basis,
                slot: None,
                queued_at: Some(basis),
                present: Some((tick, present)),
            });
        }
        for tick in [4, 7, 8] {
            s.out.janks.push(JankEvent { tick, time: timeline.tick_time(tick) });
        }
        s.presented = 4;
        (s.first_present_tick, s.last_present_tick) = (Some(3), 9);
        s.finish(&timeline, totals);
        out
    }

    /// Classified in frame order, frame 1 would take the jank at tick 4; in
    /// present order frame 2 does.
    #[test]
    fn presents_out_of_frame_order_are_sorted_then_classified() {
        let out = finish_out_of_order(None);
        let got: Vec<(u64, u64, FrameKind)> =
            out.records.iter().map(|r| (r.seq, r.present_tick, r.kind)).collect();
        assert_eq!(
            got,
            [
                (0, 3, FrameKind::Direct),
                (2, 5, FrameKind::Dropped),
                (1, 6, FrameKind::Stuffed),
                (3, 9, FrameKind::Dropped),
            ]
        );

        // The fold falls back to those sorted records, and continues the
        // caller's running totals from them in present order.
        let mut earlier = RunTotals::default();
        earlier.add_frame(SimDuration::from_micros(33_333), SimDuration::from_micros(7_100));
        let mut totals = earlier;
        let folded = finish_out_of_order(Some(&mut totals));
        assert_eq!(folded, out, "the fallback builds the record path's report");
        let mut want = earlier;
        want.janks += 3;
        want.display_time += out.display_time;
        want.ticks_active += out.ticks_active;
        out.records.iter().for_each(|r| want.add_record(r));
        assert_eq!(totals.latency_ms_sum.to_bits(), want.latency_ms_sum.to_bits());
        assert_eq!(totals.work_ms_sum.to_bits(), want.work_ms_sum.to_bits());
        assert_eq!(totals, want);
        assert_eq!((totals.records, totals.ticks_active), (5, 7));
    }
}
