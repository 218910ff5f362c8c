//! The frame-pacing seam between the pipeline and the (D-)VSync policies.
//!
//! A [`FramePacer`] answers one question: *given the current pipeline state,
//! when may the next frame's UI stage start, and what timestamps does it
//! carry?* The baseline [`VsyncPacer`] answers "at the next VSync-app
//! signal"; `dvs-core`'s `DvsyncPacer` answers "immediately, up to the
//! pre-render limit" and stamps frames with virtualized display times.

use dvs_metrics::ModeTransition;
use dvs_sim::{SimDuration, SimTime};

/// A snapshot of pipeline state handed to the pacer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacerCtx {
    /// Current simulation time.
    pub now: SimTime,
    /// The refresh period currently in force.
    pub period: SimDuration,
    /// The latest tick at or before `now`: `(index, time)`.
    pub last_tick: (u64, SimTime),
    /// The next tick strictly after `now`: `(index, time)`.
    pub next_tick: (u64, SimTime),
    /// Buffers queued and awaiting the panel.
    pub queued: usize,
    /// Frames started but not yet queued (in UI or RS stage).
    pub in_flight: usize,
    /// Free buffer slots.
    pub free_slots: usize,
    /// Index of the frame that would start next.
    pub frame_index: u64,
    /// The tick at which the panel last presented, if any.
    pub last_present_tick: Option<u64>,
}

/// The pacer's answer: when the next frame starts and what it is stamped
/// with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FramePlan {
    /// When the UI stage may begin (`>= now`; `== now` starts immediately).
    pub start: SimTime,
    /// The latency basis (§6.3): the VSync-app event timestamp, or the
    /// virtual VSync-app timestamp implied by the D-Timestamp.
    pub basis: SimTime,
    /// The timestamp the frame content represents: the trigger time under
    /// VSync, or the predicted display time (D-Timestamp) under D-VSync.
    pub content_timestamp: SimTime,
}

/// A frame-triggering policy.
///
/// The simulator consults `plan_next` whenever a frame *could* start (UI
/// thread idle, a buffer slot free, frames remaining). Returning `None`
/// defers; the pacer is re-consulted on the next state change (tick, stage
/// completion, or present). Returning a plan with `start > now` schedules a
/// wake-up at `start`, where the pacer is consulted again.
///
/// A plan with `start <= now` is a commitment: the simulator starts the
/// frame immediately, so the pacer may update internal state (e.g. consume
/// a VSync trigger or advance a DTV prediction) when producing it.
pub trait FramePacer {
    /// Decides when the next frame may start.
    fn plan_next(&mut self, ctx: &PacerCtx) -> Option<FramePlan>;

    /// Notification: the panel presented frame `seq` at `tick`/`time`.
    fn on_present(&mut self, seq: u64, tick: u64, time: SimTime) {
        let _ = (seq, tick, time);
    }

    /// Notification: the panel repeated a frame (potential jank) at `tick`.
    fn on_jank(&mut self, tick: u64, time: SimTime) {
        let _ = (tick, time);
    }

    /// Drains the pacer's degradation/recovery transition log, if it keeps
    /// one. Called once by the simulator when assembling the run report;
    /// pacers without a degradation path return an empty log.
    fn take_transitions(&mut self) -> Vec<ModeTransition> {
        // dvs-lint: allow(hot-alloc-transitive, reason = "Vec::new is const and allocation-free: the empty value handed back by mem::take")
        Vec::new()
    }

    /// A short display name for reports.
    fn name(&self) -> &'static str;
}

/// The baseline VSync policy: one frame per VSync-app signal.
///
/// Mirrors Android's choreographer semantics: if the UI thread was busy when
/// its VSync callback fired, the callback runs as soon as the thread frees,
/// carrying the *most recent* VSync timestamp (skipped signals are not
/// replayed).
///
/// # Examples
///
/// ```
/// use dvs_pipeline::{FramePacer, VsyncPacer};
/// let pacer = VsyncPacer::new();
/// assert_eq!(pacer.name(), "VSync");
/// ```
#[derive(Clone, Debug, Default)]
pub struct VsyncPacer {
    /// First tick index whose trigger has not been consumed yet.
    next_trigger_tick: u64,
    /// VSync-app signal offset from the hardware tick (§2: software VSync
    /// signals fire at configured offsets from HW-VSync).
    app_offset: SimDuration,
}

impl VsyncPacer {
    /// Creates the baseline pacer with the VSync-app signal on the tick.
    pub fn new() -> Self {
        VsyncPacer { next_trigger_tick: 0, app_offset: SimDuration::ZERO }
    }

    /// Offsets the VSync-app signal from the hardware tick (Android's
    /// `appVsyncOffset`). The offset should stay well under a period.
    pub fn with_app_offset(mut self, offset: SimDuration) -> Self {
        self.app_offset = offset;
        self
    }
}

impl FramePacer for VsyncPacer {
    fn plan_next(&mut self, ctx: &PacerCtx) -> Option<FramePlan> {
        let (last_idx, last_time) = ctx.last_tick;
        // The signal for tick k fires at tick_time(k) + offset.
        let last_signal = last_time + self.app_offset;
        if self.next_trigger_tick <= last_idx && ctx.now >= last_signal {
            // A VSync-app signal already fired and is unconsumed: trigger now
            // with the latest signal's timestamp (choreographer catch-up).
            self.next_trigger_tick = last_idx + 1;
            return Some(FramePlan {
                start: ctx.now,
                basis: last_signal,
                content_timestamp: last_signal,
            });
        }
        // Otherwise wait for the next unconsumed signal.
        let next_signal = if self.next_trigger_tick <= last_idx {
            last_signal
        } else {
            ctx.next_tick.1 + self.app_offset
        };
        Some(FramePlan { start: next_signal, basis: next_signal, content_timestamp: next_signal })
    }

    fn name(&self) -> &'static str {
        "VSync"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(now_ms: u64, last: (u64, u64), next: (u64, u64), free: usize) -> PacerCtx {
        PacerCtx {
            now: SimTime::from_millis(now_ms),
            period: SimDuration::from_millis(16),
            last_tick: (last.0, SimTime::from_millis(last.1)),
            next_tick: (next.0, SimTime::from_millis(next.1)),
            queued: 0,
            in_flight: 0,
            free_slots: free,
            frame_index: 0,
            last_present_tick: None,
        }
    }

    #[test]
    fn triggers_at_tick_with_tick_basis() {
        let mut p = VsyncPacer::new();
        let plan = p.plan_next(&ctx(16, (1, 16), (2, 32), 2)).unwrap();
        assert_eq!(plan.start, SimTime::from_millis(16));
        assert_eq!(plan.basis, SimTime::from_millis(16));
    }

    #[test]
    fn consumed_trigger_defers_to_next_tick() {
        let mut p = VsyncPacer::new();
        let _ = p.plan_next(&ctx(16, (1, 16), (2, 32), 2)).unwrap();
        let plan = p.plan_next(&ctx(17, (1, 16), (2, 32), 2)).unwrap();
        assert_eq!(plan.start, SimTime::from_millis(32), "second frame waits for tick 2");
    }

    #[test]
    fn catch_up_uses_latest_tick_timestamp() {
        let mut p = VsyncPacer::new();
        let _ = p.plan_next(&ctx(0, (0, 0), (1, 16), 2)).unwrap();
        // UI thread was busy through ticks 1-3; freed at t=55.
        let plan = p.plan_next(&ctx(55, (3, 48), (4, 64), 2)).unwrap();
        assert_eq!(plan.start, SimTime::from_millis(55), "starts immediately");
        assert_eq!(plan.basis, SimTime::from_millis(48), "with the latest signal's stamp");
    }

    #[test]
    fn plans_even_without_free_slots() {
        // Buffer back-pressure lives at the render stage, not at frame
        // triggering: the UI callback still fires with zero free buffers.
        let mut p = VsyncPacer::new();
        assert!(p.plan_next(&ctx(16, (1, 16), (2, 32), 0)).is_some());
    }

    #[test]
    fn skipped_signals_are_not_replayed() {
        let mut p = VsyncPacer::new();
        let _ = p.plan_next(&ctx(55, (3, 48), (4, 64), 2)).unwrap();
        // Immediately re-consulted: must NOT fire triggers for skipped ticks
        // 1-2; the next trigger waits for tick 4.
        let plan = p.plan_next(&ctx(56, (3, 48), (4, 64), 2)).unwrap();
        assert_eq!(plan.start, SimTime::from_millis(64));
    }
}
