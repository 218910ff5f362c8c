//! Dense, O(1) fault lookups, drawn as far as a run reaches.
//!
//! The simulator's event-heap core consults the fault stream on every
//! pulse and every render dispatch. [`FaultSchedule`]'s ordered maps are the
//! right shape for canonical serialization, but a `BTreeMap` probe per tick
//! is measurable on the hot path — and materializing a plan sweeps every
//! tick-domain process over the whole horizon, the run's safety tick cap,
//! about twenty times the ticks a run normally takes. [`CompiledFaults`]
//! keeps the fault stream in dense arrays indexed by tick / frame and
//! builds them either way:
//!
//! * straight from a [`FaultPlan`] ([`CompiledFaults::from_plan`], or
//!   [`CompiledFaults::reload`] into pooled tables): scheduled events and
//!   frame-domain stalls are applied at set-up, and each tick-domain process
//!   (VSync miss, VSync jitter, allocation failure) is drawn from its own
//!   forked stream, in tick order, only when a query first reaches a tick;
//! * from an already materialized schedule ([`FaultSchedule::compile`]),
//!   which has nothing left to draw.
//!
//! The draws are the plan's own, so every query returns exactly what the
//! corresponding [`FaultSchedule`] query returns for
//! `plan.materialize(horizon)`; how far a run gets decides how many ticks are
//! drawn, never what they hold. Ticks past the horizon answer clean. A clean
//! run stays on one branch per query with no allocation at all, and reloaded
//! tables keep their capacity, so a warm pool draws without allocating.

use dvs_sim::SimDuration;

use crate::plan::{Draw, FaultEvent, FaultPlan, Horizon, StochasticKind};
use crate::schedule::FaultSchedule;

/// Bit flags marking which fault classes a run can contain at all.
const HAS_MISSED: u8 = 1 << 0;
const HAS_DELAY: u8 = 1 << 1;
const HAS_DENY: u8 = 1 << 2;
const HAS_UI: u8 = 1 << 3;
const HAS_RS: u8 = 1 << 4;

/// A run's fault stream as dense per-tick / per-frame arrays.
///
/// # Examples
///
/// ```
/// use dvs_faults::{CompiledFaults, FaultEvent, FaultPlan, Horizon};
/// use dvs_sim::SimDuration;
///
/// let plan = FaultPlan::new("k").with_event(FaultEvent::MissVsync { tick: 4 });
/// let horizon = Horizon::new(10, 100, SimDuration::from_nanos(16_666_667));
/// let mut faults = CompiledFaults::from_plan(&plan, &horizon);
/// assert!(faults.is_missed(4));
/// assert!(!faults.is_missed(5));
///
/// // The same answers from the materialized schedule.
/// let mut compiled = plan.materialize(&horizon).compile(100, 10);
/// assert!(compiled.is_missed(4));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CompiledFaults {
    /// Which classes exist at all; clean runs stay on the zero-flag path.
    classes: u8,
    /// Swallowed pulses, one bit per tick up to the last that fired.
    missed: Vec<bool>,
    /// Pulse delays, one slot per tick up to the last that fired.
    delay: Vec<SimDuration>,
    /// Denied-allocation intervals, one bit per tick up to the last denied.
    deny: Vec<bool>,
    /// Extra UI-stage time, one slot per trace frame up to the last stalled.
    ui_extra: Vec<SimDuration>,
    /// Extra RS-stage time, one slot per trace frame up to the last stalled.
    rs_extra: Vec<SimDuration>,
    /// Rate switches in strictly increasing tick order (applied once, before
    /// the event loop starts, so they stay a sorted list).
    rate_switches: Vec<(u64, u32)>,
    /// Tick-domain processes still drawing, in plan order.
    pending: Vec<Draw>,
    /// The last tick `pending` has drawn; `u64::MAX` once nothing is left
    /// to draw.
    drawn: u64,
    /// The horizon the stream resolves over.
    horizon: Horizon,
}

impl CompiledFaults {
    /// Resolves `plan` over `horizon`, drawing tick-domain processes on
    /// demand.
    pub fn from_plan(plan: &FaultPlan, horizon: &Horizon) -> Self {
        let mut faults = CompiledFaults::default();
        faults.reload(Some(plan), horizon);
        faults
    }

    /// Re-arms pooled tables for a new run over `horizon`: every table is
    /// emptied (keeping its capacity), then `plan`'s scheduled events and
    /// frame-domain stalls are applied and its tick-domain processes armed.
    /// `None` is a clean run.
    pub fn reload(&mut self, plan: Option<&FaultPlan>, horizon: &Horizon) {
        self.classes = 0;
        self.missed.clear();
        self.delay.clear();
        self.deny.clear();
        self.ui_extra.clear();
        self.rs_extra.clear();
        self.rate_switches.clear();
        self.pending.clear();
        self.drawn = u64::MAX;
        self.horizon = *horizon;
        let Some(plan) = plan else { return };
        for &event in &plan.scheduled {
            self.apply(event);
        }
        for mut process in plan.draws() {
            if process.per_frame() {
                for frame in 0..horizon.frames {
                    if let Some(event) = process.draw(frame) {
                        self.apply(event);
                    }
                }
            } else {
                self.classes |= class_of(process.kind());
                self.pending.push(process);
            }
        }
        if !self.pending.is_empty() {
            self.drawn = 0;
        }
    }

    /// Compiles a materialized `schedule` for a run of `ticks` refreshes
    /// over `frames` trace frames. An empty schedule compiles to no
    /// allocations; each class lands from its last index down, so its table
    /// is sized once.
    pub(crate) fn compile(schedule: &FaultSchedule, ticks: u64, frames: u64) -> Self {
        let mut c = CompiledFaults {
            rate_switches: schedule.rate_switches(),
            drawn: u64::MAX,
            ..Self::default()
        };
        for &tick in schedule.missed_tick_iter().rev().filter(|&&t| t <= ticks) {
            c.land(FaultEvent::MissVsync { tick });
        }
        for (&tick, &delay) in schedule.tick_delay_iter().rev().filter(|(&t, _)| t <= ticks) {
            c.land(FaultEvent::JitterVsync { tick, delay });
        }
        for &tick in schedule.alloc_deny_iter().rev().filter(|&&t| t <= ticks) {
            c.land(FaultEvent::DenyAlloc { tick });
        }
        for (&frame, &extra) in schedule.ui_extra_iter().rev().filter(|(&f, _)| f < frames) {
            c.land(FaultEvent::StallUi { frame, extra });
        }
        for (&frame, &extra) in schedule.rs_extra_iter().rev().filter(|(&f, _)| f < frames) {
            c.land(FaultEvent::StallRs { frame, extra });
        }
        c
    }

    /// Resolves `event` against the horizon and lands it.
    fn apply(&mut self, event: FaultEvent) {
        if let Some(event) = event.resolve(&self.horizon, self.horizon.max_jitter()) {
            self.land(event);
        }
    }

    /// Writes a resolved event into the tables, combining exactly as
    /// [`FaultSchedule`] does: stalls add up, delays keep the largest, and a
    /// later switch at the same tick replaces an earlier one.
    fn land(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::StallUi { frame, extra } => {
                self.classes |= HAS_UI;
                *slot(&mut self.ui_extra, frame) += extra;
            }
            FaultEvent::StallRs { frame, extra } => {
                self.classes |= HAS_RS;
                *slot(&mut self.rs_extra, frame) += extra;
            }
            FaultEvent::MissVsync { tick } => {
                self.classes |= HAS_MISSED;
                *slot(&mut self.missed, tick) = true;
            }
            FaultEvent::JitterVsync { tick, delay } => {
                self.classes |= HAS_DELAY;
                let d = slot(&mut self.delay, tick);
                *d = (*d).max(delay);
            }
            FaultEvent::DenyAlloc { tick } => {
                self.classes |= HAS_DENY;
                *slot(&mut self.deny, tick) = true;
            }
            FaultEvent::RateSwitch { tick, rate_hz } => {
                match self.rate_switches.binary_search_by_key(&tick, |&(t, _)| t) {
                    Ok(i) => self.rate_switches[i].1 = rate_hz,
                    Err(i) => self.rate_switches.insert(i, (tick, rate_hz)),
                }
            }
        }
    }

    /// Makes sure every pending process has drawn `tick`.
    #[inline]
    fn reach(&mut self, tick: u64) {
        if tick > self.drawn {
            self.draw_through(tick);
        }
    }

    /// Draws every pending process, tick by tick, up to `tick` or the end
    /// of the horizon, whichever comes first.
    fn draw_through(&mut self, tick: u64) {
        let end = tick.min(self.horizon.ticks);
        while self.drawn < end {
            self.drawn += 1;
            for i in 0..self.pending.len() {
                if let Some(event) = self.pending[i].draw(self.drawn) {
                    self.apply(event);
                }
            }
        }
        if self.drawn >= self.horizon.ticks {
            self.drawn = u64::MAX;
        }
    }

    /// Whether the VSync pulse at `tick` is swallowed.
    #[inline]
    pub fn is_missed(&mut self, tick: u64) -> bool {
        if self.classes & HAS_MISSED == 0 {
            return false;
        }
        self.reach(tick);
        self.missed.get(tick as usize).copied().unwrap_or(false)
    }

    /// How late the pulse at `tick` fires (zero when on time).
    #[inline]
    pub fn tick_delay(&mut self, tick: u64) -> SimDuration {
        if self.classes & HAS_DELAY == 0 {
            return SimDuration::ZERO;
        }
        self.reach(tick);
        self.delay.get(tick as usize).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Whether buffer allocation is denied during refresh interval `tick`.
    #[inline]
    pub fn deny_alloc(&mut self, tick: u64) -> bool {
        if self.classes & HAS_DENY == 0 {
            return false;
        }
        self.reach(tick);
        self.deny.get(tick as usize).copied().unwrap_or(false)
    }

    /// Extra UI-stage time injected into frame `frame` (zero when none).
    #[inline]
    pub fn ui_extra(&self, frame: u64) -> SimDuration {
        if self.classes & HAS_UI == 0 {
            return SimDuration::ZERO;
        }
        self.ui_extra.get(frame as usize).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Extra RS-stage time injected into frame `frame` (zero when none).
    #[inline]
    pub fn rs_extra(&self, frame: u64) -> SimDuration {
        if self.classes & HAS_RS == 0 {
            return SimDuration::ZERO;
        }
        self.rs_extra.get(frame as usize).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Refresh-rate switches in strictly increasing tick order.
    pub fn rate_switches(&self) -> &[(u64, u32)] {
        &self.rate_switches
    }
}

/// The class flag a stochastic process can set.
fn class_of(kind: StochasticKind) -> u8 {
    match kind {
        StochasticKind::GpuStall => HAS_RS,
        StochasticKind::UiPause => HAS_UI,
        StochasticKind::VsyncMiss => HAS_MISSED,
        StochasticKind::VsyncJitter => HAS_DELAY,
        StochasticKind::AllocFail => HAS_DENY,
    }
}

/// The entry for index `at`, growing `table` with empty entries up to it.
fn slot<T: Copy + Default>(table: &mut Vec<T>, at: u64) -> &mut T {
    let i = at as usize;
    if i >= table.len() {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultPlan, Horizon, StochasticFault, StochasticKind};
    use crate::profiles::{named_profile, profile_names};

    fn horizon(frames: u64, ticks: u64) -> Horizon {
        Horizon::new(frames, ticks, SimDuration::from_nanos(16_666_667))
    }

    /// A run's horizon at `rate_hz`, sized as the pipeline sizes it: the
    /// trace's frames and a tick cap of 20 ticks per frame plus 200.
    fn run_horizon(frames: u64, rate_hz: u64) -> Horizon {
        Horizon::new(frames, 20 * frames + 200, SimDuration::from_nanos(1_000_000_000 / rate_hz))
    }

    /// Asserts that `c` answers every query exactly as `schedule` does,
    /// ticks asked in increasing order up to `ticks` (and a little past).
    fn assert_same_answers(c: &mut CompiledFaults, schedule: &FaultSchedule, h: &Horizon) {
        for tick in 0..=h.ticks + 3 {
            assert_eq!(c.is_missed(tick), schedule.is_missed(tick), "miss @{tick}");
            assert_eq!(c.tick_delay(tick), schedule.tick_delay(tick), "delay @{tick}");
            assert_eq!(c.deny_alloc(tick), schedule.deny_alloc(tick), "deny @{tick}");
        }
        for frame in 0..h.frames + 3 {
            assert_eq!(c.ui_extra(frame), schedule.ui_extra(frame), "ui @{frame}");
            assert_eq!(c.rs_extra(frame), schedule.rs_extra(frame), "rs @{frame}");
        }
        assert_eq!(c.rate_switches(), schedule.rate_switches().as_slice());
    }

    #[test]
    fn empty_schedule_compiles_to_no_allocations() {
        let mut c = FaultSchedule::default().compile(1000, 50);
        assert!(c.missed.capacity() == 0 && c.delay.capacity() == 0);
        assert!(!c.is_missed(3));
        assert!(!c.deny_alloc(3));
        assert_eq!(c.tick_delay(3), SimDuration::ZERO);
        assert_eq!(c.ui_extra(3), SimDuration::ZERO);
        assert_eq!(c.rs_extra(3), SimDuration::ZERO);
        assert!(c.rate_switches().is_empty());
    }

    #[test]
    fn compiled_answers_match_schedule_exhaustively() {
        // A profile with every fault class, checked tick-by-tick and
        // frame-by-frame against the BTree-backed schedule.
        for key in ["a", "b", "c"] {
            let plan = named_profile("mixed", key).expect("profile exists");
            let h = horizon(200, 4200);
            let schedule = plan.materialize(&h);
            assert_same_answers(&mut schedule.compile(4200, 200), &schedule, &h);
        }
    }

    #[test]
    fn out_of_horizon_queries_are_clean() {
        let plan = FaultPlan::new("edge")
            .with_event(FaultEvent::MissVsync { tick: 9 })
            .with_event(FaultEvent::DenyAlloc { tick: 9 });
        let schedule = plan.materialize(&horizon(10, 9));
        for mut c in [schedule.compile(9, 10), CompiledFaults::from_plan(&plan, &horizon(10, 9))] {
            assert!(c.is_missed(9));
            assert!(c.deny_alloc(9));
            // Past the horizon: the tables answer false, matching a schedule
            // that was bounded by the same horizon.
            assert!(!c.is_missed(10_000));
            assert!(!c.deny_alloc(10_000));
            assert_eq!(c.ui_extra(10_000), SimDuration::ZERO);
        }
    }

    #[test]
    fn on_demand_draws_match_every_named_profile_at_every_rate() {
        for name in profile_names() {
            for rate_hz in [60, 90, 120] {
                for key in ["x", "y"] {
                    let plan = named_profile(name, format!("{key}/{name}/{rate_hz}")).unwrap();
                    let h = run_horizon(60, rate_hz);
                    let mut c = CompiledFaults::from_plan(&plan, &h);
                    assert_same_answers(&mut c, &plan.materialize(&h), &h);
                }
            }
        }
    }

    #[test]
    fn draws_do_not_depend_on_query_order() {
        // Jump far ahead first, then walk back from the start: each process
        // still draws its ticks in order, so the answers are the plan's.
        let plan =
            named_profile("vsync-noise", "order").unwrap().with_stochastic(StochasticFault {
                kind: StochasticKind::AllocFail,
                probability: 0.2,
                magnitude: SimDuration::ZERO,
            });
        let h = run_horizon(90, 90);
        let schedule = plan.materialize(&h);
        let mut c = CompiledFaults::from_plan(&plan, &h);
        assert_eq!(c.deny_alloc(700), schedule.deny_alloc(700));
        assert_eq!(c.tick_delay(5), schedule.tick_delay(5));
        assert_same_answers(&mut c, &schedule, &h);
    }

    #[test]
    fn scheduled_events_stack_on_stochastic_ones() {
        let mut plan = FaultPlan::new("stack");
        for kind in [
            StochasticKind::GpuStall,
            StochasticKind::UiPause,
            StochasticKind::VsyncMiss,
            StochasticKind::VsyncJitter,
            StochasticKind::AllocFail,
            StochasticKind::VsyncJitter,
        ] {
            plan = plan.with_stochastic(StochasticFault {
                kind,
                probability: 0.3,
                magnitude: SimDuration::from_millis(3),
            });
        }
        let ms = SimDuration::from_millis;
        for at in [0, 1, 2, 5, 8, 13, 21, 34, 55, 59, 60, 1_000, 1_400, 1_401] {
            plan = plan
                .with_event(FaultEvent::StallUi { frame: at, extra: ms(2) })
                .with_event(FaultEvent::StallRs { frame: at, extra: ms(4) })
                .with_event(FaultEvent::MissVsync { tick: at })
                .with_event(FaultEvent::JitterVsync { tick: at, delay: ms(at % 7) })
                .with_event(FaultEvent::DenyAlloc { tick: at });
        }
        for rate_hz in [60, 90, 120] {
            let h = run_horizon(60, rate_hz);
            let mut c = CompiledFaults::from_plan(&plan, &h);
            assert_same_answers(&mut c, &plan.materialize(&h), &h);
        }
    }

    #[test]
    fn rate_switches_resolve_like_the_schedule() {
        let plan = FaultPlan::new("rates")
            .with_event(FaultEvent::RateSwitch { tick: 90, rate_hz: 60 })
            .with_event(FaultEvent::RateSwitch { tick: 30, rate_hz: 120 })
            .with_event(FaultEvent::RateSwitch { tick: 90, rate_hz: 90 })
            .with_event(FaultEvent::RateSwitch { tick: 0, rate_hz: 144 })
            .with_event(FaultEvent::RateSwitch { tick: 40, rate_hz: 0 })
            .with_event(FaultEvent::RateSwitch { tick: 5_000, rate_hz: 60 })
            .with_stochastic(StochasticFault {
                kind: StochasticKind::VsyncMiss,
                probability: 0.1,
                magnitude: SimDuration::ZERO,
            });
        let h = run_horizon(60, 120);
        let mut c = CompiledFaults::from_plan(&plan, &h);
        assert_eq!(c.rate_switches(), &[(1, 144), (30, 120), (90, 90)]);
        assert_same_answers(&mut c, &plan.materialize(&h), &h);
    }

    #[test]
    fn tables_grow_only_as_far_as_the_run_reaches() {
        let plan = named_profile("mixed", "reach").unwrap().with_stochastic(StochasticFault {
            kind: StochasticKind::VsyncJitter,
            probability: 0.5,
            magnitude: SimDuration::from_millis(2),
        });
        let h = run_horizon(60, 60);
        let mut c = CompiledFaults::from_plan(&plan, &h);
        for tick in 0..=80 {
            c.is_missed(tick);
        }
        assert_eq!(c.drawn, 80, "draws stop at the deepest tick asked");
        assert!(c.missed.len() <= 81 && c.delay.len() <= 81 && c.deny.len() <= 81);
        // Reaching the horizon retires the processes.
        c.deny_alloc(h.ticks + 10);
        assert_eq!(c.drawn, u64::MAX);
    }

    #[test]
    fn reloaded_tables_match_fresh_ones_and_keep_capacity() {
        let h = run_horizon(60, 90);
        let mut pooled = CompiledFaults::default();
        let plans: Vec<FaultPlan> = profile_names()
            .iter()
            .map(|name| named_profile(name, format!("pool/{name}")).unwrap())
            .collect();
        for plan in plans.iter().chain(&plans) {
            pooled.reload(Some(plan), &h);
            assert_same_answers(&mut pooled, &plan.materialize(&h), &h);
        }
        let capacity = pooled.missed.capacity();
        assert!(capacity > 0);
        pooled.reload(None, &h);
        assert!(!pooled.is_missed(3) && pooled.rate_switches().is_empty());
        assert_eq!(pooled.missed.capacity(), capacity, "a clean reload keeps the tables");
    }
}
