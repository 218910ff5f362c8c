//! Materialized fault schedules: concrete firings the simulator looks up.

use std::collections::{BTreeMap, BTreeSet};

use dvs_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::plan::{FaultEvent, Horizon};

/// A fully-resolved fault schedule for one run.
///
/// Produced by [`FaultPlan::materialize`](crate::FaultPlan::materialize);
/// every lookup is a pure read, so the simulator may consult it in any order
/// without perturbing the fault stream. All collections are ordered
/// (`BTreeMap`/`BTreeSet`) so serialization — and therefore golden-file
/// comparison — is canonical.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Extra UI-stage time per trace frame index.
    ui_extra: BTreeMap<u64, SimDuration>,
    /// Extra RS-stage time per trace frame index.
    rs_extra: BTreeMap<u64, SimDuration>,
    /// Refresh ticks whose VSync pulse is swallowed.
    missed_ticks: BTreeSet<u64>,
    /// Late-firing refresh ticks and how late they fire.
    tick_delay: BTreeMap<u64, SimDuration>,
    /// Refresh intervals during which buffer allocation is denied.
    alloc_deny: BTreeSet<u64>,
    /// Refresh-rate switches, strictly increasing in tick.
    rate_switches: BTreeMap<u64, u32>,
}

impl FaultSchedule {
    /// Folds one event into the schedule, clamping and bounds-checking
    /// against `horizon` ([`FaultEvent::resolve`]). Stacked stalls add up,
    /// stacked delays keep the largest, and a later rate switch at the same
    /// tick replaces an earlier one.
    pub(crate) fn apply_event(
        &mut self,
        event: FaultEvent,
        horizon: &Horizon,
        max_jitter: SimDuration,
    ) {
        let Some(event) = event.resolve(horizon, max_jitter) else { return };
        match event {
            FaultEvent::StallUi { frame, extra } => {
                *self.ui_extra.entry(frame).or_default() += extra;
            }
            FaultEvent::StallRs { frame, extra } => {
                *self.rs_extra.entry(frame).or_default() += extra;
            }
            FaultEvent::MissVsync { tick } => {
                self.missed_ticks.insert(tick);
            }
            FaultEvent::JitterVsync { tick, delay } => {
                let slot = self.tick_delay.entry(tick).or_default();
                *slot = (*slot).max(delay);
            }
            FaultEvent::DenyAlloc { tick } => {
                self.alloc_deny.insert(tick);
            }
            FaultEvent::RateSwitch { tick, rate_hz } => {
                self.rate_switches.insert(tick, rate_hz);
            }
        }
    }

    /// Extra UI-stage time injected into frame `frame` (zero when none).
    pub fn ui_extra(&self, frame: u64) -> SimDuration {
        self.ui_extra.get(&frame).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Extra RS-stage time injected into frame `frame` (zero when none).
    pub fn rs_extra(&self, frame: u64) -> SimDuration {
        self.rs_extra.get(&frame).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Whether the VSync pulse at `tick` is swallowed.
    pub fn is_missed(&self, tick: u64) -> bool {
        self.missed_ticks.contains(&tick)
    }

    /// How late the pulse at `tick` fires (zero when on time).
    pub fn tick_delay(&self, tick: u64) -> SimDuration {
        self.tick_delay.get(&tick).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Whether buffer allocation is denied during refresh interval `tick`.
    pub fn deny_alloc(&self, tick: u64) -> bool {
        self.alloc_deny.contains(&tick)
    }

    /// Refresh-rate switches in strictly increasing tick order.
    pub fn rate_switches(&self) -> Vec<(u64, u32)> {
        self.rate_switches.iter().map(|(&t, &r)| (t, r)).collect()
    }

    /// Flattens the schedule into dense O(1) lookups for a run of `ticks`
    /// refreshes over `frames` trace frames (the compositor's event-heap
    /// path; single-pipeline runs build them straight from the plan with
    /// [`CompiledFaults::from_plan`](crate::CompiledFaults::from_plan)).
    pub fn compile(&self, ticks: u64, frames: u64) -> crate::CompiledFaults {
        crate::CompiledFaults::compile(self, ticks, frames)
    }

    /// Iterator over swallowed ticks (compilation support).
    pub(crate) fn missed_tick_iter(&self) -> impl DoubleEndedIterator<Item = &u64> {
        self.missed_ticks.iter()
    }

    /// Iterator over pulse delays (compilation support).
    pub(crate) fn tick_delay_iter(&self) -> impl DoubleEndedIterator<Item = (&u64, &SimDuration)> {
        self.tick_delay.iter()
    }

    /// Iterator over denied intervals (compilation support).
    pub(crate) fn alloc_deny_iter(&self) -> impl DoubleEndedIterator<Item = &u64> {
        self.alloc_deny.iter()
    }

    /// Iterator over UI stalls (compilation support).
    pub(crate) fn ui_extra_iter(&self) -> impl DoubleEndedIterator<Item = (&u64, &SimDuration)> {
        self.ui_extra.iter()
    }

    /// Iterator over RS stalls (compilation support).
    pub(crate) fn rs_extra_iter(&self) -> impl DoubleEndedIterator<Item = (&u64, &SimDuration)> {
        self.rs_extra.iter()
    }

    /// Total number of distinct fault firings in the schedule.
    pub fn fault_count(&self) -> usize {
        self.ui_extra.len()
            + self.rs_extra.len()
            + self.missed_ticks.len()
            + self.tick_delay.len()
            + self.alloc_deny.len()
            + self.rate_switches.len()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fault_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> Horizon {
        Horizon::new(10, 100, SimDuration::from_nanos(16_666_667))
    }

    #[test]
    fn stacked_stalls_accumulate() {
        let mut s = FaultSchedule::default();
        let jit = SimDuration::from_millis(4);
        let e = FaultEvent::StallUi { frame: 2, extra: SimDuration::from_millis(3) };
        s.apply_event(e, &horizon(), jit);
        s.apply_event(e, &horizon(), jit);
        assert_eq!(s.ui_extra(2), SimDuration::from_millis(6));
        assert_eq!(s.ui_extra(3), SimDuration::ZERO);
    }

    #[test]
    fn stacked_jitter_takes_max_not_sum() {
        let mut s = FaultSchedule::default();
        let jit = SimDuration::from_millis(4);
        let small = FaultEvent::JitterVsync { tick: 9, delay: SimDuration::from_millis(1) };
        let big = FaultEvent::JitterVsync { tick: 9, delay: SimDuration::from_millis(2) };
        s.apply_event(big, &horizon(), jit);
        s.apply_event(small, &horizon(), jit);
        assert_eq!(s.tick_delay(9), SimDuration::from_millis(2));
    }

    #[test]
    fn zero_magnitude_events_are_noops() {
        let mut s = FaultSchedule::default();
        let jit = SimDuration::from_millis(4);
        s.apply_event(FaultEvent::StallRs { frame: 1, extra: SimDuration::ZERO }, &horizon(), jit);
        s.apply_event(
            FaultEvent::JitterVsync { tick: 1, delay: SimDuration::ZERO },
            &horizon(),
            jit,
        );
        assert!(s.is_empty());
    }

    #[test]
    fn serde_is_canonical() {
        let mut s = FaultSchedule::default();
        let jit = SimDuration::from_millis(4);
        s.apply_event(FaultEvent::MissVsync { tick: 30 }, &horizon(), jit);
        s.apply_event(FaultEvent::MissVsync { tick: 10 }, &horizon(), jit);
        let mut t = FaultSchedule::default();
        t.apply_event(FaultEvent::MissVsync { tick: 10 }, &horizon(), jit);
        t.apply_event(FaultEvent::MissVsync { tick: 30 }, &horizon(), jit);
        assert_eq!(serde_json::to_string(&s).unwrap(), serde_json::to_string(&t).unwrap());
    }
}
