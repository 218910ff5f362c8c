//! The HW-VSync tick schedule.
//!
//! [`VsyncTimeline`] answers "when is tick *k*?" and "what is the next tick
//! after time *t*?" for a panel whose refresh rate may change over time
//! (LTPO). It can model an imperfect clock — parts-per-million drift plus
//! bounded per-tick jitter — which is what forces the paper's Display Time
//! Virtualizer to *calibrate the issued D-Timestamp every few frames with
//! hardware VSync signals to avoid error accumulation* (§5.1).

use dvs_sim::{DvsError, SimDuration, SimTime};

use crate::RefreshRate;

#[derive(Clone, Copy, Debug)]
struct Segment {
    /// Index of the first tick governed by this segment.
    first_tick: u64,
    /// Actual (drift-applied, jitter-free) time of `first_tick`.
    start: SimTime,
    /// Actual per-tick period, including drift.
    period: SimDuration,
    /// Nominal rate for reporting.
    rate: RefreshRate,
}

/// Builder for [`VsyncTimeline`].
///
/// # Examples
///
/// ```
/// use dvs_display::{RefreshRate, VsyncTimeline};
/// use dvs_sim::SimDuration;
///
/// let tl = VsyncTimeline::builder(RefreshRate::HZ_60)
///     .drift_ppm(50.0)
///     .jitter(SimDuration::from_micros(30), 7)
///     .build();
/// assert!(tl.tick_time(1) > tl.tick_time(0));
/// ```
#[derive(Clone, Debug)]
pub struct VsyncTimelineBuilder {
    rate: RefreshRate,
    phase: SimTime,
    drift_ppm: f64,
    jitter: SimDuration,
    jitter_seed: u64,
}

impl VsyncTimelineBuilder {
    /// Shifts tick 0 to the given instant.
    pub fn phase(mut self, at: SimTime) -> Self {
        self.phase = at;
        self
    }

    /// Applies a constant clock drift in parts per million.
    pub fn drift_ppm(mut self, ppm: f64) -> Self {
        self.drift_ppm = ppm;
        self
    }

    /// Applies deterministic bounded jitter to each tick.
    ///
    /// The amplitude is clamped to an eighth of the period so the tick
    /// sequence stays strictly monotonic.
    pub fn jitter(mut self, amplitude: SimDuration, seed: u64) -> Self {
        self.jitter = amplitude;
        self.jitter_seed = seed;
        self
    }

    /// Finishes the timeline.
    pub fn build(self) -> VsyncTimeline {
        let nominal = self.rate.period();
        let period = nominal.mul_f64(1.0 + self.drift_ppm * 1e-6);
        let jitter_cap = nominal / 8;
        VsyncTimeline {
            segments: vec![Segment { first_tick: 0, start: self.phase, period, rate: self.rate }],
            drift_ppm: self.drift_ppm,
            jitter: self.jitter.min(jitter_cap),
            jitter_seed: self.jitter_seed,
        }
    }
}

/// One hardware VSync pulse as a schedulable event: the tick index plus the
/// exact (drift- and jitter-applied) instant it fires.
///
/// The event-heap simulator core does not poll the timeline; it asks for the
/// next pulse and schedules it on its event queue, so dead time between
/// pulses costs nothing. LTPO rate switches are already folded into the
/// timeline's segments, so a pulse is correct across rate changes.
///
/// # Examples
///
/// ```
/// use dvs_display::{RefreshRate, VsyncTimeline};
///
/// let tl = VsyncTimeline::new(RefreshRate::HZ_60);
/// let p0 = tl.pulse(0);
/// let p1 = p0.next(&tl);
/// assert_eq!(p1.tick, 1);
/// assert_eq!(p1.at, tl.tick_time(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PulseEvent {
    /// The refresh index of this pulse.
    pub tick: u64,
    /// The instant the pulse fires.
    pub at: SimTime,
}

impl PulseEvent {
    /// The pulse after this one on `timeline`.
    pub fn next(self, timeline: &VsyncTimeline) -> PulseEvent {
        timeline.pulse(self.tick + 1)
    }
}

/// The refresh interval holding an instant, as
/// [`VsyncTimeline::interval_at`] answers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickInterval {
    /// The last tick at or before the instant, and its time.
    pub last: (u64, SimTime),
    /// The first tick strictly after the instant, and its time.
    pub next: (u64, SimTime),
    /// The period governing the interval from `last` (`period_at(last)`).
    pub period: SimDuration,
}

/// A memo of the refresh interval last asked for.
///
/// An event loop asks for the current interval many times per refresh (each
/// pacer decision, each render-stage dispatch), yet the answer changes only
/// when time crosses a tick. The cursor keeps the last answer and returns
/// it while the instant stays inside `[last, next)`. When the instant moves
/// on into the following refresh past the last rate switch, the cursor
/// steps one period forward; otherwise it asks the timeline again. It
/// caches only on jitter-free timelines, whose tick grid is plain
/// arithmetic; on a jittered one it asks the timeline on every query.
///
/// A cursor serves one timeline whose rate switches are all committed:
/// switching the rate afterwards can leave a stale interval behind.
///
/// # Examples
///
/// ```
/// use dvs_display::{RefreshRate, TickCursor, VsyncTimeline};
/// use dvs_sim::SimTime;
///
/// let tl = VsyncTimeline::new(RefreshRate::HZ_60);
/// let mut cursor = TickCursor::new();
/// let at = SimTime::from_millis(20);
/// assert_eq!(cursor.at(&tl, at), tl.interval_at(at));
/// assert_eq!(cursor.at(&tl, at).next, tl.next_tick_after(at));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TickCursor {
    interval: TickInterval,
}

impl TickCursor {
    /// A cursor holding no interval: the first query asks the timeline.
    pub const fn new() -> Self {
        TickCursor {
            interval: TickInterval {
                last: (0, SimTime::ZERO),
                next: (0, SimTime::ZERO),
                period: SimDuration::ZERO,
            },
        }
    }

    /// The interval holding `now` on `timeline`:
    /// [`VsyncTimeline::interval_at`], memoized.
    #[inline]
    pub fn at(&mut self, timeline: &VsyncTimeline, now: SimTime) -> TickInterval {
        let held = self.interval;
        if held.last.1 <= now && now < held.next.1 {
            return held;
        }
        if !timeline.jitter.is_zero() {
            return timeline.interval_at(now);
        }
        let last = timeline.last_segment();
        let step = held.next.1 + last.period;
        self.interval = if held.next.0 > last.first_tick && held.next.1 <= now && now < step {
            // The interval after the held one, past the last rate switch:
            // one period long, found without a division.
            TickInterval { last: held.next, next: (held.next.0 + 1, step), period: last.period }
        } else {
            timeline.interval_at(now)
        };
        self.interval
    }
}

impl Default for TickCursor {
    fn default() -> Self {
        Self::new()
    }
}

/// The schedule of hardware VSync ticks, possibly spanning rate changes.
///
/// # Examples
///
/// ```
/// use dvs_display::{RefreshRate, VsyncTimeline};
/// use dvs_sim::SimTime;
///
/// let mut tl = VsyncTimeline::new(RefreshRate::HZ_60);
/// assert_eq!(tl.tick_time(0), SimTime::ZERO);
/// let (k, t) = tl.next_tick_after(SimTime::from_millis(20));
/// assert_eq!(k, 2);
/// assert!(t > SimTime::from_millis(20));
///
/// // LTPO: drop to 30 Hz from tick 10 onwards.
/// tl.switch_rate_at_tick(10, RefreshRate::HZ_30);
/// let p120 = tl.tick_time(11) - tl.tick_time(10);
/// assert_eq!(p120, RefreshRate::HZ_30.period());
/// ```
#[derive(Clone, Debug)]
pub struct VsyncTimeline {
    segments: Vec<Segment>,
    drift_ppm: f64,
    jitter: SimDuration,
    jitter_seed: u64,
}

impl VsyncTimeline {
    /// An ideal timeline at the given rate: no drift, no jitter, tick 0 at 0.
    pub fn new(rate: RefreshRate) -> Self {
        Self::builder(rate).build()
    }

    /// Starts building a timeline with optional imperfections.
    pub fn builder(rate: RefreshRate) -> VsyncTimelineBuilder {
        VsyncTimelineBuilder {
            rate,
            phase: SimTime::ZERO,
            drift_ppm: 0.0,
            jitter: SimDuration::ZERO,
            jitter_seed: 0,
        }
    }

    /// The segment governing every tick from the last rate switch on.
    fn last_segment(&self) -> &Segment {
        // dvs-lint: allow(panic, reason = "segments is seeded with one segment at construction and never drained")
        self.segments.last().expect("at least one segment")
    }

    fn segment_for(&self, tick: u64) -> &Segment {
        let idx = match self.segments.binary_search_by(|s| s.first_tick.cmp(&tick)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        &self.segments[idx]
    }

    /// The jitter-free (but drift-applied) time of tick `tick`.
    pub fn ideal_tick_time(&self, tick: u64) -> SimTime {
        let s = self.segment_for(tick);
        s.start + s.period * (tick - s.first_tick)
    }

    /// The actual time of tick `tick`, with drift and jitter applied.
    pub fn tick_time(&self, tick: u64) -> SimTime {
        let ideal = self.ideal_tick_time(tick);
        if self.jitter.is_zero() {
            return ideal;
        }
        // Deterministic per-tick jitter in [-amplitude, +amplitude].
        let mut z = tick ^ self.jitter_seed.rotate_left(17) ^ 0x9E3779B97F4A7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let amp = self.jitter.as_nanos();
        let span = 2 * amp + 1;
        let offset = (z % span) as i64 - amp as i64;
        if offset >= 0 {
            ideal + SimDuration::from_nanos(offset as u64)
        } else {
            // Tick 0 never shifts before the origin.
            let back = SimDuration::from_nanos((-offset) as u64);
            SimTime::from_nanos(ideal.as_nanos().saturating_sub(back.as_nanos()))
        }
    }

    /// The period governing the interval starting at tick `tick`.
    pub fn period_at(&self, tick: u64) -> SimDuration {
        self.segment_for(tick).period
    }

    /// The nominal refresh rate governing tick `tick`.
    pub fn rate_at(&self, tick: u64) -> RefreshRate {
        self.segment_for(tick).rate
    }

    /// The first tick whose (jittered) time is strictly after `t`.
    pub fn next_tick_after(&self, t: SimTime) -> (u64, SimTime) {
        if let Some((k, at, _)) = self.closed_form_next(t) {
            return (k, at);
        }
        let last = self.last_segment();
        // Estimate from ideal arithmetic, then fix up across the jitter band.
        let mut k = if t < last.start {
            // Scan earlier segments (rare: there are only a handful).
            let s = self.segments.iter().rev().find(|s| s.start <= t).unwrap_or(&self.segments[0]);
            s.first_tick + t.saturating_since(s.start).div_duration(s.period)
        } else {
            last.first_tick + t.saturating_since(last.start).div_duration(last.period)
        };
        // Walk back while the previous tick is still after t.
        while k > 0 && self.tick_time(k - 1) > t {
            k -= 1;
        }
        // Walk forward to the first tick strictly after t.
        while self.tick_time(k) <= t {
            k += 1;
        }
        (k, self.tick_time(k))
    }

    /// Closed form of [`VsyncTimeline::next_tick_after`]: past the last
    /// rate switch a jitter-free grid is exact arithmetic, so the answer
    /// `(k, tick_time(k))` comes with the period of tick `k - 1`. The grid
    /// is continuous across segments, so this is the tick the walk would
    /// settle on. `None` where the walk is needed.
    fn closed_form_next(&self, t: SimTime) -> Option<(u64, SimTime, SimDuration)> {
        let last = self.last_segment();
        if !self.jitter.is_zero() || t < last.start {
            return None;
        }
        let k = last.first_tick + t.saturating_since(last.start).div_duration(last.period) + 1;
        Some((k, last.start + last.period * (k - last.first_tick), last.period))
    }

    /// The refresh interval holding `t`: the first tick strictly after `t`
    /// ([`VsyncTimeline::next_tick_after`]), the tick before it, and the
    /// period governing the interval between them.
    ///
    /// For `t` before tick 0 the `last` tick is tick 0 itself, which lies
    /// after `t`.
    pub fn interval_at(&self, t: SimTime) -> TickInterval {
        if let Some((k, at, period)) = self.closed_form_next(t) {
            // k - 1 is at or past the last segment's first tick.
            return TickInterval { last: (k - 1, at - period), next: (k, at), period };
        }
        let next = self.next_tick_after(t);
        let last = next.0.saturating_sub(1);
        TickInterval { last: (last, self.tick_time(last)), next, period: self.period_at(last) }
    }

    /// The pulse at tick `tick` as a schedulable event.
    pub fn pulse(&self, tick: u64) -> PulseEvent {
        PulseEvent { tick, at: self.tick_time(tick) }
    }

    /// Switches the nominal rate starting at tick `tick` (LTPO §5.3).
    ///
    /// The tick grid stays continuous: tick `tick` happens where the old rate
    /// would have placed it; subsequent ticks use the new period.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is not strictly after the previous segment start.
    /// Fallible callers (e.g. fault-injected switch schedules) should use
    /// [`VsyncTimeline::try_switch_rate_at_tick`].
    pub fn switch_rate_at_tick(&mut self, tick: u64, rate: RefreshRate) {
        if let Err(e) = self.try_switch_rate_at_tick(tick, rate) {
            // dvs-lint: allow(panic, reason = "documented panicking wrapper; fallible callers use try_switch_rate_at_tick")
            panic!("{e}");
        }
    }

    /// Fallible rate switch: rejects a switch at or before the latest
    /// committed segment start with a typed error instead of panicking.
    pub fn try_switch_rate_at_tick(
        &mut self,
        tick: u64,
        rate: RefreshRate,
    ) -> Result<(), DvsError> {
        let last_first = self.last_segment().first_tick;
        if tick <= last_first {
            return Err(DvsError::RateSwitchInPast { tick, segment_start: last_first });
        }
        let start = self.ideal_tick_time(tick);
        let period = rate.period().mul_f64(1.0 + self.drift_ppm * 1e-6);
        self.segments.push(Segment { first_tick: tick, start, period, rate });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_ticks_are_periodic() {
        let tl = VsyncTimeline::new(RefreshRate::HZ_60);
        let p = RefreshRate::HZ_60.period();
        for k in 0..100 {
            assert_eq!(tl.tick_time(k), SimTime::ZERO + p * k);
        }
    }

    #[test]
    fn next_tick_after_basics() {
        let tl = VsyncTimeline::new(RefreshRate::HZ_120);
        let p = RefreshRate::HZ_120.period();
        let (k, t) = tl.next_tick_after(SimTime::ZERO);
        assert_eq!((k, t), (1, SimTime::ZERO + p));
        // Exactly on a tick: "after" means strictly after.
        let (k, _) = tl.next_tick_after(SimTime::ZERO + p * 5);
        assert_eq!(k, 6);
    }

    #[test]
    fn jittered_ticks_stay_monotonic() {
        let tl = VsyncTimeline::builder(RefreshRate::HZ_60)
            .jitter(SimDuration::from_millis(2), 99)
            .build();
        let mut prev = tl.tick_time(0);
        for k in 1..5000 {
            let t = tl.tick_time(k);
            assert!(t > prev, "tick {k} not after tick {}", k - 1);
            prev = t;
        }
    }

    #[test]
    fn jitter_is_bounded() {
        let amp = SimDuration::from_micros(100);
        let tl = VsyncTimeline::builder(RefreshRate::HZ_60).jitter(amp, 3).build();
        for k in 1..1000 {
            let delta = if tl.tick_time(k) > tl.ideal_tick_time(k) {
                tl.tick_time(k) - tl.ideal_tick_time(k)
            } else {
                tl.ideal_tick_time(k) - tl.tick_time(k)
            };
            assert!(delta <= amp, "tick {k} jitter {delta}");
        }
    }

    #[test]
    fn drift_lengthens_period() {
        let tl = VsyncTimeline::builder(RefreshRate::HZ_60).drift_ppm(100.0).build();
        let p = tl.period_at(0);
        let nominal = RefreshRate::HZ_60.period();
        assert!(p > nominal);
        let excess = p - nominal;
        assert!(excess.as_nanos() < 2_000, "100 ppm of 16.7 ms is ~1.7 us");
    }

    #[test]
    fn next_tick_after_with_jitter_is_consistent() {
        let tl = VsyncTimeline::builder(RefreshRate::HZ_90)
            .jitter(SimDuration::from_micros(500), 11)
            .build();
        for probe_ms in 0..200u64 {
            let t = SimTime::from_millis(probe_ms);
            let (k, tk) = tl.next_tick_after(t);
            assert!(tk > t);
            if k > 0 {
                assert!(tl.tick_time(k - 1) <= t);
            }
        }
    }

    #[test]
    fn rate_switch_changes_period() {
        let mut tl = VsyncTimeline::new(RefreshRate::HZ_120);
        tl.switch_rate_at_tick(8, RefreshRate::HZ_60);
        let p_before = tl.tick_time(8) - tl.tick_time(7);
        let p_after = tl.tick_time(9) - tl.tick_time(8);
        assert_eq!(p_before, RefreshRate::HZ_120.period());
        assert_eq!(p_after, RefreshRate::HZ_60.period());
        assert_eq!(tl.rate_at(7), RefreshRate::HZ_120);
        assert_eq!(tl.rate_at(8), RefreshRate::HZ_60);
    }

    #[test]
    fn rate_switch_keeps_grid_continuous() {
        let mut tl = VsyncTimeline::new(RefreshRate::HZ_120);
        let at_8_before = tl.tick_time(8);
        tl.switch_rate_at_tick(8, RefreshRate::HZ_60);
        assert_eq!(tl.tick_time(8), at_8_before);
    }

    #[test]
    #[should_panic(expected = "must follow segment start")]
    fn rate_switch_in_past_panics() {
        let mut tl = VsyncTimeline::new(RefreshRate::HZ_120);
        tl.switch_rate_at_tick(5, RefreshRate::HZ_60);
        tl.switch_rate_at_tick(5, RefreshRate::HZ_90);
    }

    #[test]
    fn try_rate_switch_in_past_errors() {
        let mut tl = VsyncTimeline::new(RefreshRate::HZ_120);
        tl.switch_rate_at_tick(5, RefreshRate::HZ_60);
        assert_eq!(
            tl.try_switch_rate_at_tick(5, RefreshRate::HZ_90),
            Err(DvsError::RateSwitchInPast { tick: 5, segment_start: 5 })
        );
        // The failed attempt leaves the timeline usable.
        assert!(tl.try_switch_rate_at_tick(6, RefreshRate::HZ_90).is_ok());
        assert_eq!(tl.rate_at(6), RefreshRate::HZ_90);
    }

    #[test]
    fn next_tick_after_across_rate_switch() {
        let mut tl = VsyncTimeline::new(RefreshRate::HZ_120);
        tl.switch_rate_at_tick(4, RefreshRate::HZ_30);
        // Probe inside the 30 Hz region.
        let probe = tl.tick_time(4) + SimDuration::from_millis(1);
        let (k, _) = tl.next_tick_after(probe);
        assert_eq!(k, 5);
    }

    #[test]
    fn pulse_chain_tracks_tick_times_across_rate_switch() {
        let mut tl = VsyncTimeline::new(RefreshRate::HZ_120);
        tl.switch_rate_at_tick(6, RefreshRate::HZ_30);
        let mut pulse = tl.pulse(0);
        for k in 0..20 {
            assert_eq!(pulse.tick, k);
            assert_eq!(pulse.at, tl.tick_time(k));
            pulse = pulse.next(&tl);
        }
    }

    #[test]
    fn closed_form_next_tick_matches_the_walk() {
        let mut timelines = Vec::new();
        for rate in
            [RefreshRate::HZ_60, RefreshRate::HZ_90, RefreshRate::HZ_120, RefreshRate::from_hz(144)]
        {
            timelines.push(VsyncTimeline::new(rate));
            timelines.push(VsyncTimeline::builder(rate).drift_ppm(73.0).build());
            timelines.push(
                VsyncTimeline::builder(rate)
                    .drift_ppm(-41.0)
                    .phase(SimTime::from_micros(777))
                    .build(),
            );
            let mut switched = VsyncTimeline::builder(rate).drift_ppm(25.0).build();
            switched.switch_rate_at_tick(90, RefreshRate::HZ_60);
            switched.switch_rate_at_tick(240, RefreshRate::HZ_120);
            switched.switch_rate_at_tick(1_000, RefreshRate::from_hz(144));
            timelines.push(switched);
        }
        for tl in &timelines {
            let horizon = tl.tick_time(4_000);
            // Probes on, just before, and just after ticks, plus a coprime
            // stride through the whole span.
            let mut probes = Vec::new();
            for k in (0..4_000).step_by(37) {
                let at = tl.tick_time(k);
                probes.push(at);
                probes.push(at + SimDuration::from_nanos(1));
                probes.push(SimTime::from_nanos(at.as_nanos().saturating_sub(1)));
            }
            let stride = SimDuration::from_nanos(1_234_567);
            let mut t = SimTime::ZERO;
            while t <= horizon {
                probes.push(t);
                t += stride;
            }
            // The oracle walks the tick grid from tick 0, resuming from the
            // previous probe (probes ascend).
            let mut k_walk = 0;
            probes.sort();
            for &t in &probes {
                while tl.tick_time(k_walk) <= t {
                    k_walk += 1;
                }
                assert_eq!(tl.next_tick_after(t), (k_walk, tl.tick_time(k_walk)), "probe {t}");
            }
        }
    }

    #[test]
    fn phase_offsets_tick_zero() {
        let tl = VsyncTimeline::builder(RefreshRate::HZ_60).phase(SimTime::from_millis(3)).build();
        assert_eq!(tl.tick_time(0), SimTime::from_millis(3));
    }
}
