//! The Display Time Virtualizer (§4.4): computing the D-Timestamp.
//!
//! DTV answers: *when will the frame being triggered right now physically
//! appear on the panel?* The rendering system's behaviour is deterministic —
//! the screen drains the queue in FIFO order, one buffer per VSync — so the
//! display slot of a new frame is the first free slot after everything
//! already ahead of it. DTV maintains its own model of the HW-VSync clock
//! (period estimate + anchor), **calibrating it every few frames against
//! observed hardware signals to avoid error accumulation** (§5.1), and stays
//! elastic to residual frame drops by re-synchronising its slot counter when
//! a frame is observed presenting later than assigned.

use std::collections::VecDeque;

use dvs_sim::{SimDuration, SimTime};

/// The Display Time Virtualizer.
///
/// # Examples
///
/// ```
/// use dvs_core::Dtv;
/// use dvs_sim::{SimDuration, SimTime};
///
/// let period = SimDuration::from_nanos(16_666_667);
/// let mut dtv = Dtv::new(period);
/// dtv.observe_tick(0, SimTime::ZERO);
/// // Frame 0 could land at tick 2 at the earliest:
/// let (slot, d_ts) = dtv.assign_display_slot(2, 0);
/// assert_eq!(slot, 2);
/// assert_eq!(d_ts, SimTime::ZERO + period * 2);
/// // Consecutive frames get consecutive slots — uniform pacing.
/// let (slot1, _) = dtv.assign_display_slot(2, 1);
/// assert_eq!(slot1, 3);
/// ```
#[derive(Clone, Debug)]
pub struct Dtv {
    /// Estimated VSync period in nanoseconds (EWMA over observed deltas).
    period_est_ns: f64,
    /// The observation the time model is anchored to.
    anchor: Option<(u64, SimTime)>,
    /// Most recent observation (used for period deltas).
    last_obs: Option<(u64, SimTime)>,
    /// Re-anchor after this many observations ("calibrates every few
    /// frames", §5.1). Larger values let model error accumulate.
    calibrate_every: u32,
    since_calibration: u32,
    /// The next display slot to hand out (uniform pacing guarantee).
    next_assign_tick: u64,
    /// Outstanding `(seq, assigned_tick)` pairs awaiting their present.
    assigned: VecDeque<(u64, u64)>,
    predictions: u64,
    mispredictions: u64,
}

impl Dtv {
    /// Creates a virtualizer with the panel's nominal period and the default
    /// calibration cadence (every 4 observations).
    ///
    /// # Panics
    ///
    /// Panics if `nominal_period` is zero.
    pub fn new(nominal_period: SimDuration) -> Self {
        assert!(!nominal_period.is_zero(), "period must be positive");
        Dtv {
            period_est_ns: nominal_period.as_nanos() as f64,
            anchor: None,
            last_obs: None,
            calibrate_every: 4,
            since_calibration: 0,
            next_assign_tick: 0,
            assigned: VecDeque::new(),
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Sets the calibration cadence; `u32::MAX` effectively disables
    /// re-anchoring (the ablation knob for §5.1's claim).
    pub fn with_calibration_interval(mut self, every: u32) -> Self {
        self.calibrate_every = every.max(1);
        self
    }

    /// Feeds an observed hardware VSync signal into the clock model.
    pub fn observe_tick(&mut self, tick: u64, time: SimTime) {
        if let Some((t0, time0)) = self.last_obs {
            if tick > t0 {
                let delta = time.saturating_since(time0).as_nanos() as f64 / (tick - t0) as f64;
                // EWMA: smooth over jitter while tracking drift.
                self.period_est_ns = 0.9 * self.period_est_ns + 0.1 * delta;
            }
        }
        self.last_obs = Some((tick, time));
        self.since_calibration += 1;
        if self.anchor.is_none() || self.since_calibration >= self.calibrate_every {
            self.anchor = Some((tick, time));
            self.since_calibration = 0;
        }
    }

    /// The model's estimate of when tick `tick` fires.
    ///
    /// # Panics
    ///
    /// Panics if no hardware signal has been observed yet.
    pub fn estimate_tick_time(&self, tick: u64) -> SimTime {
        // dvs-lint: allow(panic, reason = "documented panicking accessor; callers observe a VSync before estimating")
        let (a_tick, a_time) = self.anchor.expect("DTV needs at least one observed VSync");
        let delta = (tick as i64 - a_tick as i64) as f64 * self.period_est_ns;
        let ns = a_time.as_nanos() as i64 + dvs_sim::round_i64(delta);
        SimTime::from_nanos(ns.max(0) as u64)
    }

    /// The current period estimate.
    pub fn period_estimate(&self) -> SimDuration {
        SimDuration::from_nanos(dvs_sim::round_u64(self.period_est_ns))
    }

    /// Assigns frame `seq` its display slot: the later of the earliest
    /// feasible tick (from queue state) and the slot after the previously
    /// assigned one (uniform pacing). Returns `(tick, D-Timestamp)`.
    ///
    /// # Panics
    ///
    /// Panics if no hardware signal has been observed yet.
    pub fn assign_display_slot(&mut self, earliest_feasible_tick: u64, seq: u64) -> (u64, SimTime) {
        let target = earliest_feasible_tick.max(self.next_assign_tick);
        self.next_assign_tick = target + 1;
        self.assigned.push_back((seq, target));
        self.predictions += 1;
        (target, self.estimate_tick_time(target))
    }

    /// Notifies DTV that frame `seq` presented at `tick`. If the frame was
    /// late relative to its assigned slot (a residual drop), the slot
    /// counter re-synchronises — the elasticity of §5.1.
    pub fn on_presented(&mut self, seq: u64, tick: u64) {
        while let Some(&(s, assigned)) = self.assigned.front() {
            if s > seq {
                break;
            }
            self.assigned.pop_front();
            if s == seq && assigned != tick {
                self.mispredictions += 1;
                // Skip the missed periods. Frames still outstanding drain in
                // FIFO order at one per refresh at best, so the next fresh
                // assignment lands after the whole backlog.
                let after_backlog = tick + 1 + self.assigned.len() as u64;
                self.next_assign_tick = self.next_assign_tick.max(after_backlog);
            }
        }
    }

    /// Total slots assigned.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Assignments whose frame presented at a different tick.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Fraction of assignments that were wrong (0 when none made).
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: SimDuration = SimDuration::from_nanos(16_666_667);

    fn observed(n: u64) -> Dtv {
        let mut dtv = Dtv::new(P);
        for k in 0..=n {
            dtv.observe_tick(k, SimTime::ZERO + P * k);
        }
        dtv
    }

    #[test]
    fn estimates_ideal_clock_exactly() {
        let dtv = observed(10);
        for k in 0..30 {
            let est = dtv.estimate_tick_time(k);
            let truth = SimTime::ZERO + P * k;
            let err = est.saturating_since(truth).max(truth.saturating_since(est));
            assert!(err.as_nanos() < 100, "tick {k}: est {est} truth {truth}");
        }
    }

    #[test]
    fn uniform_pacing_of_assignments() {
        let mut dtv = observed(2);
        let mut prev = None;
        for seq in 0..10 {
            // Feasibility says "tick 3" every time; pacing must still advance.
            let (slot, _) = dtv.assign_display_slot(3, seq);
            if let Some(p) = prev {
                assert_eq!(slot, p + 1, "slots must be consecutive");
            }
            prev = Some(slot);
        }
    }

    #[test]
    fn feasibility_can_push_slots_out() {
        let mut dtv = observed(2);
        let (a, _) = dtv.assign_display_slot(3, 0);
        let (b, _) = dtv.assign_display_slot(10, 1);
        assert_eq!((a, b), (3, 10));
    }

    #[test]
    fn elastic_to_late_presents() {
        let mut dtv = observed(2);
        let (slot, _) = dtv.assign_display_slot(3, 0);
        assert_eq!(slot, 3);
        // The frame actually landed two ticks late (residual drop).
        dtv.on_presented(0, 5);
        assert_eq!(dtv.mispredictions(), 1);
        let (next, _) = dtv.assign_display_slot(4, 1);
        assert_eq!(next, 6, "skips the missed periods");
    }

    #[test]
    fn correct_present_is_not_a_misprediction() {
        let mut dtv = observed(2);
        let (slot, _) = dtv.assign_display_slot(3, 0);
        dtv.on_presented(0, slot);
        assert_eq!(dtv.mispredictions(), 0);
        assert_eq!(dtv.misprediction_rate(), 0.0);
    }

    #[test]
    fn tracks_drifting_clock() {
        // 500 ppm fast clock.
        let real_period = SimDuration::from_nanos(16_675_000);
        let mut dtv = Dtv::new(P);
        for k in 0..200u64 {
            dtv.observe_tick(k, SimTime::ZERO + real_period * k);
        }
        let est = dtv.period_estimate().as_nanos() as f64;
        assert!(
            (est - 16_675_000.0).abs() < 500.0,
            "period estimate {est} should converge to the drifted period"
        );
    }

    #[test]
    fn calibration_bounds_prediction_error_under_noisy_clock() {
        // A drifting clock with bounded per-tick jitter: the regime §5.1's
        // "calibrate every few frames to avoid error accumulation" targets.
        let real_period_ns: f64 = 16_680_000.0; // ~800 ppm fast
        let jitter = |k: u64| -> f64 {
            let mut z = k.wrapping_mul(0x9E3779B97F4A7C15) ^ 0x1234_5678;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            ((z % 200_001) as f64) - 100_000.0 // ±100 µs
        };
        let truth = |k: u64| -> f64 { real_period_ns * k as f64 + jitter(k) };
        let horizon = 3u64;

        let predict_err = |calibrate_every: u32| -> f64 {
            let mut dtv = Dtv::new(P).with_calibration_interval(calibrate_every);
            let mut worst: f64 = 0.0;
            for k in 0..400u64 {
                dtv.observe_tick(k, SimTime::from_nanos(truth(k) as u64));
                // Skip the EWMA warm-up before scoring.
                if k < 100 {
                    continue;
                }
                let est = dtv.estimate_tick_time(k + horizon).as_nanos() as f64;
                worst = worst.max((est - truth(k + horizon)).abs());
            }
            worst
        };

        let calibrated = predict_err(4);
        let uncalibrated = predict_err(u32::MAX);
        assert!(
            calibrated < 1_000_000.0,
            "calibrated worst error {calibrated} ns should stay well under a ms"
        );
        assert!(
            calibrated * 3.0 < uncalibrated,
            "frequent calibration ({calibrated} ns) must clearly beat a stale \
             anchor ({uncalibrated} ns)"
        );
    }

    #[test]
    #[should_panic(expected = "at least one observed")]
    fn estimate_before_observation_panics() {
        Dtv::new(P).estimate_tick_time(3);
    }
}
