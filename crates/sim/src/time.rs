//! Virtual time: nanosecond instants and durations.
//!
//! Simulated time is a simple monotonically increasing `u64` nanosecond
//! counter starting at zero. Two newtypes keep instants ([`SimTime`]) and
//! spans ([`SimDuration`]) statically distinct, mirroring
//! `std::time::{Instant, Duration}` but `Copy`, ordered, and serializable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use dvs_sim::{SimDuration, SimTime};
/// let t = SimTime::from_millis(16) + SimDuration::from_micros(700);
/// assert_eq!(t.as_nanos(), 16_700_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use dvs_sim::SimDuration;
/// let period = SimDuration::from_nanos(1_000_000_000 / 60);
/// assert!((period.as_millis_f64() - 16.666).abs() < 0.001);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvs_sim::{SimDuration, SimTime};
    /// let a = SimTime::from_millis(10);
    /// let b = SimTime::from_millis(4);
    /// assert_eq!(a.saturating_since(b), SimDuration::from_millis(6));
    /// assert_eq!(b.saturating_since(a), SimDuration::ZERO);
    /// ```
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction; `None` if `earlier` is after `self`.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a span from fractional milliseconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration(round_u64(ms.max(0.0) * 1e6))
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(round_u64(s.max(0.0) * 1e9))
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a float factor, clamping negatives to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(round_u64((self.0 as f64 * factor).max(0.0)))
    }

    /// How many whole `other` spans fit in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_duration(self, other: SimDuration) -> u64 {
        assert!(!other.is_zero(), "division by zero-length SimDuration");
        self.0 / other.0
    }

    /// The exact ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_duration_f64(self, other: SimDuration) -> f64 {
        assert!(!other.is_zero(), "division by zero-length SimDuration");
        self.0 as f64 / other.0 as f64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// The span between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is after `self`; use
    /// [`SimTime::saturating_since`] when order is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.3}ms)", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({:.3}ms)", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl From<u64> for SimDuration {
    fn from(ns: u64) -> Self {
        SimDuration(ns)
    }
}

/// Rounds to the nearest integer, half away from zero, with the saturating
/// `as` cast: exactly `x.round() as u64` for every `x`, so NaN and
/// negatives give 0 and anything at or past 2^64 gives `u64::MAX`.
///
/// The x86-64 baseline target has no SSE4.1 `roundsd`, so `f64::round`
/// lowers to a software routine; a truncating cast and one compare cost a
/// fraction of that on the per-frame duration conversions.
///
/// # Examples
///
/// ```
/// use dvs_sim::round_u64;
/// assert_eq!(round_u64(2.5), 3);
/// assert_eq!(round_u64(0.49999999999999994), 0);
/// assert_eq!(round_u64(f64::INFINITY), u64::MAX);
/// ```
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    // For x < 2^53 both `t as f64` and the difference are exact, so this is
    // the true fractional part; larger finite x are already integers.
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// Rounds to the nearest integer, half away from zero, with the saturating
/// `as` cast: exactly `x.round() as i64` for every `x`, so NaN gives 0 and
/// anything at or past ±2^63 gives `i64::MAX` or `i64::MIN`.
///
/// The signed twin of [`round_u64`], for the same reason: a truncating
/// cast and two compares instead of the software `f64::round`.
///
/// # Examples
///
/// ```
/// use dvs_sim::round_i64;
/// assert_eq!(round_i64(2.5), 3);
/// assert_eq!(round_i64(-2.5), -3);
/// assert_eq!(round_i64(-0.49999999999999994), 0);
/// assert_eq!(round_i64(f64::NEG_INFINITY), i64::MIN);
/// ```
#[inline]
pub fn round_i64(x: f64) -> i64 {
    let t = x as i64;
    // As in `round_u64`: for |x| < 2^53 the difference is the exact
    // fractional part (with x's sign); larger finite x are integers.
    let frac = x - t as f64;
    if frac >= 0.5 {
        t.saturating_add(1)
    } else if frac <= -0.5 {
        t.saturating_sub(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(2), SimDuration::from_nanos(2_000_000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(30);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(1));
    }

    #[test]
    fn checked_since_none_when_reversed() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert!(a.checked_since(b).is_none());
        assert_eq!(b.checked_since(a), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_millis_f64(16.7);
        assert!((d.as_millis_f64() - 16.7).abs() < 1e-9);
        let d = SimDuration::from_secs_f64(-1.0);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn div_duration_counts_whole_periods() {
        let total = SimDuration::from_millis(100);
        let period = SimDuration::from_nanos(16_666_667);
        assert_eq!(total.div_duration(period), 5);
        assert!((total.div_duration_f64(period) - 5.9999).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_duration_zero_panics() {
        let _ = SimDuration::from_millis(1).div_duration(SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds_and_clamps() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_nanos(15));
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{:?}", SimDuration::ZERO).is_empty());
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn round_u64_matches_round_then_cast() {
        let two52 = 2f64.powi(52);
        let edges = [
            0.0,
            0.5,
            0.49999999999999994,
            1.5,
            2.5,
            two52 - 0.5,
            two52 + 0.5,
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64),
            f64::MAX,
            f64::INFINITY,
            f64::NAN.max(0.0),
            f64::NAN,
            -0.5,
            -2.5,
        ];
        for x in edges {
            assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
        }
        let mut rng = crate::SimRng::seed_from(0x80_0D);
        for _ in 0..100_000 {
            // Magnitudes from 2^-4 to 2^70, plus the exact half-way points.
            let x = rng.next_f64() * 2f64.powi(rng.next_below(75) as i32 - 4);
            let half = x.trunc() + 0.5;
            for x in [x, half] {
                assert_eq!(round_u64(x), x.round() as u64, "x = {x:e}");
            }
        }
    }

    #[test]
    fn round_i64_matches_round_then_cast() {
        let two52 = 2f64.powi(52);
        let two63 = 2f64.powi(63);
        let mut edges = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            1.5,
            two52 - 0.5,
            two52 + 0.5,
            2f64.powi(53) + 2.0,
            two63,
            2f64.powi(64),
            f64::MAX,
            f64::INFINITY,
        ];
        // Every edge mirrored below zero, where the cast truncates upwards.
        edges.extend(edges.clone().into_iter().map(|x| -x));
        edges.extend([0.5, -0.5, 2.5, -2.5, f64::NAN, -f64::NAN]);
        for x in edges {
            assert_eq!(round_i64(x), x.round() as i64, "x = {x:e}");
        }
        let mut rng = crate::SimRng::seed_from(0x1_80_0D);
        for _ in 0..100_000 {
            // Magnitudes from 2^-4 to 2^70 of either sign, plus the exact
            // half-way points.
            let magnitude = rng.next_f64() * 2f64.powi(rng.next_below(75) as i32 - 4);
            let x = if rng.next_below(2) == 0 { magnitude } else { -magnitude };
            let half = x.trunc() + 0.5f64.copysign(x);
            for x in [x, half] {
                assert_eq!(round_i64(x), x.round() as i64, "x = {x:e}");
            }
        }
    }
}
