//! Simulated time.
//!
//! Time is kept in integer **microseconds** so that event ordering is
//! exact and runs are reproducible across platforms. The paper's
//! parameters are all in milliseconds (`PageCPU = 5 ms`,
//! `PageDisk = 20 ms`, `MsgCPU = 5 or 1 ms`), which microseconds
//! represent without rounding.
//!
//! Sums and products saturate at `u64::MAX` microseconds (about
//! 584 000 years): an overlong delay parks its event at the end of the
//! clock instead of wrapping it into the past, where the event calendar
//! could not order it.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in microseconds since
/// the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since time zero.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since time zero, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional milliseconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    /// When [`SimDuration::try_from_millis_f64`] rejects `ms`.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::try_from_millis_f64(ms).expect("durations must be finite, non-negative and in range")
    }

    /// Construct from fractional milliseconds, rounding to the nearest
    /// microsecond; `None` when `ms` is negative, NaN, infinite, or too
    /// long for the microsecond clock.
    #[inline]
    pub fn try_from_millis_f64(ms: f64) -> Option<Self> {
        let us = (ms * 1_000.0).round();
        // `u64::MAX as f64` rounds up to 2^64, so the bound is strict.
        (ms >= 0.0 && us < u64::MAX as f64).then_some(SimDuration(us as u64))
    }

    /// Microseconds in this span.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds in this span, as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds in this span, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(20).as_micros(), 20_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::from_micros(7).as_micros(), 7);
    }

    #[test]
    fn fractional_millis_round_to_nearest_micro() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(0.0004).as_micros(), 0);
        assert_eq!(SimDuration::from_millis_f64(0.0006).as_micros(), 1);
    }

    #[test]
    fn fallible_millis_reject_what_cannot_be_a_duration() {
        assert_eq!(
            SimDuration::try_from_millis_f64(2.5),
            Some(SimDuration::from_micros(2_500))
        );
        assert_eq!(
            SimDuration::try_from_millis_f64(0.0),
            Some(SimDuration::ZERO)
        );
        for bad in [
            -1.0,
            -1e-9,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e30,
        ] {
            assert_eq!(SimDuration::try_from_millis_f64(bad), None, "{bad}");
        }
        // The largest representable span still converts.
        assert!(SimDuration::try_from_millis_f64(1.8e16).is_some());
        assert!(SimDuration::try_from_millis_f64(1.9e16).is_none());
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        assert_eq!(
            SimDuration::from_millis(7) + SimDuration::from_millis(3),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            SimDuration::from_millis(20) / 4,
            SimDuration::from_millis(5)
        );
        assert_eq!(
            SimDuration::from_millis(5) * 3,
            SimDuration::from_millis(15)
        );
    }

    #[test]
    fn sums_and_products_saturate_at_the_end_of_the_clock() {
        let end = SimTime(u64::MAX);
        let long = SimDuration(u64::MAX - 1);
        assert_eq!(SimTime(2) + long, end);
        let mut t = SimTime(2);
        t += long;
        assert_eq!(t, end);
        assert_eq!(long + SimDuration(5), SimDuration(u64::MAX));
        let mut d = long;
        d += long;
        assert_eq!(d, SimDuration(u64::MAX));
        assert_eq!(long * 3, SimDuration(u64::MAX));
        assert_eq!([long, long].into_iter().sum::<SimDuration>(), d);
        // The longest delay a duration input accepts, one second in.
        let longest = SimDuration::try_from_millis_f64(18_446_744_073_709_549.0).unwrap();
        assert_eq!(SimTime::from_secs(1) + longest, end);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(9);
        assert_eq!(b.since(a), SimDuration::from_millis(6));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_subtraction_saturates() {
        let d = SimDuration::from_millis(3) - SimDuration::from_millis(9);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(format!("{}", SimTime::from_secs(1)), "1.000000s");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
