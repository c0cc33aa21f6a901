//! Virtual time for the discrete-event simulation.
//!
//! All simulation time is expressed in integer nanoseconds. Two newtypes keep
//! instants and durations from being confused ([`SimTime`] vs
//! [`SimDuration`]), mirroring `std::time::{Instant, Duration}` but with a
//! globally-ordered, serializable representation that starts at
//! [`SimTime::ZERO`] when the simulation boots.
//!
//! # Examples
//!
//! ```
//! use siperf_simcore::time::{SimDuration, SimTime};
//!
//! let t = SimTime::ZERO + SimDuration::from_millis(5);
//! assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(5_000));
//! assert!(t < t + SimDuration::from_nanos(1));
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, measured in nanoseconds since simulation boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch: the instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// deadline sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw nanoseconds since boot.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since boot.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since boot as a float, for report formatting.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`; saturates to
    /// zero in release builds.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "duration_since: earlier > self");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable duration; used as an "infinite" timeout.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds, truncating.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds, truncating.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Multiplies by an integer factor, saturating.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == u64::MAX {
            write!(f, "inf")
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_micros(10);
        assert_eq!(t1 - t0, SimDuration::from_micros(10));
        assert_eq!(t1 - SimDuration::from_micros(10), t0);
        let mut t = t0;
        t += SimDuration::from_nanos(5);
        assert_eq!(t.as_nanos(), 5);
        assert_eq!(
            SimDuration::from_micros(3) * 4,
            SimDuration::from_micros(12)
        );
        assert_eq!(
            SimDuration::from_micros(12) / 4,
            SimDuration::from_micros(3)
        );
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(SimTime::MAX.max(a), SimTime::MAX);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_nanos(5).saturating_sub(SimDuration::from_nanos(9)),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::MAX.saturating_mul(3), SimDuration::MAX);
        assert_eq!(
            SimDuration::MAX.checked_add(SimDuration::from_nanos(1)),
            None
        );
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(999).to_string(), "999ns");
        assert_eq!(SimDuration::from_micros(1).to_string(), "1.000us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
        assert_eq!(SimDuration::MAX.to_string(), "inf");
        assert_eq!(format!("{:?}", SimTime::from_nanos(1500)), "T+1.500us");
    }

    #[test]
    fn duration_since_saturates_in_release() {
        // Only meaningful in release; in debug this would assert, so guard.
        if !cfg!(debug_assertions) {
            let early = SimTime::from_nanos(10);
            let late = SimTime::from_nanos(20);
            assert_eq!(early.duration_since(late), SimDuration::ZERO);
        }
    }
}
