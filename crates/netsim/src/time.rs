//! Virtual time for the discrete-event simulator.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start (lossy, for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From microseconds (saturating: a huge config value pins to the
    /// maximum duration instead of silently wrapping to a tiny one, which
    /// would fire spurious timeouts).
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// From milliseconds (saturating, see [`SimDuration::from_micros`]).
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// From seconds (saturating, see [`SimDuration::from_micros`]).
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Nanoseconds in this duration.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating multiply by a count (e.g. per-byte serialisation delay).
    pub fn saturating_mul(self, n: u64) -> Self {
        SimDuration(self.0.saturating_mul(n))
    }
}

/// Saturating, like the [`SimDuration`] constructors: a time past the end
/// of the clock pins to its last instant instead of wrapping into the past.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Saturating, as `SimTime + SimDuration` is.
impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        let t2 = t + SimDuration::from_micros(1);
        assert_eq!((t2 - t).as_nanos(), 1_000);
        assert_eq!(t2 - t2, SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::from_secs(1) > SimDuration::from_millis(999));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", SimTime(1_500_000)), "0.001500s");
    }

    #[test]
    fn constructors_saturate_instead_of_wrapping() {
        assert_eq!(SimDuration::from_secs(u64::MAX), SimDuration(u64::MAX));
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration(u64::MAX));
        assert_eq!(SimDuration::from_micros(u64::MAX), SimDuration(u64::MAX));
        // One past the largest exactly-representable input saturates...
        assert_eq!(
            SimDuration::from_secs(u64::MAX / 1_000_000_000 + 1),
            SimDuration(u64::MAX)
        );
        // ...while the largest exact input still converts exactly.
        let max_secs = u64::MAX / 1_000_000_000;
        assert_eq!(
            SimDuration::from_secs(max_secs),
            SimDuration(max_secs * 1_000_000_000)
        );
        assert_eq!(SimDuration::from_micros(3), SimDuration(3_000));
    }

    #[test]
    fn addition_saturates_instead_of_wrapping() {
        let max = SimDuration(u64::MAX);
        assert_eq!(SimTime(1) + max, SimTime(u64::MAX));
        let mut t = SimTime(u64::MAX - 1);
        t += SimDuration(2);
        assert_eq!(t, SimTime(u64::MAX));
        assert_eq!(max + SimDuration(1), max);
        assert_eq!(SimTime(2) + SimDuration(3), SimTime(5));
    }
}
