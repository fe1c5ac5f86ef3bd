//! Simulated time: absolute instants ([`SimTime`]), durations ([`Nanos`]) and
//! clock-domain conversion ([`ClockDomain`]).
//!
//! All timing in the simulator is integer nanoseconds. Integer time keeps
//! instants totally ordered without floating-point tie-break hazards and
//! makes runs bit-reproducible across platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration in simulated nanoseconds.
///
/// `Nanos` is the unit every cost model in the simulator speaks. It is a
/// thin newtype over `u64`, so copies are free and arithmetic is saturating
/// only where documented.
///
/// # Example
///
/// ```
/// use hetsim_engine::time::Nanos;
/// let setup = Nanos::from_micros(2);
/// let burst = Nanos::from_nanos(500);
/// assert_eq!((setup + burst).as_nanos(), 2_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Scales the duration by a non-negative factor, rounding to the nearest
    /// nanosecond. Non-finite or negative factors clamp to zero.
    pub fn scale(self, factor: f64) -> Nanos {
        if !factor.is_finite() || factor <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((self.0 as f64 * factor).round() as u64)
    }

    /// The larger of two durations.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// # Panics
    ///
    /// Panics in debug builds on underflow, like integer subtraction. Use
    /// [`Nanos::saturating_sub`] when the operands may be unordered.
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An absolute instant on the simulated timeline, measured in nanoseconds
/// since the start of the run.
///
/// # Example
///
/// ```
/// use hetsim_engine::time::{Nanos, SimTime};
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + Nanos::from_micros(3);
/// assert_eq!(t1.duration_since(t0), Nanos::from_micros(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw nanoseconds since time zero.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> Nanos {
        Nanos(self.0 - earlier.0)
    }

    /// Saturating variant of [`SimTime::duration_since`].
    pub fn saturating_duration_since(self, earlier: SimTime) -> Nanos {
        Nanos(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<Nanos> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Nanos) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<Nanos> for SimTime {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.as_nanos();
    }
}

impl From<Nanos> for SimTime {
    fn from(d: Nanos) -> SimTime {
        SimTime(d.as_nanos())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Nanos::from_nanos(self.0))
    }
}

/// A clock domain converting between cycle counts and wall-clock durations.
///
/// GPU cost models naturally count cycles; the event engine speaks
/// nanoseconds. A `ClockDomain` does the conversion for a fixed frequency.
///
/// # Example
///
/// ```
/// use hetsim_engine::time::ClockDomain;
/// // The A100's 1410 MHz boost clock.
/// let sm = ClockDomain::from_mhz(1410);
/// assert_eq!(sm.cycles_to_nanos(1410).as_nanos(), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockDomain {
    hz: f64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in MHz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be non-zero");
        ClockDomain {
            hz: mhz as f64 * 1e6,
        }
    }

    /// Frequency in Hz.
    pub fn hz(self) -> f64 {
        self.hz
    }

    /// Converts a cycle count to a duration, rounding to the nearest
    /// nanosecond.
    pub fn cycles_to_nanos(self, cycles: u64) -> Nanos {
        Nanos::from_secs_f64(cycles as f64 / self.hz)
    }

    /// Converts a fractional cycle count to a duration.
    pub fn cycles_f64_to_nanos(self, cycles: f64) -> Nanos {
        Nanos::from_secs_f64(cycles / self.hz)
    }

    /// Converts a duration to whole cycles (rounded to nearest).
    pub fn nanos_to_cycles(self, d: Nanos) -> u64 {
        (d.as_secs_f64() * self.hz).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
    }

    #[test]
    fn nanos_from_secs_f64_rounds() {
        assert_eq!(Nanos::from_secs_f64(1.5e-9), Nanos::from_nanos(2));
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_nanos(300);
        let b = Nanos::from_nanos(200);
        assert_eq!(a + b, Nanos::from_nanos(500));
        assert_eq!(a - b, Nanos::from_nanos(100));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a * 3, Nanos::from_nanos(900));
        assert_eq!(a / 3, Nanos::from_nanos(100));
    }

    #[test]
    fn nanos_scale_clamps_bad_factors() {
        let a = Nanos::from_nanos(1_000);
        assert_eq!(a.scale(0.5), Nanos::from_nanos(500));
        assert_eq!(a.scale(-1.0), Nanos::ZERO);
        assert_eq!(a.scale(f64::INFINITY), Nanos::ZERO);
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = (1..=4).map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(10));
    }

    #[test]
    fn nanos_display_picks_unit() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn simtime_advances() {
        let mut t = SimTime::ZERO;
        t += Nanos::from_nanos(7);
        assert_eq!(t.as_nanos(), 7);
        assert_eq!(t.duration_since(SimTime::ZERO), Nanos::from_nanos(7));
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(t),
            Nanos::ZERO,
            "saturating subtraction must not underflow"
        );
    }

    #[test]
    fn clock_domain_round_trips() {
        let c = ClockDomain::from_mhz(1410);
        let d = c.cycles_to_nanos(1_410_000);
        assert_eq!(d, Nanos::from_millis(1));
        assert_eq!(c.nanos_to_cycles(d), 1_410_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn clock_domain_rejects_zero() {
        let _ = ClockDomain::from_mhz(0);
    }
}
