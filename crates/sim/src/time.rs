//! Virtual time represented as integer nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `Ns` is a transparent `u64` newtype: cheap to copy, totally ordered, and
/// saturating on subtraction so that cost-model arithmetic can never panic
/// in release builds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    /// Zero time.
    pub const ZERO: Ns = Ns(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: Ns = Ns(u64::MAX);

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Ns {
        Ns(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Ns {
        Ns(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Ns {
        Ns(s * 1_000_000_000)
    }

    /// Value in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in (fractional) microseconds.
    #[inline]
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, rhs: Ns) -> Ns {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, rhs: Ns) -> Ns {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for Ns {
    type Output = Ns;
    #[inline]
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Ns {
    #[inline]
    fn add_assign(&mut self, rhs: Ns) {
        *self = *self + rhs;
    }
}

impl Sub for Ns {
    type Output = Ns;
    #[inline]
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Ns {
    #[inline]
    fn sub_assign(&mut self, rhs: Ns) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Ns {
    type Output = Ns;
    #[inline]
    fn mul(self, rhs: u64) -> Ns {
        Ns(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Ns {
    type Output = Ns;
    #[inline]
    fn div(self, rhs: u64) -> Ns {
        Ns(self.0 / rhs)
    }
}

impl Sum for Ns {
    fn sum<I: Iterator<Item = Ns>>(iter: I) -> Ns {
        iter.fold(Ns::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Ns::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Ns::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Ns::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((Ns(1_500).as_micros_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(Ns(5) - Ns(7), Ns::ZERO);
        assert_eq!(Ns::MAX + Ns(1), Ns::MAX);
        assert_eq!(Ns(4) * u64::MAX, Ns::MAX);
    }

    #[test]
    fn ordering_and_minmax() {
        assert!(Ns(1) < Ns(2));
        assert_eq!(Ns(1).max(Ns(2)), Ns(2));
        assert_eq!(Ns(1).min(Ns(2)), Ns(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Ns(12)), "12ns");
        assert_eq!(format!("{}", Ns(1_500)), "1.500us");
        assert_eq!(format!("{}", Ns(2_500_000)), "2.500ms");
        assert_eq!(format!("{}", Ns(3_000_000_000)), "3.000s");
    }

    #[test]
    fn sum_of_spans() {
        let total: Ns = [Ns(1), Ns(2), Ns(3)].into_iter().sum();
        assert_eq!(total, Ns(6));
    }
}
