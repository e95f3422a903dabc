//! Unit-safe scalar newtypes: [`Degrees`], [`Meters`], [`Seconds`].
//!
//! The pipeline mixes three silently-interchangeable scalar units —
//! degrees (Geolife latitudes/longitudes), meters (PoI radii, ENU
//! offsets), and seconds (visiting-time thresholds, sampling intervals).
//! A single swapped argument corrupts Table III / Figure 2 without any
//! test failing loudly. These newtypes make such a swap a *type error*:
//! public APIs of `backwatch-geo`, `backwatch-core`'s PoI layer,
//! `backwatch-trace` sampling, and `backwatch-defense` take them instead
//! of raw `f64`/`i64`, and the `backwatch-lint` unit-safety rule (US001)
//! rejects any new raw unit-named parameter in those crates.
//!
//! Design rules, chosen so the refactor stays **bit-identical** to the
//! raw-scalar code it replaced:
//!
//! - Each newtype is a transparent wrapper; [`Meters::get`] etc. return
//!   the exact stored value, and every arithmetic impl performs the one
//!   obvious operation on the wrapped scalar (no normalization, no
//!   clamping, no epsilon).
//! - Construction never validates: range checks stay where they always
//!   were (`LatLon::new`, extractor parameter asserts), so wrapping a
//!   value and immediately unwrapping it is the identity.
//! - Cross-unit arithmetic is deliberately absent: `Meters + Seconds`
//!   does not compile, which is the whole point.
//!
//! # Examples
//!
//! ```
//! use backwatch_geo::units::{Degrees, Meters, Seconds};
//!
//! let radius = Meters::new(50.0);
//! assert_eq!(radius.get(), 50.0);
//! assert_eq!(radius + Meters::new(25.0), Meters::new(75.0));
//! assert_eq!(Degrees::new(180.0).to_radians(), std::f64::consts::PI);
//! assert_eq!(Seconds::new(600) - Seconds::new(90), Seconds::new(510));
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An angle in degrees (latitudes, longitudes, latitude bands).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(f64);

/// A length in meters (PoI radii, ENU offsets, grid cell sizes).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Meters(f64);

/// A duration in whole seconds (dwell thresholds, sampling intervals).
///
/// Wraps `i64` because every timestamp in the workspace is an integer
/// second (`Timestamp`-style epoch offsets), and the paper's thresholds
/// are integer seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seconds(i64);

macro_rules! float_unit {
    ($ty:ident, $suffix:literal) => {
        impl $ty {
            /// The zero value.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw value. No validation: the wrapped scalar is
            /// stored exactly.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The raw wrapped value, exactly as stored.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Whether the wrapped value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Component-wise minimum.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Component-wise maximum.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl From<f64> for $ty {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$ty> for f64 {
            fn from(value: $ty) -> f64 {
                value.0
            }
        }

        impl Add for $ty {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $ty {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $ty {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $ty {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $ty {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dividing two like quantities yields a dimensionless ratio.
        impl Div for $ty {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $suffix)
            }
        }
    };
}

float_unit!(Degrees, "°");
float_unit!(Meters, " m");

impl Degrees {
    /// The angle in radians (`f64::to_radians` on the wrapped value).
    #[must_use]
    pub fn to_radians(self) -> f64 {
        self.0.to_radians()
    }

    /// Wraps an angle given in radians (`f64::to_degrees`).
    #[must_use]
    pub fn from_radians(radians: f64) -> Self {
        Self(radians.to_degrees())
    }
}

impl Seconds {
    /// The zero duration.
    pub const ZERO: Self = Self(0);

    /// Wraps a raw second count. No validation.
    #[must_use]
    pub const fn new(value: i64) -> Self {
        Self(value)
    }

    /// The raw wrapped second count.
    #[must_use]
    pub const fn get(self) -> i64 {
        self.0
    }

    /// The duration in minutes, truncating.
    #[must_use]
    pub const fn whole_minutes(self) -> i64 {
        self.0 / 60
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }
}

impl From<i64> for Seconds {
    fn from(value: i64) -> Self {
        Self(value)
    }
}

impl From<Seconds> for i64 {
    fn from(value: Seconds) -> i64 {
        value.0
    }
}

impl Add for Seconds {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for Seconds {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Neg for Seconds {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl Mul<i64> for Seconds {
    type Output = Self;
    fn mul(self, rhs: i64) -> Self {
        Self(self.0 * rhs)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_are_exact() {
        for v in [0.0, -1.5, 50.0, 1e-300, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(Meters::new(v).get().to_bits(), v.to_bits());
            assert_eq!(Degrees::new(v).get().to_bits(), v.to_bits());
        }
        for v in [0i64, -7, 600, i64::MAX, i64::MIN] {
            assert_eq!(Seconds::new(v).get(), v);
        }
    }

    #[test]
    fn arithmetic_matches_raw_scalars() {
        let (a, b) = (123.456_f64, -0.789_f64);
        assert_eq!((Meters::new(a) + Meters::new(b)).get(), a + b);
        assert_eq!((Meters::new(a) - Meters::new(b)).get(), a - b);
        assert_eq!((Meters::new(a) * 3.5).get(), a * 3.5);
        assert_eq!((Meters::new(a) / 3.5).get(), a / 3.5);
        assert_eq!(Meters::new(a) / Meters::new(b), a / b);
        assert_eq!((-Degrees::new(a)).get(), -a);
        assert_eq!((Seconds::new(90) * 2).get(), 180);
    }

    #[test]
    fn degrees_to_radians_matches_f64() {
        for v in [0.0, 39.9, -116.4, 180.0, 1e-12] {
            assert_eq!(Degrees::new(v).to_radians().to_bits(), v.to_radians().to_bits());
        }
        assert_eq!(Degrees::from_radians(std::f64::consts::PI), Degrees::new(180.0));
    }

    #[test]
    fn ordering_is_scalar_ordering() {
        assert!(Meters::new(1.0) < Meters::new(2.0));
        assert!(Seconds::new(600) >= Seconds::new(90));
        assert_eq!(Meters::new(5.0).max(Meters::new(3.0)), Meters::new(5.0));
        assert_eq!(Seconds::new(5).min(Seconds::new(3)), Seconds::new(3));
    }

    #[test]
    fn display_has_unit_suffix() {
        assert_eq!(Meters::new(50.0).to_string(), "50 m");
        assert_eq!(Seconds::new(600).to_string(), "600 s");
        assert_eq!(Degrees::new(39.9).to_string(), "39.9°");
    }

    #[test]
    fn seconds_whole_minutes_truncates() {
        assert_eq!(Seconds::new(119).whole_minutes(), 1);
        assert_eq!(Seconds::new(-61).whole_minutes(), -1);
    }
}
