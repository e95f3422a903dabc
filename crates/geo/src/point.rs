//! Validated WGS-84 coordinates.

use std::error::Error;
use std::fmt;

/// A WGS-84 latitude/longitude pair, in degrees.
///
/// Invariants enforced at construction:
/// - latitude ∈ [-90, +90]
/// - longitude ∈ [-180, +180]
/// - both components are finite
///
/// # Examples
///
/// ```
/// use backwatch_geo::LatLon;
///
/// let p = LatLon::new(39.98, 116.31)?;
/// assert_eq!(p.lat(), 39.98);
/// assert!(LatLon::new(91.0, 0.0).is_err());
/// # Ok::<(), backwatch_geo::LatLonError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLon {
    lat: f64,
    lon: f64,
}

/// Error returned when constructing a [`LatLon`] from out-of-range or
/// non-finite components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLonError {
    lat: f64,
    lon: f64,
}

impl fmt::Display for LatLonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid coordinate: lat={} lon={} (lat must be in [-90, 90], lon in [-180, 180], both finite)",
            self.lat, self.lon
        )
    }
}

impl Error for LatLonError {}

impl LatLon {
    /// Creates a coordinate, validating range and finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`LatLonError`] if either component is non-finite, if
    /// `lat ∉ [-90, 90]`, or if `lon ∉ [-180, 180]`.
    pub fn new(lat: f64, lon: f64) -> Result<Self, LatLonError> {
        if lat.is_finite() && lon.is_finite() && (-90.0..=90.0).contains(&lat) && (-180.0..=180.0).contains(&lon) {
            Ok(Self { lat, lon })
        } else {
            Err(LatLonError { lat, lon })
        }
    }

    /// Creates a coordinate, clamping latitude to [-90, 90] and wrapping
    /// longitude into [-180, 180].
    ///
    /// Useful when arithmetic (jitter, interpolation) may step slightly out
    /// of range near the domain edges. The wrap is unconditional, so an
    /// in-range longitude can move by an ulp (116.4 comes back as
    /// 116.39999999999998); use [`LatLon::new`] where exactness matters.
    ///
    /// # Panics
    ///
    /// Panics if either component is non-finite.
    #[must_use]
    pub fn clamped(lat: f64, lon: f64) -> Self {
        assert!(lat.is_finite() && lon.is_finite(), "non-finite coordinate");
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0).rem_euclid(360.0) - 180.0;
        if lon == -180.0 {
            lon = 180.0;
        }
        Self { lat, lon }
    }

    /// Latitude in degrees.
    #[must_use]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees.
    #[must_use]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Latitude in radians.
    #[must_use]
    pub fn lat_rad(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[must_use]
    pub fn lon_rad(&self) -> f64 {
        self.lon.to_radians()
    }

    /// Component-wise midpoint of two coordinates.
    ///
    /// Adequate at the city scales this workspace simulates (no antimeridian
    /// handling).
    #[must_use]
    pub fn midpoint(&self, other: &LatLon) -> LatLon {
        LatLon::clamped((self.lat + other.lat) / 2.0, (self.lon + other.lon) / 2.0)
    }
}

impl fmt::Display for LatLon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_range() {
        assert!(LatLon::new(0.0, 0.0).is_ok());
        assert!(LatLon::new(90.0, 180.0).is_ok());
        assert!(LatLon::new(-90.0, -180.0).is_ok());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(LatLon::new(90.01, 0.0).is_err());
        assert!(LatLon::new(-90.01, 0.0).is_err());
        assert!(LatLon::new(0.0, 180.01).is_err());
        assert!(LatLon::new(0.0, -180.01).is_err());
    }

    #[test]
    fn rejects_non_finite() {
        assert!(LatLon::new(f64::NAN, 0.0).is_err());
        assert!(LatLon::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_wraps_longitude() {
        let p = LatLon::clamped(10.0, 190.0);
        assert!((p.lon() - -170.0).abs() < 1e-9);
        let q = LatLon::clamped(95.0, -190.0);
        assert_eq!(q.lat(), 90.0);
        assert!((q.lon() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn clamped_keeps_negative_180_as_180() {
        let p = LatLon::clamped(0.0, -180.0);
        assert_eq!(p.lon(), 180.0);
    }

    #[test]
    fn midpoint_is_between() {
        let a = LatLon::new(10.0, 20.0).unwrap();
        let b = LatLon::new(20.0, 40.0).unwrap();
        let m = a.midpoint(&b);
        assert_eq!(m.lat(), 15.0);
        assert_eq!(m.lon(), 30.0);
    }

    #[test]
    fn display_has_six_decimals() {
        let p = LatLon::new(1.0, 2.0).unwrap();
        assert_eq!(p.to_string(), "(1.000000, 2.000000)");
    }

    #[test]
    fn error_display_mentions_values() {
        let e = LatLon::new(100.0, 0.0).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("lat=100"));
    }
}
