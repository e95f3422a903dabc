//! Local east-north-up (ENU) tangent-plane projection.
//!
//! The mobility synthesizer works in meters around a city anchor; this
//! module converts between [`LatLon`] and local planar offsets. The
//! projection is the standard small-angle approximation, accurate to well
//! under a meter across a metropolitan extent.

use crate::units::Meters;
use crate::{LatLon, EARTH_RADIUS_M};

/// A local tangent-plane frame anchored at an origin coordinate.
///
/// # Examples
///
/// ```
/// use backwatch_geo::{enu::Frame, LatLon, Meters};
///
/// let frame = Frame::new(LatLon::new(39.9, 116.4)?);
/// let p = frame.to_latlon(Meters::new(1000.0), Meters::new(500.0)); // 1 km east, 500 m north
/// let (e, n) = frame.to_enu(p);
/// assert!((e - 1000.0).abs() < 0.5);
/// assert!((n - 500.0).abs() < 0.5);
/// # Ok::<(), backwatch_geo::LatLonError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    origin: LatLon,
    meters_per_deg_lat: f64,
    meters_per_deg_lon: f64,
}

impl Frame {
    /// Creates a frame anchored at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if the origin latitude is within 0.1° of a pole.
    #[must_use]
    pub fn new(origin: LatLon) -> Self {
        assert!(origin.lat().abs() < 89.9, "frame origin too close to a pole");
        let meters_per_deg_lat = EARTH_RADIUS_M.to_radians();
        Self {
            origin,
            meters_per_deg_lat,
            meters_per_deg_lon: meters_per_deg_lat * origin.lat_rad().cos(),
        }
    }

    /// The frame's anchor coordinate.
    #[must_use]
    pub fn origin(&self) -> LatLon {
        self.origin
    }

    /// The frame's scale: meters per degree of (latitude, longitude) at the
    /// origin — the exact constants [`Frame::to_enu`] multiplies by, so
    /// callers can reproduce a projection without re-deriving them.
    #[must_use]
    pub fn meters_per_deg(&self) -> (f64, f64) {
        (self.meters_per_deg_lat, self.meters_per_deg_lon)
    }

    /// Projects a coordinate into (east, north) meters relative to the
    /// origin.
    #[must_use]
    pub fn to_enu(&self, p: LatLon) -> (f64, f64) {
        (
            (p.lon() - self.origin.lon()) * self.meters_per_deg_lon,
            (p.lat() - self.origin.lat()) * self.meters_per_deg_lat,
        )
    }

    /// Unprojects (east, north) offsets back to a coordinate.
    ///
    /// The result is clamped/wrapped into the valid lat/lon domain.
    #[must_use]
    pub fn to_latlon(&self, east: Meters, north: Meters) -> LatLon {
        LatLon::clamped(
            self.origin.lat() + north.get() / self.meters_per_deg_lat,
            self.origin.lon() + east.get() / self.meters_per_deg_lon,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::haversine;

    #[test]
    fn round_trip_is_tight() {
        let frame = Frame::new(LatLon::new(39.9, 116.4).unwrap());
        for (e, n) in [(0.0, 0.0), (1234.5, -987.6), (-20_000.0, 15_000.0)] {
            let p = frame.to_latlon(Meters::new(e), Meters::new(n));
            let (e2, n2) = frame.to_enu(p);
            assert!((e - e2).abs() < 1e-6, "east {e} vs {e2}");
            assert!((n - n2).abs() < 1e-6, "north {n} vs {n2}");
        }
    }

    #[test]
    fn offsets_match_metric_distance() {
        let frame = Frame::new(LatLon::new(39.9, 116.4).unwrap());
        let p = frame.to_latlon(Meters::new(3000.0), Meters::new(4000.0));
        let d = haversine(frame.origin(), p);
        assert!((d - 5000.0).abs() < 5.0, "got {d}");
    }

    #[test]
    fn origin_maps_to_zero() {
        let frame = Frame::new(LatLon::new(10.0, 20.0).unwrap());
        let (e, n) = frame.to_enu(frame.origin());
        assert_eq!((e, n), (0.0, 0.0));
    }
}
