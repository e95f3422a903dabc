//! Axis-aligned bounding boxes over latitude/longitude.

use crate::LatLon;

/// An axis-aligned lat/lon box.
///
/// Degenerate (single-point) boxes are allowed. The box never crosses the
/// antimeridian — all simulated geometry in this workspace is city-scale.
///
/// # Examples
///
/// ```
/// use backwatch_geo::{BoundingBox, LatLon};
///
/// let mut bb = BoundingBox::from_point(LatLon::new(39.9, 116.4)?);
/// bb.expand(LatLon::new(40.0, 116.5)?);
/// assert!(bb.contains(LatLon::new(39.95, 116.45)?));
/// assert!(!bb.contains(LatLon::new(41.0, 116.45)?));
/// # Ok::<(), backwatch_geo::LatLonError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    min_lat: f64,
    max_lat: f64,
    min_lon: f64,
    max_lon: f64,
}

impl BoundingBox {
    /// A degenerate box containing exactly `p`.
    #[must_use]
    pub fn from_point(p: LatLon) -> Self {
        Self {
            min_lat: p.lat(),
            max_lat: p.lat(),
            min_lon: p.lon(),
            max_lon: p.lon(),
        }
    }

    /// The smallest box containing every point of `points`, or `None` for an
    /// empty iterator.
    pub fn from_points<I: IntoIterator<Item = LatLon>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let mut bb = Self::from_point(it.next()?);
        for p in it {
            bb.expand(p);
        }
        Some(bb)
    }

    /// Grows the box (if needed) to contain `p`.
    pub fn expand(&mut self, p: LatLon) {
        self.min_lat = self.min_lat.min(p.lat());
        self.max_lat = self.max_lat.max(p.lat());
        self.min_lon = self.min_lon.min(p.lon());
        self.max_lon = self.max_lon.max(p.lon());
    }

    /// Whether `p` lies inside the box (boundary inclusive).
    #[must_use]
    pub fn contains(&self, p: LatLon) -> bool {
        (self.min_lat..=self.max_lat).contains(&p.lat()) && (self.min_lon..=self.max_lon).contains(&p.lon())
    }

    /// Whether `self` and `other` overlap (boundary touch counts).
    #[must_use]
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_lat <= other.max_lat
            && other.min_lat <= self.max_lat
            && self.min_lon <= other.max_lon
            && other.min_lon <= self.max_lon
    }

    /// The center of the box.
    #[must_use]
    pub fn center(&self) -> LatLon {
        // Bounds come from valid coordinates, so their midpoints are in
        // range; constructing directly avoids wrap-induced rounding.
        LatLon::new((self.min_lat + self.max_lat) / 2.0, (self.min_lon + self.max_lon) / 2.0)
            .expect("midpoint of valid bounds is valid")
    }

    /// Southern latitude bound in degrees.
    #[must_use]
    pub fn min_lat(&self) -> f64 {
        self.min_lat
    }

    /// Northern latitude bound in degrees.
    #[must_use]
    pub fn max_lat(&self) -> f64 {
        self.max_lat
    }

    /// Western longitude bound in degrees.
    #[must_use]
    pub fn min_lon(&self) -> f64 {
        self.min_lon
    }

    /// Eastern longitude bound in degrees.
    #[must_use]
    pub fn max_lon(&self) -> f64 {
        self.max_lon
    }

    /// Latitude span in degrees.
    #[must_use]
    pub fn lat_span(&self) -> f64 {
        self.max_lat - self.min_lat
    }

    /// Longitude span in degrees.
    #[must_use]
    pub fn lon_span(&self) -> f64 {
        self.max_lon - self.min_lon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    #[test]
    fn from_point_is_degenerate_and_contains_itself() {
        let p = ll(10.0, 20.0);
        let bb = BoundingBox::from_point(p);
        assert!(bb.contains(p));
        assert_eq!(bb.lat_span(), 0.0);
        assert_eq!(bb.lon_span(), 0.0);
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(BoundingBox::from_points(std::iter::empty()).is_none());
    }

    #[test]
    fn from_points_covers_all() {
        let pts = vec![ll(1.0, 2.0), ll(-1.0, 5.0), ll(0.5, 3.0)];
        let bb = BoundingBox::from_points(pts.clone()).unwrap();
        for p in pts {
            assert!(bb.contains(p));
        }
        assert_eq!(bb.min_lat(), -1.0);
        assert_eq!(bb.max_lon(), 5.0);
    }

    #[test]
    fn intersects_symmetric() {
        let a = BoundingBox::from_points([ll(0.0, 0.0), ll(2.0, 2.0)]).unwrap();
        let b = BoundingBox::from_points([ll(1.0, 1.0), ll(3.0, 3.0)]).unwrap();
        let c = BoundingBox::from_points([ll(5.0, 5.0), ll(6.0, 6.0)]).unwrap();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!c.intersects(&a));
    }

    #[test]
    fn boundary_touch_counts_as_intersection() {
        let a = BoundingBox::from_points([ll(0.0, 0.0), ll(1.0, 1.0)]).unwrap();
        let b = BoundingBox::from_points([ll(1.0, 1.0), ll(2.0, 2.0)]).unwrap();
        assert!(a.intersects(&b));
    }

    #[test]
    fn center_is_midpoint() {
        let bb = BoundingBox::from_points([ll(0.0, 0.0), ll(2.0, 4.0)]).unwrap();
        let c = bb.center();
        assert_eq!(c.lat(), 1.0);
        assert_eq!(c.lon(), 2.0);
    }
}
