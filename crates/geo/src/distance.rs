//! Distances between coordinates, in meters.

use crate::{LatLon, EARTH_RADIUS_M};

/// Great-circle distance between two points using the haversine formula.
///
/// Numerically stable for both very small and antipodal separations.
///
/// # Examples
///
/// ```
/// use backwatch_geo::{LatLon, distance};
///
/// let a = LatLon::new(0.0, 0.0)?;
/// let b = LatLon::new(0.0, 1.0)?;
/// // one degree of longitude at the equator is ~111.2 km
/// assert!((distance::haversine(a, b) - 111_195.0).abs() < 100.0);
/// # Ok::<(), backwatch_geo::LatLonError>(())
/// ```
#[must_use]
pub fn haversine(a: LatLon, b: LatLon) -> f64 {
    let (lat1, lon1) = (a.lat_rad(), a.lon_rad());
    let (lat2, lon2) = (b.lat_rad(), b.lon_rad());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin()
}

/// Fast approximate distance using an equirectangular projection.
///
/// Within a city-scale extent (tens of kilometers) the error versus
/// [`haversine`] is well under 0.1 %. Used in inner loops (PoI extraction,
/// buffer centroids) where millions of distances are computed.
#[must_use]
pub fn equirectangular(a: LatLon, b: LatLon) -> f64 {
    let mean_lat = ((a.lat_rad()) + (b.lat_rad())) / 2.0;
    // Wrap the longitude difference into [-π, π]: a pair straddling the
    // antimeridian (179.9° and -179.9°) is 0.2° apart, not 359.8°.
    let mut dlon = b.lon_rad() - a.lon_rad();
    if dlon > std::f64::consts::PI {
        dlon -= std::f64::consts::TAU;
    } else if dlon < -std::f64::consts::PI {
        dlon += std::f64::consts::TAU;
    }
    let x = dlon * mean_lat.cos();
    let y = b.lat_rad() - a.lat_rad();
    EARTH_RADIUS_M * (x * x + y * y).sqrt()
}

/// Distance metric selector for algorithms that let callers trade accuracy
/// for speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Exact great-circle distance ([`haversine`]).
    Haversine,
    /// City-scale approximation ([`equirectangular`]); the default, matching
    /// the scale of the paper's Geolife evaluation.
    #[default]
    Equirectangular,
}

impl Metric {
    /// Computes the distance between `a` and `b` under this metric, in
    /// meters.
    #[must_use]
    pub fn distance(&self, a: LatLon, b: LatLon) -> f64 {
        match self {
            Metric::Haversine => haversine(a, b),
            Metric::Equirectangular => equirectangular(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    #[test]
    fn zero_distance_for_identical_points() {
        let p = ll(39.9, 116.4);
        assert_eq!(haversine(p, p), 0.0);
        assert_eq!(equirectangular(p, p), 0.0);
    }

    #[test]
    fn known_distance_beijing_shanghai() {
        // Beijing <-> Shanghai is about 1,067 km.
        let d = haversine(ll(39.9042, 116.4074), ll(31.2304, 121.4737));
        assert!((d - 1_067_000.0).abs() < 5_000.0, "got {d}");
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let d = haversine(ll(0.0, 0.0), ll(0.0, 180.0));
        let half = std::f64::consts::PI * EARTH_RADIUS_M;
        assert!((d - half).abs() < 1.0, "got {d}, expected {half}");
    }

    #[test]
    fn equirectangular_close_to_haversine_at_city_scale() {
        let a = ll(39.900, 116.400);
        let b = ll(39.950, 116.480);
        let h = haversine(a, b);
        let e = equirectangular(a, b);
        assert!((h - e).abs() / h < 1e-3, "h={h} e={e}");
    }

    #[test]
    fn metric_dispatch() {
        let a = ll(39.9, 116.4);
        let b = ll(39.91, 116.41);
        assert_eq!(Metric::Haversine.distance(a, b), haversine(a, b));
        assert_eq!(Metric::Equirectangular.distance(a, b), equirectangular(a, b));
        assert_eq!(Metric::default(), Metric::Equirectangular);
    }

    #[test]
    fn equirectangular_wraps_across_the_antimeridian() {
        // 0.2° of longitude at the equator, straddling ±180°.
        let a = ll(0.0, 179.9);
        let b = ll(0.0, -179.9);
        let h = haversine(a, b);
        let e = equirectangular(a, b);
        assert!((h - 22_239.0).abs() < 50.0, "haversine got {h}");
        assert!((h - e).abs() / h < 1e-3, "h={h} e={e}");
        // and symmetrically
        assert!((equirectangular(b, a) - e).abs() < 1e-9);
    }

    #[test]
    fn small_separation_is_accurate() {
        // 10 m north at Beijing latitude: 10 / 111_195 degrees.
        let a = ll(39.9, 116.4);
        let b = ll(39.9 + 10.0 / 111_195.0, 116.4);
        let d = haversine(a, b);
        assert!((d - 10.0).abs() < 0.01, "got {d}");
    }
}
