//! Selective suppression: drop fixes near user-designated sensitive
//! zones (the paper's "users can block the access to sensitive
//! locations", §IV-B; mix-zone flavored after Beresford & Stajano).

use crate::Lppm;
use backwatch_geo::distance::Metric;
use backwatch_geo::{LatLon, Meters};
use backwatch_trace::Trace;
use rand::RngCore;

/// A circular zone in which no fixes are released.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensitiveZone {
    /// Zone center.
    pub center: LatLon,
    /// Zone radius, meters.
    pub radius_m: f64,
}

impl SensitiveZone {
    /// Creates a zone.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive.
    #[must_use]
    pub fn new(center: LatLon, radius: Meters) -> Self {
        let radius_m = radius.get();
        assert!(radius_m > 0.0 && radius_m.is_finite(), "zone radius must be positive");
        Self { center, radius_m }
    }

    /// Whether `pos` falls inside the zone.
    #[must_use]
    pub fn contains(&self, pos: LatLon, metric: Metric) -> bool {
        metric.distance(pos, self.center) <= self.radius_m
    }
}

/// Suppress every fix inside any of the configured zones.
#[derive(Debug, Clone)]
pub struct ZoneSuppression {
    zones: Vec<SensitiveZone>,
    metric: Metric,
}

impl ZoneSuppression {
    /// Creates the mechanism from a zone list.
    #[must_use]
    pub fn new(zones: Vec<SensitiveZone>) -> Self {
        Self {
            zones,
            metric: Metric::Equirectangular,
        }
    }

    /// The configured zones.
    #[must_use]
    pub fn zones(&self) -> &[SensitiveZone] {
        &self.zones
    }
}

impl Lppm for ZoneSuppression {
    fn name(&self) -> &str {
        "zone-suppression"
    }

    fn apply(&self, trace: &Trace, _rng: &mut dyn RngCore) -> Trace {
        trace
            .iter()
            .filter(|p| !self.zones.iter().any(|z| z.contains(p.pos, self.metric)))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_trace::{Timestamp, TracePoint};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace() -> Trace {
        // half the fixes at A, half at B (~5.6 km apart)
        let a = LatLon::new(39.90, 116.40).unwrap();
        let b = LatLon::new(39.95, 116.40).unwrap();
        Trace::from_points(
            (0..100)
                .map(|i| TracePoint::new(Timestamp::from_secs(i), if i < 50 { a } else { b }))
                .collect(),
        )
    }

    #[test]
    fn suppresses_only_zone_fixes() {
        let zone = SensitiveZone::new(LatLon::new(39.90, 116.40).unwrap(), Meters::new(200.0));
        let mut rng = StdRng::seed_from_u64(0);
        let out = ZoneSuppression::new(vec![zone]).apply(&trace(), &mut rng);
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|p| !zone.contains(p.pos, Metric::Equirectangular)));
    }

    #[test]
    fn no_zones_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let out = ZoneSuppression::new(Vec::new()).apply(&trace(), &mut rng);
        assert_eq!(out, trace());
    }

    #[test]
    fn overlapping_zones_compose() {
        let z1 = SensitiveZone::new(LatLon::new(39.90, 116.40).unwrap(), Meters::new(200.0));
        let z2 = SensitiveZone::new(LatLon::new(39.95, 116.40).unwrap(), Meters::new(200.0));
        let mut rng = StdRng::seed_from_u64(0);
        let out = ZoneSuppression::new(vec![z1, z2]).apply(&trace(), &mut rng);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "zone radius")]
    fn non_positive_radius_panics() {
        let _ = SensitiveZone::new(LatLon::new(0.0, 0.0).unwrap(), Meters::ZERO);
    }
}
