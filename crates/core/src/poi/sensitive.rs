//! Sensitive-PoI classification.
//!
//! The paper counts places a user visited *no more than k times* as
//! sensitive (§IV-C uses k ≤ 3): rarely-visited places — a clinic, a
//! church, a job interview — carry more revealing information than the
//! daily commute.

use super::places::{Place, PlaceSet};

/// The visit-count threshold below which a place is sensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensitivityThreshold(pub usize);

impl SensitivityThreshold {
    /// The paper's Figure 3(b) thresholds: visited ≤ 1, ≤ 2 and ≤ 3 times.
    #[must_use]
    pub fn paper_thresholds() -> [SensitivityThreshold; 3] {
        [SensitivityThreshold(1), SensitivityThreshold(2), SensitivityThreshold(3)]
    }

    /// Whether a place with `visits` visits is sensitive under this
    /// threshold.
    #[must_use]
    pub fn is_sensitive(&self, visits: usize) -> bool {
        visits <= self.0
    }
}

/// The places of `set` that are sensitive under `threshold`.
///
/// # Examples
///
/// ```
/// use backwatch_core::poi::{cluster_stays, sensitive_places, SensitivityThreshold, Stay};
/// use backwatch_geo::{distance::Metric, LatLon};
/// use backwatch_trace::Timestamp;
///
/// let visit = |lat: f64, t: i64| Stay {
///     centroid: LatLon::new(lat, 116.4).unwrap(),
///     enter: Timestamp::from_secs(t),
///     leave: Timestamp::from_secs(t + 900),
///     n_points: 900,
///     end_index: 0,
/// };
/// // place A visited 3 times, place B once
/// let stays = vec![visit(39.90, 0), visit(39.90, 10_000), visit(39.90, 20_000), visit(39.95, 30_000)];
/// let set = cluster_stays(&stays, backwatch_geo::Meters::new(100.0), Metric::Equirectangular);
/// let sensitive = sensitive_places(&set, SensitivityThreshold(1));
/// assert_eq!(sensitive.len(), 1);
/// assert_eq!(sensitive[0].visit_count(), 1);
/// ```
#[must_use]
pub fn sensitive_places(set: &PlaceSet, threshold: SensitivityThreshold) -> Vec<&Place> {
    set.places()
        .iter()
        .filter(|p| threshold.is_sensitive(p.visit_count()))
        .collect()
}

/// Counts sensitive places for each of the paper's three thresholds,
/// returning `[≤1, ≤2, ≤3]`.
#[must_use]
pub fn sensitive_counts(set: &PlaceSet) -> [usize; 3] {
    let mut out = [0usize; 3];
    for (i, t) in SensitivityThreshold::paper_thresholds().into_iter().enumerate() {
        out[i] = sensitive_places(set, t).len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poi::extractor::Stay;
    use crate::poi::places::cluster_stays;
    use backwatch_geo::distance::Metric;
    use backwatch_geo::LatLon;
    use backwatch_trace::Timestamp;

    fn stays_with_counts(counts: &[usize]) -> PlaceSet {
        // place i at a distinct latitude, visited counts[i] times
        let mut stays = Vec::new();
        let mut t = 0i64;
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                stays.push(Stay {
                    centroid: LatLon::new(39.5 + i as f64 * 0.05, 116.4).unwrap(),
                    enter: Timestamp::from_secs(t),
                    leave: Timestamp::from_secs(t + 900),
                    n_points: 900,
                    end_index: 0,
                });
                t += 10_000;
            }
        }
        cluster_stays(&stays, backwatch_geo::Meters::new(100.0), Metric::Equirectangular)
    }

    #[test]
    fn thresholds_are_inclusive() {
        let t = SensitivityThreshold(3);
        assert!(t.is_sensitive(1));
        assert!(t.is_sensitive(3));
        assert!(!t.is_sensitive(4));
    }

    #[test]
    fn counts_are_monotone_in_threshold() {
        let set = stays_with_counts(&[1, 1, 2, 3, 5, 9]);
        let [le1, le2, le3] = sensitive_counts(&set);
        assert_eq!(le1, 2);
        assert_eq!(le2, 3);
        assert_eq!(le3, 4);
        assert!(le1 <= le2 && le2 <= le3);
    }

    #[test]
    fn frequent_places_are_not_sensitive() {
        let set = stays_with_counts(&[10, 20]);
        assert!(sensitive_places(&set, SensitivityThreshold(3)).is_empty());
    }

    #[test]
    fn empty_set_has_no_sensitive_places() {
        let set = stays_with_counts(&[]);
        assert_eq!(sensitive_counts(&set), [0, 0, 0]);
    }
}
