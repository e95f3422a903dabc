//! Continuous profile-similarity scores.
//!
//! `His_bin` is a binary verdict; for ranking and visualization a graded
//! score is often more useful. This module compares two profiles of the
//! same kind with the information-theoretic divergences from
//! `backwatch-stats`, aligned over the union of their keys.

use crate::pattern::Profile;
use backwatch_stats::divergence::{js_divergence_bits, total_variation};
use backwatch_stats::entropy::normalize;

/// Graded similarity between an observed profile and a reference profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Similarity {
    /// Jensen–Shannon divergence in bits: 0 = identical distributions,
    /// 1 = disjoint supports.
    pub js_bits: f64,
    /// Total variation distance in `[0, 1]`.
    pub total_variation: f64,
    /// Fraction of the observed mass on keys the reference also has.
    pub support_overlap: f64,
}

impl Similarity {
    /// A convenience score in `[0, 1]`, higher = more similar:
    /// `1 − JS` (bits).
    #[must_use]
    pub fn score(&self) -> f64 {
        (1.0 - self.js_bits).clamp(0.0, 1.0)
    }
}

/// Compares `observed` against `reference`.
///
/// Returns `None` if either profile is empty (no distribution exists).
///
/// # Panics
///
/// Panics if the profiles are of different pattern kinds.
#[must_use]
pub fn compare(observed: &Profile, reference: &Profile) -> Option<Similarity> {
    assert_eq!(
        observed.kind(),
        reference.kind(),
        "cannot compare profiles of different pattern kinds"
    );
    if observed.is_empty() || reference.is_empty() {
        return None;
    }
    let (o, r) = observed.histogram().align(reference.histogram());
    let p = normalize(&o)?;
    let q = normalize(&r)?;
    let support_overlap = p.iter().zip(&q).filter(|&(_, &qi)| qi > 0.0).map(|(&pi, _)| pi).sum::<f64>();
    Some(Similarity {
        js_bits: js_divergence_bits(&p, &q),
        total_variation: total_variation(&p, &q),
        support_overlap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use crate::poi::Stay;
    use backwatch_geo::{Grid, LatLon};
    use backwatch_trace::Timestamp;

    fn grid() -> Grid {
        Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(250.0))
    }

    fn routine(lat0: f64, days: i64) -> Vec<Stay> {
        let mut out = Vec::new();
        for d in 0..days {
            for (k, lat) in [lat0, lat0 + 0.05, lat0].iter().enumerate() {
                out.push(Stay {
                    centroid: LatLon::new(*lat, 116.4).unwrap(),
                    enter: Timestamp::from_secs(d * 86_400 + k as i64 * 20_000),
                    leave: Timestamp::from_secs(d * 86_400 + k as i64 * 20_000 + 900),
                    n_points: 900,
                    end_index: 0,
                });
            }
        }
        out
    }

    #[test]
    fn identical_profiles_score_one() {
        let p = Profile::from_stays(PatternKind::MovementPattern, &routine(39.9, 10), &grid());
        let s = compare(&p, &p).unwrap();
        assert!(s.js_bits < 1e-12);
        assert_eq!(s.total_variation, 0.0);
        assert!((s.support_overlap - 1.0).abs() < 1e-12);
        assert!((s.score() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_profiles_score_zero() {
        let a = Profile::from_stays(PatternKind::RegionVisits, &routine(39.9, 10), &grid());
        let b = Profile::from_stays(PatternKind::RegionVisits, &routine(39.2, 10), &grid());
        let s = compare(&a, &b).unwrap();
        assert!((s.js_bits - 1.0).abs() < 1e-9);
        assert_eq!(s.support_overlap, 0.0);
        assert!(s.score() < 1e-9);
    }

    #[test]
    fn partial_data_lands_in_between() {
        // a routine plus one rare errand in the later half: the prefix
        // misses that key, so the distributions differ but overlap
        let mut stays = routine(39.9, 10);
        stays.push(Stay {
            centroid: LatLon::new(39.7, 116.4).unwrap(),
            enter: Timestamp::from_secs(9 * 86_400 + 60_000),
            leave: Timestamp::from_secs(9 * 86_400 + 61_000),
            n_points: 900,
            end_index: 0,
        });
        let full = Profile::from_stays(PatternKind::MovementPattern, &stays, &grid());
        let half = Profile::from_stays(PatternKind::MovementPattern, &stays[..stays.len() / 2], &grid());
        let s = compare(&half, &full).unwrap();
        assert!(s.js_bits > 0.0 && s.js_bits < 1.0, "{s:?}");
        assert!(s.support_overlap > 0.9, "a prefix's keys are in the full profile");
    }

    #[test]
    fn empty_profiles_yield_none() {
        let empty = Profile::new(PatternKind::RegionVisits);
        let full = Profile::from_stays(PatternKind::RegionVisits, &routine(39.9, 3), &grid());
        assert!(compare(&empty, &full).is_none());
        assert!(compare(&full, &empty).is_none());
    }

    #[test]
    #[should_panic(expected = "different pattern kinds")]
    fn kind_mismatch_panics() {
        let a = Profile::new(PatternKind::RegionVisits);
        let b = Profile::new(PatternKind::MovementPattern);
        let _ = compare(&a, &b);
    }
}
