//! The degree of anonymity after an inference attack (§IV-B,
//! Formulas 2–5).
//!
//! The adversary compares collected data against the `N` profiles it
//! holds. Profiles that match (His_bin = 1) form the anonymity set; each
//! matched profile `i` gets a weight derived from its chi-square statistic
//! and the posterior is normalized (Formula 2). The Shannon entropy of the
//! posterior, normalized by `log₂ N`, is the degree of anonymity
//! (Formula 5): 0 means the user is identified, 1 means the release
//! revealed nothing.

use crate::hisbin::Matcher;
use crate::pattern::Profile;
use backwatch_stats::entropy;

/// How matched profiles are weighted into the posterior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Weighting {
    /// The paper's Formula 2: weight ∝ χ²ᵢ.
    #[default]
    PaperChiSquare,
    /// Weight ∝ 1 / (1 + χ²ᵢ): better fits count more. Offered because the
    /// paper's literal weighting rewards *worse* fits; the experiments use
    /// the paper's version by default.
    InverseChiSquare,
}

/// Outcome of matching collected data against a profile collection.
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymityOutcome {
    /// Indices (into the profile collection) of the matched profiles.
    pub matched: Vec<usize>,
    /// Posterior probabilities aligned with `matched`.
    pub posterior: Vec<f64>,
    /// Degree of anonymity in [0, 1]; `None` when nothing matched.
    pub degree: Option<f64>,
    /// Shannon entropy of the posterior in bits (0 when one profile
    /// matched).
    pub entropy_bits: f64,
}

impl AnonymityOutcome {
    /// The single matched profile index, when the user is fully
    /// identified.
    #[must_use]
    pub fn identified(&self) -> Option<usize> {
        match self.matched.as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }
}

/// Matches `observed` against every profile in `profiles` and computes the
/// paper's anonymity measures over the matching set.
///
/// `N = profiles.len()` is the adversary's collection size, so the degree
/// is normalized by `log₂ N` regardless of how many profiles matched.
#[must_use]
pub fn assess(observed: &Profile, profiles: &[Profile], matcher: &Matcher, weighting: Weighting) -> AnonymityOutcome {
    let mut matched = Vec::new();
    let mut weights = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let outcome = matcher.compare(observed, profile);
        if outcome.his_bin.is_leaky() {
            matched.push(i);
            let w = match weighting {
                Weighting::PaperChiSquare => outcome.statistic.max(1e-9),
                Weighting::InverseChiSquare => 1.0 / (1.0 + outcome.statistic),
            };
            weights.push(if w.is_finite() { w } else { 1e-9 });
        }
    }
    if matched.is_empty() {
        return AnonymityOutcome {
            matched,
            posterior: Vec::new(),
            degree: None,
            entropy_bits: 0.0,
        };
    }
    let posterior = posterior_from_weights(&weights);
    let h = entropy::shannon_bits(&posterior);
    let n = profiles.len();
    let degree = if n <= 1 {
        Some(0.0)
    } else {
        Some((h / (n as f64).log2()).clamp(0.0, 1.0))
    };
    AnonymityOutcome {
        matched,
        posterior,
        degree,
        entropy_bits: h,
    }
}

/// Normalizes match weights into a posterior. A weight vector can sum to
/// zero (e.g. `InverseChiSquare` with an infinite statistic clamps every
/// entry to 0.0); the adversary then has no basis to prefer any candidate,
/// so the posterior degrades to uniform over the anonymity set — counted,
/// never a panic.
fn posterior_from_weights(weights: &[f64]) -> Vec<f64> {
    match entropy::normalize(weights) {
        Some(p) => p,
        None => {
            crate::obs::register();
            crate::obs::ANONYMITY_DEGENERATE.inc();
            vec![1.0 / weights.len() as f64; weights.len()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatternKind, Profile};
    use crate::poi::Stay;
    use backwatch_geo::{Grid, LatLon};
    use backwatch_trace::Timestamp;

    fn grid() -> Grid {
        Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(250.0))
    }

    fn routine(lat0: f64, days: i64) -> Vec<Stay> {
        let mut out = Vec::new();
        for d in 0..days {
            let t0 = d * 86_400;
            for (k, (lat, lon)) in [(lat0, 116.40), (lat0 + 0.05, 116.45), (lat0, 116.40)].iter().enumerate() {
                out.push(Stay {
                    centroid: LatLon::new(*lat, *lon).unwrap(),
                    enter: Timestamp::from_secs(t0 + k as i64 * 20_000),
                    leave: Timestamp::from_secs(t0 + k as i64 * 20_000 + 900),
                    n_points: 900,
                    end_index: 0,
                });
            }
        }
        out
    }

    fn profiles_of(lats: &[f64]) -> Vec<Profile> {
        lats.iter()
            .map(|&lat| Profile::from_stays(PatternKind::RegionVisits, &routine(lat, 10), &grid()))
            .collect()
    }

    #[test]
    fn unique_match_identifies_user() {
        let profiles = profiles_of(&[39.5, 39.7, 39.9]);
        let observed = Profile::from_stays(PatternKind::RegionVisits, &routine(39.9, 10), &grid());
        let out = assess(&observed, &profiles, &Matcher::paper(), Weighting::PaperChiSquare);
        assert_eq!(out.matched, vec![2]);
        assert_eq!(out.identified(), Some(2));
        assert_eq!(out.degree, Some(0.0));
        assert_eq!(out.entropy_bits, 0.0);
    }

    #[test]
    fn no_match_yields_none_degree() {
        let profiles = profiles_of(&[39.5, 39.7]);
        let observed = Profile::from_stays(PatternKind::RegionVisits, &routine(38.0, 10), &grid());
        let out = assess(&observed, &profiles, &Matcher::paper(), Weighting::PaperChiSquare);
        assert!(out.matched.is_empty());
        assert_eq!(out.degree, None);
        assert_eq!(out.identified(), None);
    }

    #[test]
    fn identical_twins_split_the_posterior() {
        // two users with the same routine: the adversary cannot separate
        // them, so the degree is positive
        let profiles = profiles_of(&[39.9, 39.9, 39.5]);
        let observed = Profile::from_stays(PatternKind::RegionVisits, &routine(39.9, 10), &grid());
        let out = assess(&observed, &profiles, &Matcher::paper(), Weighting::PaperChiSquare);
        assert_eq!(out.matched, vec![0, 1]);
        let d = out.degree.unwrap();
        assert!(d > 0.0 && d <= 1.0);
        // equal statistics -> uniform posterior over the two
        assert!((out.posterior[0] - 0.5).abs() < 1e-9);
        // entropy of a 2-way uniform split is 1 bit; degree = 1/log2(3)
        assert!((d - 1.0 / 3f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn posterior_sums_to_one() {
        let profiles = profiles_of(&[39.9, 39.9, 39.9, 39.5]);
        let observed = Profile::from_stays(PatternKind::RegionVisits, &routine(39.9, 10), &grid());
        for weighting in [Weighting::PaperChiSquare, Weighting::InverseChiSquare] {
            let out = assess(&observed, &profiles, &Matcher::paper(), weighting);
            let sum: f64 = out.posterior.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{weighting:?}");
        }
    }

    #[test]
    fn degenerate_all_zero_weights_fall_back_to_uniform() {
        // InverseChiSquare with an infinite statistic clamps every weight
        // to exactly 0.0; the posterior must degrade to uniform, not panic.
        let p = posterior_from_weights(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(p, vec![0.25; 4]);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn degenerate_single_zero_weight_is_certainty() {
        let p = posterior_from_weights(&[0.0]);
        assert_eq!(p, vec![1.0]);
    }

    #[test]
    fn positive_weights_normalize_as_before() {
        let p = posterior_from_weights(&[1.0, 3.0]);
        assert!((p[0] - 0.25).abs() < 1e-12 && (p[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_collection_never_matches() {
        let observed = Profile::from_stays(PatternKind::RegionVisits, &routine(39.9, 5), &grid());
        let out = assess(&observed, &[], &Matcher::paper(), Weighting::PaperChiSquare);
        assert!(out.matched.is_empty());
        assert_eq!(out.degree, None);
    }
}
