//! A one-call privacy report for a location trace — the library-facing
//! summary a privacy dashboard or an auditing tool would show a user.
//!
//! Given the trace an app has collected (and optionally a population of
//! other users' profiles), [`PrivacyReport::analyze`] runs the paper's
//! whole §IV pipeline and summarizes what that data reveals.

use crate::adversary::ProfileStore;
use crate::anonymity::Weighting;
use crate::hisbin::{detect_incremental, Matcher};
use crate::pattern::{PatternKind, Profile};
use crate::poi::{cluster_stays, sensitive_counts, ExtractorParams, SpatioTemporalExtractor};
use backwatch_geo::Grid;
use backwatch_trace::Trace;
use std::fmt;

/// What a collected trace reveals, per the paper's metrics.
///
/// # Examples
///
/// ```
/// use backwatch_core::report::PrivacyReport;
/// use backwatch_geo::{Grid, LatLon};
/// use backwatch_trace::synth::{generate_user, SynthConfig};
///
/// let user = generate_user(&SynthConfig::small(), 0);
/// let grid = Grid::new(LatLon::new(39.9042, 116.4074)?, backwatch_geo::Meters::new(250.0));
/// let report = PrivacyReport::analyze(&user.trace, &grid);
/// assert!(report.poi_visits > 0);
/// println!("{report}");
/// # Ok::<(), backwatch_geo::LatLonError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyReport {
    /// Fixes in the analysed trace.
    pub fixes: usize,
    /// Days the trace spans.
    pub span_days: f64,
    /// PoI visits extracted (paper `PoI_total`).
    pub poi_visits: usize,
    /// Distinct places the visits cluster into.
    pub places: usize,
    /// Sensitive places at thresholds `[≤1, ≤2, ≤3]` visits (paper
    /// `PoI_sensitive`).
    pub sensitive_places: [usize; 3],
    /// Fraction of the data a His_bin adversary needed to confirm the
    /// pattern-2 profile this very data induces (`None` when the trace is
    /// too thin to profile). Small values mean the habits are blatant.
    pub self_detection_fraction: Option<f64>,
    /// If a population store was supplied: how many profiles the data
    /// matched.
    pub anonymity_set: Option<usize>,
    /// If a population store was supplied: the degree of anonymity.
    pub degree_of_anonymity: Option<f64>,
}

impl PrivacyReport {
    /// Analyzes a trace with the paper's default parameters (Table III
    /// set 1, α = 0.05).
    #[must_use]
    pub fn analyze(trace: &Trace, grid: &Grid) -> Self {
        Self::analyze_with(trace, grid, ExtractorParams::paper_set1(), &Matcher::paper(), None)
    }

    /// Analyzes a trace against a population of profiles, adding the
    /// identification fields.
    #[must_use]
    pub fn analyze_against(trace: &Trace, grid: &Grid, store: &ProfileStore) -> Self {
        Self::analyze_with(trace, grid, ExtractorParams::paper_set1(), &Matcher::paper(), Some(store))
    }

    /// Full-control variant.
    #[must_use]
    pub fn analyze_with(
        trace: &Trace,
        grid: &Grid,
        params: ExtractorParams,
        matcher: &Matcher,
        store: Option<&ProfileStore>,
    ) -> Self {
        let stays = SpatioTemporalExtractor::new(params).extract(trace);
        let places = cluster_stays(&stays, params.radius_m * 3.0, params.metric);
        let profile2 = Profile::from_stays(PatternKind::MovementPattern, &stays, grid);
        let self_detection = detect_incremental(
            &stays,
            trace.len().max(1),
            grid,
            PatternKind::MovementPattern,
            matcher,
            &profile2,
        );
        let (anonymity_set, degree) = match store {
            Some(store) if !store.is_empty() => {
                let inference = store.infer(&profile2, matcher, Weighting::PaperChiSquare);
                (Some(inference.matched_users.len()), inference.degree())
            }
            _ => (None, None),
        };
        Self {
            fixes: trace.len(),
            span_days: trace.duration_secs() as f64 / 86_400.0,
            poi_visits: stays.len(),
            places: places.len(),
            sensitive_places: sensitive_counts(&places),
            self_detection_fraction: self_detection.map(|d| d.fraction_of_points),
            anonymity_set,
            degree_of_anonymity: degree,
        }
    }

    /// A coarse 0–3 severity grade: how bad is this collection?
    ///
    /// - 0: no PoIs recovered.
    /// - 1: PoIs but no sensitive places and no profile match.
    /// - 2: sensitive places recovered, or the user's habit profile is
    ///   confirmed by the data itself.
    /// - 3: the data pinpoints the user within a population
    ///   (anonymity set of 1).
    #[must_use]
    pub fn severity(&self) -> u8 {
        if self.anonymity_set == Some(1) {
            3
        } else if self.sensitive_places[2] > 0 || self.self_detection_fraction.is_some() {
            2
        } else if self.poi_visits > 0 {
            1
        } else {
            0
        }
    }
}

impl fmt::Display for PrivacyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "privacy report: {} fixes over {:.1} days", self.fixes, self.span_days)?;
        writeln!(
            f,
            "  PoI visits: {} at {} places ({} sensitive at <=3 visits)",
            self.poi_visits, self.places, self.sensitive_places[2]
        )?;
        match self.self_detection_fraction {
            Some(frac) => writeln!(f, "  habit profile confirmed after {:.0}% of the data", frac * 100.0)?,
            None => writeln!(f, "  habit profile not confirmed by this data")?,
        }
        if let Some(set) = self.anonymity_set {
            writeln!(
                f,
                "  anonymity set: {set} profile(s), degree {}",
                self.degree_of_anonymity.map_or_else(|| "-".to_owned(), |d| format!("{d:.2}"))
            )?;
        }
        write!(f, "  severity: {}/3", self.severity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_geo::LatLon;
    use backwatch_trace::sampling;
    use backwatch_trace::synth::{generate_user, SynthConfig};

    fn grid() -> Grid {
        Grid::new(LatLon::new(39.9042, 116.4074).unwrap(), backwatch_geo::Meters::new(250.0))
    }

    #[test]
    fn full_trace_is_high_severity() {
        let user = generate_user(&SynthConfig::small(), 0);
        let r = PrivacyReport::analyze(&user.trace, &grid());
        assert!(r.poi_visits > 0);
        assert!(r.places > 0);
        assert!(r.severity() >= 2, "{r}");
        assert!(r.anonymity_set.is_none());
    }

    #[test]
    fn empty_trace_is_severity_zero() {
        let r = PrivacyReport::analyze(&Trace::new(), &grid());
        assert_eq!(r.poi_visits, 0);
        assert_eq!(r.severity(), 0);
        assert!(r.self_detection_fraction.is_none());
    }

    #[test]
    fn population_identification_is_severity_three() {
        let cfg = SynthConfig::small();
        let params = ExtractorParams::paper_set1();
        let extractor = SpatioTemporalExtractor::new(params);
        let mut store = ProfileStore::new(PatternKind::MovementPattern);
        for i in 0..cfg.n_users {
            let u = generate_user(&cfg, i);
            let stays = extractor.extract(&u.trace);
            store.insert(i, Profile::from_stays(PatternKind::MovementPattern, &stays, &grid()));
        }
        let victim = generate_user(&cfg, 1);
        let r = PrivacyReport::analyze_against(&victim.trace, &grid(), &store);
        assert_eq!(r.anonymity_set, Some(1));
        assert_eq!(r.severity(), 3);
        assert_eq!(r.degree_of_anonymity, Some(0.0));
    }

    #[test]
    fn heavy_downsampling_reduces_severity() {
        let user = generate_user(&SynthConfig::small(), 2);
        let full = PrivacyReport::analyze(&user.trace, &grid());
        let thin = PrivacyReport::analyze(&sampling::downsample(&user.trace, backwatch_geo::Seconds::new(7200)), &grid());
        assert!(thin.poi_visits < full.poi_visits);
        assert!(thin.severity() <= full.severity());
    }

    #[test]
    fn display_contains_key_lines() {
        let user = generate_user(&SynthConfig::small(), 3);
        let r = PrivacyReport::analyze(&user.trace, &grid());
        let text = r.to_string();
        assert!(text.contains("privacy report"));
        assert!(text.contains("severity"));
    }
}
