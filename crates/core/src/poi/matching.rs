//! Scoring extracted stays against the synthesizer's ground truth.
//!
//! Because the trace substrate knows the true visits, the extractor can be
//! *validated*: a recovered stay is credited to a true visit when its
//! centroid is near the visited place and its dwell interval overlaps the
//! true interval. Figure 3's "fraction of PoIs an app still sees at
//! interval k" is exactly the recall this module computes.

use super::extractor::Stay;
use backwatch_geo::distance::Metric;
use backwatch_geo::{Meters, Seconds};
use backwatch_trace::synth::{TrueVisit, UserTrace};

/// Recovery scoring of one extraction run against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Ground-truth visits eligible under the visiting-time threshold.
    pub eligible_truth: usize,
    /// Eligible true visits matched by at least one stay.
    pub recovered: usize,
    /// Extracted stays that matched no true visit (false alarms).
    pub spurious: usize,
    /// Extracted stays in total.
    pub extracted: usize,
}

impl RecoveryReport {
    /// Recall: recovered / eligible (1.0 when nothing was eligible).
    #[must_use]
    pub fn recall(&self) -> f64 {
        if self.eligible_truth == 0 {
            1.0
        } else {
            self.recovered as f64 / self.eligible_truth as f64
        }
    }

    /// Precision: (extracted − spurious) / extracted (1.0 when nothing was
    /// extracted).
    #[must_use]
    pub fn precision(&self) -> f64 {
        if self.extracted == 0 {
            1.0
        } else {
            (self.extracted - self.spurious) as f64 / self.extracted as f64
        }
    }

    /// Whether every eligible true visit was recovered.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.recovered == self.eligible_truth
    }
}

/// Matches `stays` against the ground truth of `user`.
///
/// A true visit is *eligible* if its dwell meets `min_visit` (visits
/// shorter than the extractor's own threshold cannot be expected). A stay
/// matches a true visit when its centroid lies within `match_radius` of
/// the visited place and the time intervals overlap.
///
/// # Panics
///
/// Panics if `match_radius` is not strictly positive.
#[must_use]
pub fn match_against_truth(
    stays: &[Stay],
    user: &UserTrace,
    min_visit: Seconds,
    match_radius: Meters,
    metric: Metric,
) -> RecoveryReport {
    let match_radius_m = match_radius.get();
    assert!(
        match_radius_m > 0.0 && match_radius_m.is_finite(),
        "match radius must be positive, got {match_radius_m}"
    );
    let eligible: Vec<&TrueVisit> = user
        .true_visits
        .iter()
        .filter(|v| v.dwell_secs() >= min_visit.get())
        .collect();
    let mut hit = vec![false; eligible.len()];
    let mut spurious = 0usize;
    for stay in stays {
        let mut matched = false;
        for (i, v) in eligible.iter().enumerate() {
            let place = &user.places[v.place];
            let near = metric.distance(stay.centroid, place.pos) <= match_radius_m;
            let overlaps = stay.enter <= v.depart && v.arrive <= stay.leave;
            if near && overlaps {
                hit[i] = true;
                matched = true;
            }
        }
        if !matched {
            spurious += 1;
        }
    }
    RecoveryReport {
        eligible_truth: eligible.len(),
        recovered: hit.iter().filter(|&&h| h).count(),
        spurious,
        extracted: stays.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poi::{ExtractorParams, SpatioTemporalExtractor};
    use backwatch_trace::sampling;
    use backwatch_trace::synth::{generate_user, SynthConfig};

    fn user() -> UserTrace {
        generate_user(&SynthConfig::small(), 0)
    }

    #[test]
    fn full_rate_extraction_has_high_recall_and_precision() {
        let u = user();
        let params = ExtractorParams::paper_set1();
        let stays = SpatioTemporalExtractor::new(params).extract(&u.trace);
        let report = match_against_truth(&stays, &u, params.min_visit_secs, Meters::new(150.0), params.metric);
        assert!(report.eligible_truth > 0);
        assert!(report.recall() > 0.85, "recall {}, report {report:?}", report.recall());
        assert!(report.precision() > 0.85, "precision {}", report.precision());
    }

    #[test]
    fn downsampling_degrades_recall_monotonically_at_extremes() {
        let u = user();
        let params = ExtractorParams::paper_set1();
        let recall_at = |interval: i64| {
            let sampled = sampling::downsample(&u.trace, Seconds::new(interval));
            let stays = SpatioTemporalExtractor::new(params).extract(&sampled);
            match_against_truth(&stays, &u, params.min_visit_secs, Meters::new(150.0), params.metric).recall()
        };
        let fine = recall_at(1);
        let coarse = recall_at(7200);
        assert!(fine > coarse, "1 s recall {fine} should beat 7200 s recall {coarse}");
        // hours-long home stays keep low-frequency recall above zero
        assert!(coarse > 0.0, "overnight stays should survive 7200 s sampling");
        assert!(coarse < 0.5, "most short visits must be lost at 7200 s");
    }

    #[test]
    fn empty_stays_recover_nothing() {
        let u = user();
        let report = match_against_truth(
            &[],
            &u,
            Seconds::new(600),
            Meters::new(150.0),
            backwatch_geo::distance::Metric::Equirectangular,
        );
        assert_eq!(report.recovered, 0);
        assert_eq!(report.recall(), 0.0);
        assert_eq!(report.precision(), 1.0);
        assert!(!report.complete());
    }

    #[test]
    fn report_with_no_eligible_truth_is_complete() {
        let u = user();
        // an absurd visiting-time threshold leaves nothing eligible
        let report = match_against_truth(
            &[],
            &u,
            Seconds::new(10_000_000),
            Meters::new(150.0),
            backwatch_geo::distance::Metric::Equirectangular,
        );
        assert_eq!(report.eligible_truth, 0);
        assert_eq!(report.recall(), 1.0);
        assert!(report.complete());
    }
}
