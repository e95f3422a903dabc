//! The combined risk detector the paper recommends (§IV-C conclusion):
//! measure privacy with *both* patterns and alert when either one fires.

use crate::hisbin::{detect_incremental, Detection, Matcher};
use crate::pattern::{PatternKind, Profile};
use crate::poi::Stay;
use backwatch_geo::Grid;

/// Per-pattern and combined detection results for one user's collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskAssessment {
    /// Detection with pattern 1 (region visits), if it fired.
    pub pattern1: Option<Detection>,
    /// Detection with pattern 2 (movement patterns), if it fired.
    pub pattern2: Option<Detection>,
}

impl RiskAssessment {
    /// The combined detector: the earlier of the two detections.
    #[must_use]
    pub fn combined(&self) -> Option<Detection> {
        match (self.pattern1, self.pattern2) {
            (Some(a), Some(b)) => Some(if a.points_needed <= b.points_needed { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Which pattern detected first: `Some(kind)` on a strict win, `None`
    /// on a tie or when fewer than two detections fired.
    #[must_use]
    pub fn faster_pattern(&self) -> Option<PatternKind> {
        match (self.pattern1, self.pattern2) {
            (Some(a), Some(b)) if a.points_needed < b.points_needed => Some(PatternKind::RegionVisits),
            (Some(a), Some(b)) if b.points_needed < a.points_needed => Some(PatternKind::MovementPattern),
            _ => None,
        }
    }
}

/// Runs the incremental detector under both patterns against the matching
/// pair of profiles.
///
/// `profiles` are the user's ground-truth profiles (pattern 1, pattern 2)
/// built from the complete trace; `stays` are the visits extracted from
/// whatever the app collected; `trace_len` is the collected fix count.
#[must_use]
pub fn assess_risk(
    stays: &[Stay],
    trace_len: usize,
    grid: &Grid,
    matcher: &Matcher,
    profile1: &Profile,
    profile2: &Profile,
) -> RiskAssessment {
    RiskAssessment {
        pattern1: detect_incremental(stays, trace_len, grid, PatternKind::RegionVisits, matcher, profile1),
        pattern2: detect_incremental(stays, trace_len, grid, PatternKind::MovementPattern, matcher, profile2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_trace::Timestamp;

    fn det(points: usize) -> Detection {
        Detection {
            fraction_of_points: points as f64 / 100.0,
            points_needed: points,
            stays_needed: 1,
        }
    }

    #[test]
    fn combined_takes_the_earlier_detection() {
        let r = RiskAssessment {
            pattern1: Some(det(50)),
            pattern2: Some(det(20)),
        };
        assert_eq!(r.combined().unwrap().points_needed, 20);
        assert_eq!(r.faster_pattern(), Some(PatternKind::MovementPattern));
    }

    #[test]
    fn combined_falls_back_to_the_only_detection() {
        let r = RiskAssessment {
            pattern1: Some(det(50)),
            pattern2: None,
        };
        assert_eq!(r.combined().unwrap().points_needed, 50);
        assert_eq!(r.faster_pattern(), None);
    }

    #[test]
    fn ties_have_no_faster_pattern() {
        let r = RiskAssessment {
            pattern1: Some(det(30)),
            pattern2: Some(det(30)),
        };
        assert_eq!(r.faster_pattern(), None);
        assert!(r.combined().is_some());
    }

    #[test]
    fn nothing_detected_combines_to_none() {
        let r = RiskAssessment {
            pattern1: None,
            pattern2: None,
        };
        assert!(r.combined().is_none());
        assert_eq!(r.faster_pattern(), None);
    }

    #[test]
    fn end_to_end_on_a_synthetic_user() {
        use crate::poi::{ExtractorParams, SpatioTemporalExtractor};
        use backwatch_geo::{Grid, LatLon};
        use backwatch_trace::synth::{generate_user, SynthConfig};

        let user = generate_user(&SynthConfig::small(), 0);
        let params = ExtractorParams::paper_set1();
        let stays = SpatioTemporalExtractor::new(params).extract(&user.trace);
        let grid = Grid::new(LatLon::new(39.9042, 116.4074).unwrap(), backwatch_geo::Meters::new(250.0));
        let p1 = Profile::from_stays(PatternKind::RegionVisits, &stays, &grid);
        let p2 = Profile::from_stays(PatternKind::MovementPattern, &stays, &grid);
        let risk = assess_risk(&stays, user.trace.len(), &grid, &Matcher::paper(), &p1, &p2);
        // the full collection must reveal the profile it generated
        let combined = risk.combined().expect("full data must match its own profile");
        assert!(combined.fraction_of_points <= 1.0);
        let _ = Timestamp::from_secs(0);
    }
}
