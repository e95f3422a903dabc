//! Defense evaluation harness: score any [`Lppm`] against the paper's
//! privacy metrics and a utility cost.
//!
//! Privacy side (lower is better for the user's adversary):
//! - PoI recall/precision of the extraction run on the released trace;
//! - sensitive places recovered;
//! - His_bin detection (pattern 2) against the user's true profile;
//! - identification against a population profile store.
//!
//! Utility side (lower is better for the app):
//! - mean positional error of released fixes vs the true position at the
//!   same moment;
//! - fraction of fixes suppressed.

use crate::Lppm;
use backwatch_core::adversary::ProfileStore;
use backwatch_core::anonymity::Weighting;
use backwatch_core::hisbin::{detect_incremental, Matcher};
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::{cluster_stays, match_against_truth, sensitive_counts, ExtractorParams, SpatioTemporalExtractor};
use backwatch_geo::Grid;
use backwatch_trace::synth::UserTrace;
use rand::RngCore;

/// The scorecard of one mechanism on one user.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseOutcome {
    /// Mechanism name.
    pub mechanism: String,
    /// Fixes released (vs the true trace's count).
    pub released_points: usize,
    /// Fraction of fixes suppressed.
    pub suppressed_fraction: f64,
    /// Mean positional error of released fixes, meters (utility cost).
    pub mean_error_m: f64,
    /// PoI recall of an adversary extracting from the released trace.
    pub poi_recall: f64,
    /// PoI precision of the same extraction.
    pub poi_precision: f64,
    /// Sensitive places recovered at thresholds `[≤1, ≤2, ≤3]`.
    pub sensitive_recovered: [usize; 3],
    /// Fraction of the released data His_bin (pattern 2) needed to match
    /// the user's true profile, if it ever did.
    pub detection_fraction: Option<f64>,
    /// Whether the population adversary still uniquely identified the
    /// user.
    pub identified: bool,
    /// Degree of anonymity after the inference attack (`None` when no
    /// profile matched).
    pub degree: Option<f64>,
}

/// Everything the evaluation needs besides the mechanism itself.
pub struct EvalContext<'a> {
    /// The user under attack (trace + ground truth).
    pub user: &'a UserTrace,
    /// Population profiles (pattern 2) the adversary holds.
    pub store: &'a ProfileStore,
    /// The user's own ground-truth pattern-2 profile.
    pub true_profile: &'a Profile,
    /// Shared region grid.
    pub grid: &'a Grid,
    /// Extraction parameters.
    pub params: ExtractorParams,
    /// His_bin matcher.
    pub matcher: Matcher,
}

/// Runs the full scorecard for `mechanism` on the context's user.
///
/// # Panics
///
/// Panics if the user's trace is empty.
#[must_use]
pub fn evaluate(mechanism: &dyn Lppm, ctx: &EvalContext<'_>, rng: &mut dyn RngCore) -> DefenseOutcome {
    let true_trace = &ctx.user.trace;
    assert!(!true_trace.is_empty(), "cannot evaluate on an empty trace");
    let released = mechanism.apply(true_trace, rng);

    let mean_error_m = if released.is_empty() {
        0.0
    } else {
        // every lookup finds a fix: the true trace is not empty
        released
            .iter()
            .filter_map(|p| {
                true_trace
                    .position_at(p.time)
                    .map(|truth| ctx.params.metric.distance(p.pos, truth))
            })
            .sum::<f64>()
            / released.len() as f64
    };

    let extractor = SpatioTemporalExtractor::new(ctx.params);
    let stays = extractor.extract(&released);
    let match_radius = ctx.params.radius_m * 3.0;
    let recovery = match_against_truth(&stays, ctx.user, ctx.params.min_visit_secs, match_radius, ctx.params.metric);
    let places = cluster_stays(&stays, match_radius, ctx.params.metric);

    let detection = detect_incremental(
        &stays,
        released.len().max(1),
        ctx.grid,
        PatternKind::MovementPattern,
        &ctx.matcher,
        ctx.true_profile,
    );

    let observed = Profile::from_stays(PatternKind::MovementPattern, &stays, ctx.grid);
    let inference = ctx.store.infer(&observed, &ctx.matcher, Weighting::PaperChiSquare);

    DefenseOutcome {
        mechanism: mechanism.name().to_owned(),
        released_points: released.len(),
        suppressed_fraction: 1.0 - released.len() as f64 / true_trace.len() as f64,
        mean_error_m,
        poi_recall: recovery.recall(),
        poi_precision: recovery.precision(),
        sensitive_recovered: sensitive_counts(&places),
        detection_fraction: detection.map(|d| d.fraction_of_points),
        identified: inference.identified_user() == Some(ctx.user.user_id),
        degree: inference.degree(),
    }
}

/// Renders a suite of outcomes as an aligned text table.
#[must_use]
pub fn render_outcomes(outcomes: &[DefenseOutcome]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:>8} {:>10} {:>8} {:>10} {:>12} {:>11} {:>6}",
        "mechanism", "released", "err_m", "recall", "sens<=3", "detect_at", "identified", "deg"
    );
    for o in outcomes {
        let _ = writeln!(
            s,
            "{:<24} {:>8} {:>10.1} {:>7.0}% {:>10} {:>12} {:>11} {:>6}",
            o.mechanism,
            o.released_points,
            o.mean_error_m,
            o.poi_recall * 100.0,
            o.sensitive_recovered[2],
            o.detection_fraction
                .map_or_else(|| "never".to_owned(), |f| format!("{:.0}%", f * 100.0)),
            if o.identified { "yes" } else { "no" },
            o.degree.map_or_else(|| "-".to_owned(), |d| format!("{d:.2}")),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloaking::KAnonymousCloaking;
    use crate::decoy::FixedDecoy;
    use crate::perturbation::GaussianPerturbation;
    use crate::suppression::{SensitiveZone, ZoneSuppression};
    use crate::throttle::ReleaseThrottle;
    use crate::truncation::GridTruncation;
    use crate::NoDefense;
    use backwatch_geo::{Meters, Seconds};
    use backwatch_trace::synth::{generate_user, SynthConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        users: Vec<UserTrace>,
        store: ProfileStore,
        profiles: Vec<Profile>,
        grid: Grid,
        params: ExtractorParams,
    }

    fn fixture() -> Fixture {
        let mut cfg = SynthConfig::small();
        cfg.n_users = 5;
        cfg.days = 6;
        let params = ExtractorParams::paper_set1();
        let grid = Grid::new(cfg.city_center, Meters::new(250.0));
        let extractor = SpatioTemporalExtractor::new(params);
        let users: Vec<UserTrace> = (0..cfg.n_users).map(|i| generate_user(&cfg, i)).collect();
        let mut store = ProfileStore::new(PatternKind::MovementPattern);
        let mut profiles = Vec::new();
        for u in &users {
            let stays = extractor.extract(&u.trace);
            let p = Profile::from_stays(PatternKind::MovementPattern, &stays, &grid);
            store.insert(u.user_id, p.clone());
            profiles.push(p);
        }
        Fixture {
            users,
            store,
            profiles,
            grid,
            params,
        }
    }

    fn eval_with(f: &Fixture, mech: &dyn Lppm) -> DefenseOutcome {
        let ctx = EvalContext {
            user: &f.users[0],
            store: &f.store,
            true_profile: &f.profiles[0],
            grid: &f.grid,
            params: f.params,
            matcher: Matcher::paper(),
        };
        evaluate(mech, &ctx, &mut StdRng::seed_from_u64(7))
    }

    #[test]
    fn baseline_leaks_everything() {
        let f = fixture();
        let o = eval_with(&f, &NoDefense);
        assert!(o.poi_recall > 0.8);
        assert!(o.identified, "no defense: the adversary wins");
        assert!(o.detection_fraction.is_some());
        assert!(o.mean_error_m < 1.0);
        assert_eq!(o.suppressed_fraction, 0.0);
    }

    #[test]
    fn coarse_truncation_blocks_identification() {
        let f = fixture();
        let mech = GridTruncation::new(Grid::new(f.grid.origin(), Meters::new(2000.0)));
        let o = eval_with(&f, &mech);
        assert!(o.poi_recall < 0.3, "recall {}", o.poi_recall);
        assert!(!o.identified);
        // utility cost is bounded by the cell diagonal
        assert!(o.mean_error_m < 1500.0);
    }

    #[test]
    fn fixed_decoy_reveals_nothing_but_destroys_utility() {
        let f = fixture();
        let mech = FixedDecoy::new(backwatch_geo::LatLon::new(40.2, 116.9).unwrap());
        let o = eval_with(&f, &mech);
        assert_eq!(o.poi_recall, 0.0);
        assert!(!o.identified);
        assert!(o.detection_fraction.is_none());
        assert!(o.mean_error_m > 10_000.0, "decoy error {}", o.mean_error_m);
    }

    #[test]
    fn mild_perturbation_preserves_pois() {
        let f = fixture();
        let o = eval_with(&f, &GaussianPerturbation::new(Meters::new(10.0)));
        assert!(o.poi_recall > 0.7, "10 m noise should not hide 50 m-radius PoIs");
    }

    #[test]
    fn heavy_perturbation_degrades_recall() {
        let f = fixture();
        let mild = eval_with(&f, &GaussianPerturbation::new(Meters::new(10.0)));
        let heavy = eval_with(&f, &GaussianPerturbation::new(Meters::new(400.0)));
        assert!(heavy.poi_recall < mild.poi_recall);
        assert!(heavy.mean_error_m > mild.mean_error_m);
    }

    #[test]
    fn throttling_beyond_dwell_scale_kills_detection() {
        let f = fixture();
        let o = eval_with(&f, &ReleaseThrottle::new(Seconds::new(3600)));
        assert!(o.poi_recall < 0.5);
        assert!(o.suppressed_fraction > 0.99);
    }

    #[test]
    fn zone_suppression_hides_the_zone_only() {
        let f = fixture();
        // suppress around the user's home
        let home = f.users[0].places[0].pos;
        let mech = ZoneSuppression::new(vec![SensitiveZone::new(home, Meters::new(300.0))]);
        let o = eval_with(&f, &mech);
        assert!(o.suppressed_fraction > 0.05, "home fixes should vanish");
        assert!(o.poi_recall < 1.0);
        // fixes that are released are exact
        assert!(o.mean_error_m < 1.0);
    }

    #[test]
    fn cloaking_outcome_is_between_none_and_decoy() {
        let f = fixture();
        let anchors: Vec<_> = f.users.iter().map(|u| u.places[0].pos).collect();
        let mech = KAnonymousCloaking::new(f.grid.origin(), Meters::new(250.0), 7, 3, anchors);
        let o = eval_with(&f, &mech);
        let baseline = eval_with(&f, &NoDefense);
        assert!(o.poi_recall <= baseline.poi_recall + 1e-9);
        assert!(o.mean_error_m >= baseline.mean_error_m);
    }

    #[test]
    fn render_lists_every_mechanism() {
        let f = fixture();
        let outcomes = vec![
            eval_with(&f, &NoDefense),
            eval_with(&f, &ReleaseThrottle::new(Seconds::new(600))),
        ];
        let text = render_outcomes(&outcomes);
        assert!(text.contains("none"));
        assert!(text.contains("release-throttle"));
    }
}
