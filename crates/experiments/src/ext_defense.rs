//! Extension experiment: population-scale LPPM evaluation.
//!
//! Runs every defense mechanism over the whole population and aggregates
//! the scorecards — the countermeasure study the paper's conclusion calls
//! for. For each mechanism: what does the adversary still recover, and
//! what does the honest app lose?

use crate::prepare::UserData;
use crate::ExperimentConfig;
use backwatch_core::adversary::ProfileStore;
use backwatch_core::pattern::PatternKind;
use backwatch_defense::cloaking::KAnonymousCloaking;
use backwatch_defense::decoy::SyntheticDecoy;
use backwatch_defense::eval::{evaluate, EvalContext};
use backwatch_defense::geoind::GeoIndistinguishability;
use backwatch_defense::perturbation::GaussianPerturbation;
use backwatch_defense::throttle::ReleaseThrottle;
use backwatch_defense::truncation::GridTruncation;
use backwatch_defense::{Lppm, NoDefense};
use backwatch_geo::{Grid, Meters, Seconds};
use backwatch_trace::synth::{generate_home, generate_user};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Aggregated scorecard of one mechanism over the population.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseRow {
    /// Mechanism name.
    pub mechanism: String,
    /// Mean PoI recall the adversary still achieves.
    pub mean_recall: f64,
    /// Mean positional error honest apps pay, meters.
    pub mean_error_m: f64,
    /// Users the population adversary still uniquely identifies.
    pub identified: usize,
    /// Users whose own profile His_bin still matches.
    pub detected: usize,
    /// Users evaluated.
    pub users: usize,
}

/// The experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseResult {
    /// One row per mechanism.
    pub rows: Vec<DefenseRow>,
}

/// The default mechanism suite evaluated by [`run`].
#[must_use]
pub fn default_suite(cfg: &ExperimentConfig, anchors: Vec<backwatch_geo::LatLon>) -> Vec<Box<dyn Lppm>> {
    vec![
        Box::new(NoDefense),
        Box::new(GaussianPerturbation::new(Meters::new(100.0))),
        Box::new(GeoIndistinguishability::new(0.01)),
        Box::new(GridTruncation::new(Grid::new(cfg.synth.city_center, Meters::new(1000.0)))),
        Box::new(KAnonymousCloaking::new(
            cfg.synth.city_center,
            Meters::new(250.0),
            7,
            5,
            anchors,
        )),
        Box::new(ReleaseThrottle::new(Seconds::new(1800))),
        Box::new(SyntheticDecoy::new(
            cfg.synth.city_center,
            Meters::new(20.0),
            Meters::new(500.0),
        )),
    ]
}

/// Evaluates the default suite over (a sample of) the population.
///
/// `sample` caps how many users are attacked per mechanism (the adversary
/// store always holds the *whole* population's profiles).
#[must_use]
pub fn run(cfg: &ExperimentConfig, users: &[UserData], sample: usize) -> DefenseResult {
    let grid = cfg.grid();
    let mut store = ProfileStore::new(PatternKind::MovementPattern);
    for u in users {
        store.insert(u.user_id, u.profile2.clone());
    }
    // Anchors (homes) for the cloaking mechanism.
    let anchors: Vec<_> = users.iter().map(|u| generate_home(&cfg.synth, u.user_id)).collect();
    let suite = default_suite(cfg, anchors);
    let sample = sample.min(users.len());

    // One row per mechanism; its means hold running sums until the final
    // division. Users are the outer loop, so each sampled user is
    // synthesized once for the whole suite; each row still sums its users
    // in order.
    let mut rows: Vec<DefenseRow> = suite
        .iter()
        .map(|mech| DefenseRow {
            mechanism: mech.name().to_owned(),
            mean_recall: 0.0,
            mean_error_m: 0.0,
            identified: 0,
            detected: 0,
            users: sample,
        })
        .collect();
    for u in users.iter().take(sample) {
        let full_user = generate_user(&cfg.synth, u.user_id);
        let ctx = EvalContext {
            user: &full_user,
            store: &store,
            true_profile: &u.profile2,
            grid: &grid,
            params: cfg.params,
            matcher: cfg.matcher,
        };
        for (mech, row) in suite.iter().zip(&mut rows) {
            let mut rng = StdRng::seed_from_u64(cfg.synth.seed ^ u64::from(u.user_id) ^ 0xDEF);
            let outcome = evaluate(mech.as_ref(), &ctx, &mut rng);
            row.mean_recall += outcome.poi_recall;
            row.mean_error_m += outcome.mean_error_m;
            row.identified += usize::from(outcome.identified);
            row.detected += usize::from(outcome.detection_fraction.is_some());
        }
    }
    for row in &mut rows {
        row.mean_recall /= sample.max(1) as f64;
        row.mean_error_m /= sample.max(1) as f64;
    }
    DefenseResult { rows }
}

/// Renders the scorecard table.
#[must_use]
pub fn render(result: &DefenseResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "EXTENSION: LPPM scorecard over the population");
    let _ = writeln!(
        s,
        "{:<24} {:>8} {:>10} {:>12} {:>10} {:>7}",
        "mechanism", "recall", "err_m", "identified", "detected", "users"
    );
    for r in &result.rows {
        let _ = writeln!(
            s,
            "{:<24} {:>7.0}% {:>10.1} {:>12} {:>10} {:>7}",
            r.mechanism,
            r.mean_recall * 100.0,
            r.mean_error_m,
            r.identified,
            r.detected,
            r.users
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::prepare_users;

    fn result() -> DefenseResult {
        let cfg = ExperimentConfig::small();
        let users = prepare_users(&cfg);
        run(&cfg, &users, 3)
    }

    #[test]
    fn baseline_leaks_and_decoy_does_not() {
        let r = result();
        let baseline = r.rows.iter().find(|r| r.mechanism == "none").unwrap();
        let decoy = r.rows.iter().find(|r| r.mechanism == "synthetic-decoy").unwrap();
        assert!(baseline.mean_recall > 0.8);
        assert!(baseline.identified > 0);
        assert_eq!(decoy.identified, 0);
        assert!(decoy.mean_recall < 0.05);
    }

    #[test]
    fn every_mechanism_weakly_reduces_recall() {
        let r = result();
        let baseline = r.rows.iter().find(|r| r.mechanism == "none").unwrap().mean_recall;
        for row in &r.rows {
            assert!(row.mean_recall <= baseline + 1e-9, "{}", row.mechanism);
        }
    }

    #[test]
    fn render_lists_all_mechanisms() {
        let r = result();
        let text = render(&r);
        for row in &r.rows {
            assert!(text.contains(&row.mechanism));
        }
    }
}
