//! Extension experiment: foreground vs background collection at equal
//! fix budgets — the paper's motivating comparison made quantitative.
//!
//! §III argues that foreground apps see "discrete locations" from which
//! PoIs cannot be recovered, while a background app with the *same number
//! of fixes* sees a coherent stream. We give both collectors the same
//! budget (the fix count a background poller at interval `I` achieves)
//! and compare what the adversary extracts.

use crate::prepare::UserData;
use crate::ExperimentConfig;
use backwatch_core::hisbin::detect_incremental;
use backwatch_core::pattern::PatternKind;
use backwatch_core::poi::{SpatioTemporalExtractor, Stay};
use backwatch_trace::sampling;
use backwatch_trace::synth::generate_user;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Aggregate comparison at one fix budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FgBgRow {
    /// The background interval that defines the budget.
    pub interval_s: i64,
    /// Mean fixes per user at this budget.
    pub mean_budget: f64,
    /// Total PoI visits extracted from background collections.
    pub bg_pois: usize,
    /// Total PoI visits extracted from foreground collections of the same
    /// size.
    pub fg_pois: usize,
    /// Users whose profile a background collection reveals (His_bin,
    /// pattern 2).
    pub bg_detected: usize,
    /// Users whose profile the foreground collection reveals.
    pub fg_detected: usize,
}

/// The experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct FgBgResult {
    /// One row per analysed interval.
    pub rows: Vec<FgBgRow>,
}

/// Runs the comparison. Only intervals ≥ `min_interval_s` are analysed —
/// at 1 s both collectors see everything and the comparison is vacuous.
#[must_use]
pub fn run(cfg: &ExperimentConfig, users: &[UserData], min_interval_s: i64) -> FgBgResult {
    let grid = cfg.grid();
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let detects = |stays: &[Stay], fixes: usize, u: &UserData| {
        detect_incremental(
            stays,
            fixes.max(1),
            &grid,
            PatternKind::MovementPattern,
            &cfg.matcher,
            &u.profile2,
        )
        .is_some()
    };
    // One accumulator per analysed interval: its index, its row and the
    // users' summed fix budgets. Users are the outer loop, so each trace is
    // synthesized once for every budget; each row still sums its users in
    // order.
    let mut acc: Vec<(usize, FgBgRow, usize)> = cfg
        .intervals
        .iter()
        .enumerate()
        .filter(|&(_, &i)| i >= min_interval_s)
        .map(|(k, &interval_s)| {
            let row = FgBgRow {
                interval_s,
                mean_budget: 0.0,
                bg_pois: 0,
                fg_pois: 0,
                bg_detected: 0,
                fg_detected: 0,
            };
            (k, row, 0)
        })
        .collect();
    for u in users {
        // Regenerate the trace (prepared users drop it) — deterministic.
        let trace = generate_user(&cfg.synth, u.user_id).trace;
        for (k, row, budget_sum) in &mut acc {
            let bg = &u.per_interval[*k];
            let budget = bg.collected_points;
            *budget_sum += budget;
            row.bg_pois += bg.stays.len();
            row.bg_detected += usize::from(detects(&bg.stays, bg.collected_points, u));
            // Foreground: the same budget as isolated interactions.
            let mut rng = StdRng::seed_from_u64(cfg.synth.seed ^ u64::from(u.user_id) ^ 0xF6B6);
            let fg_trace = sampling::foreground_sessions(&trace, budget, &mut rng);
            let fg_stays = extractor.extract(&fg_trace);
            row.fg_pois += fg_stays.len();
            row.fg_detected += usize::from(detects(&fg_stays, fg_trace.len(), u));
        }
    }
    let rows = acc
        .into_iter()
        .map(|(_, row, budget_sum)| FgBgRow {
            mean_budget: budget_sum as f64 / users.len().max(1) as f64,
            ..row
        })
        .collect();
    FgBgResult { rows }
}

/// Renders the comparison table.
#[must_use]
pub fn render(result: &FgBgResult) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "EXTENSION: foreground vs background collection at equal fix budgets");
    let _ = writeln!(
        s,
        "{:>10} {:>12} {:>9} {:>9} {:>12} {:>12}",
        "interval_s", "mean_budget", "bg_pois", "fg_pois", "bg_detected", "fg_detected"
    );
    for r in &result.rows {
        let _ = writeln!(
            s,
            "{:>10} {:>12.0} {:>9} {:>9} {:>12} {:>12}",
            r.interval_s, r.mean_budget, r.bg_pois, r.fg_pois, r.bg_detected, r.fg_detected
        );
    }
    let _ = writeln!(
        s,
        "(the paper's §III claim, quantified: at every budget the foreground stream\n reveals fewer or structureless PoIs — at tiny budgets its random samples pile up\n at home and fabricate dwells, but the movement profile never materializes, so\n His_bin detection lives almost entirely on the background side)"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::prepare_users;

    fn result() -> FgBgResult {
        let cfg = ExperimentConfig::small();
        let users = prepare_users(&cfg);
        run(&cfg, &users, 60)
    }

    #[test]
    fn background_detection_dominates_at_every_budget() {
        // PoI *counts* can cross at tiny budgets (foreground samples pile
        // up at home and fabricate dwells), but profile detection — the
        // paper's actual risk — always favors the coherent background
        // stream.
        let r = result();
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            assert!(
                row.bg_detected >= row.fg_detected,
                "interval {}: bg {} vs fg {}",
                row.interval_s,
                row.bg_detected,
                row.fg_detected
            );
        }
    }

    #[test]
    fn foreground_loses_structure_somewhere_in_the_sweep() {
        // the discrimination grows as budgets shrink: at least one budget
        // must show foreground strictly behind background
        let r = result();
        assert!(r.rows.iter().any(|row| row.fg_pois < row.bg_pois), "rows: {:?}", r.rows);
        assert!(r.rows.iter().all(|row| row.bg_pois > 0));
    }

    #[test]
    fn render_mentions_both_sides() {
        let text = render(&result());
        assert!(text.contains("bg_pois"));
        assert!(text.contains("fg_detected"));
    }
}
