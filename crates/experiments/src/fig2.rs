//! Table III + Figure 2: PoIs extracted under different extractor
//! parameters.
//!
//! The paper sweeps radius ∈ {50, 100} m × visiting time ∈ {10, 20, 30}
//! min over the whole dataset and plots the number of extracted PoIs per
//! parameter set, then picks set 1 (50 m / 10 min) for everything else.

use crate::pool::map_users;
use crate::ExperimentConfig;
use backwatch_core::poi::{ExtractorParams, SpatioTemporalExtractor};
use backwatch_trace::synth::generate_user;
use backwatch_trace::SoaProjectedTrace;
use std::fmt::Write as _;

/// One row of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Row {
    /// 1-based parameter-set id, matching Table III.
    pub set_id: usize,
    /// Visiting time, minutes.
    pub visiting_min: i64,
    /// Radius, meters.
    pub radius_m: f64,
    /// Total PoI visits extracted across the population.
    pub pois: usize,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// One row per Table III parameter set.
    pub rows: Vec<Fig2Row>,
}

/// Runs the Table III sweep over the configured population.
#[must_use]
pub fn run(cfg: &ExperimentConfig) -> Fig2Result {
    let sets = ExtractorParams::table3_sets();
    // One projection per user serves all six parameter sets.
    let per_user: Vec<[usize; 6]> = map_users(cfg.synth.n_users, cfg.threads, |i| {
        let user = generate_user(&cfg.synth, i);
        let projected = SoaProjectedTrace::project(&user.trace);
        let mut counts = [0usize; 6];
        for (k, params) in sets.iter().enumerate() {
            counts[k] = SpatioTemporalExtractor::new(*params).extract_soa(&projected).len();
        }
        counts
    });
    let rows = sets
        .iter()
        .enumerate()
        .map(|(k, p)| Fig2Row {
            set_id: k + 1,
            visiting_min: p.min_visit_secs.whole_minutes(),
            radius_m: p.radius_m.get(),
            pois: per_user.iter().map(|c| c[k]).sum(),
        })
        .collect();
    Fig2Result { rows }
}

/// The Figure 2 series as CSV (`set,visiting_min,radius_m,pois`).
#[must_use]
pub fn to_csv(result: &Fig2Result) -> String {
    let mut s = String::from("set,visiting_min,radius_m,pois\n");
    for r in &result.rows {
        let _ = writeln!(s, "{},{},{},{}", r.set_id, r.visiting_min, r.radius_m, r.pois);
    }
    s
}

/// Renders Table III and the Figure 2 series.
#[must_use]
pub fn render(result: &Fig2Result) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "TABLE III / FIGURE 2: PoIs extracted under different parameters");
    let _ = writeln!(
        s,
        "{:>6} {:>18} {:>10} {:>12}",
        "set", "visiting_time_min", "radius_m", "pois"
    );
    for r in &result.rows {
        let _ = writeln!(s, "{:>6} {:>18} {:>10} {:>12}", r.set_id, r.visiting_min, r.radius_m, r.pois);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig2Result {
        run(&ExperimentConfig::small())
    }

    #[test]
    fn six_parameter_sets_produce_six_rows() {
        let r = result();
        assert_eq!(r.rows.len(), 6);
        assert_eq!(r.rows[0].set_id, 1);
        assert_eq!(r.rows[0].radius_m, 50.0);
        assert_eq!(r.rows[0].visiting_min, 10);
    }

    #[test]
    fn longer_visiting_time_extracts_fewer_pois() {
        let r = result();
        // within each radius group, PoIs decrease as visiting time grows
        assert!(r.rows[0].pois >= r.rows[1].pois);
        assert!(r.rows[1].pois >= r.rows[2].pois);
        assert!(r.rows[3].pois >= r.rows[4].pois);
        assert!(r.rows[4].pois >= r.rows[5].pois);
        // and something was extracted at all
        assert!(r.rows[0].pois > 0);
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let r = result();
        let csv = to_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "set,visiting_min,radius_m,pois");
        assert_eq!(lines.len(), 1 + r.rows.len());
    }

    #[test]
    fn render_contains_all_rows() {
        let r = result();
        let text = render(&r);
        assert!(text.contains("TABLE III"));
        for row in &r.rows {
            assert!(text.contains(&row.pois.to_string()));
        }
    }
}
