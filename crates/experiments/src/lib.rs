//! Reproduction harness: one module per table/figure of the paper's
//! evaluation, plus the shared per-user precomputation they draw from.
//!
//! Every module exposes a `run(...)` returning a plain-data result and a
//! `render(...)` producing the text the paper's table/figure reports. The
//! binaries under `src/bin/` are thin wrappers, each reading its scale
//! with [`small_from_args`] except `repro_all`, which takes more flags and
//! regenerates everything in one go (the content of `EXPERIMENTS.md`).
//!
//! Scale is controlled by [`ExperimentConfig`]: [`ExperimentConfig::paper`]
//! uses 182 synthetic users and the 28×100 app corpus; `small()` runs in
//! milliseconds for tests.

pub mod ext_ablation;
pub mod ext_defense;
pub mod ext_fgbg;
pub mod ext_leakage;
pub mod ext_reach_scale;
pub mod ext_reident;
pub mod ext_sdk_pool;
pub mod ext_serve;
pub mod ext_static_reach;
pub mod ext_streaming;
pub mod ext_taint;
pub mod ext_ttc;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod obs;
pub mod pool;
pub mod prepare;

use backwatch_core::hisbin::Matcher;
use backwatch_core::metrics::PAPER_INTERVALS;
use backwatch_core::poi::ExtractorParams;
use backwatch_trace::synth::SynthConfig;

/// Shared configuration for the trace-driven experiments (Figures 2–5).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The synthetic population.
    pub synth: SynthConfig,
    /// Extraction parameters (the paper fixes Table III set 1).
    pub params: ExtractorParams,
    /// Cell size of the shared region grid.
    pub grid_cell_m: backwatch_geo::Meters,
    /// The His_bin matcher.
    pub matcher: Matcher,
    /// Access intervals to sweep, seconds.
    pub intervals: Vec<i64>,
    /// Worker threads for the per-user pipeline.
    pub threads: usize,
}

impl ExperimentConfig {
    /// Paper scale: 182 users, 28 days.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            synth: SynthConfig::paper_scale(),
            params: ExtractorParams::paper_set1(),
            grid_cell_m: backwatch_geo::Meters::new(250.0),
            matcher: Matcher::paper(),
            intervals: PAPER_INTERVALS.to_vec(),
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
        }
    }

    /// Test scale: a handful of users and a short interval sweep.
    #[must_use]
    pub fn small() -> Self {
        Self {
            synth: SynthConfig::small(),
            intervals: vec![1, 60, 7200],
            threads: 2,
            ..Self::paper()
        }
    }

    /// The grid every profile in this experiment is quantized on.
    #[must_use]
    pub fn grid(&self) -> backwatch_geo::Grid {
        backwatch_geo::Grid::new(self.synth.city_center, self.grid_cell_m)
    }
}

/// Whether an experiment binary runs at test scale, read from its command
/// line: no argument means paper scale and `--small` means test scale. Any
/// other command line prints a usage line and exits with status 2, so a
/// typo such as `--smal` cannot start a paper-scale run.
#[must_use]
pub fn small_from_args() -> bool {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse_small(&args.collect::<Vec<_>>()).unwrap_or_else(|| {
        eprintln!("usage: {bin} [--small]");
        std::process::exit(2)
    })
}

/// `Some(small)` for a valid argument list (after the program name).
fn parse_small(args: &[String]) -> Option<bool> {
    match args {
        [] => Some(false),
        [flag] if flag == "--small" => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_the_papers_scale() {
        let cfg = ExperimentConfig::paper();
        assert_eq!(cfg.synth.n_users, 182);
        assert_eq!(cfg.intervals.first(), Some(&1));
        assert_eq!(cfg.intervals.last(), Some(&7200));
        assert_eq!(cfg.params.radius_m.get(), 50.0);
        assert_eq!(cfg.params.min_visit_secs.get(), 600);
        assert!(cfg.threads >= 1);
    }

    #[test]
    fn small_config_is_actually_small() {
        let cfg = ExperimentConfig::small();
        assert!(cfg.synth.n_users <= 8);
        assert!(cfg.intervals.len() <= 4);
    }

    #[test]
    fn only_a_lone_small_flag_is_accepted() {
        let args = |xs: &[&str]| xs.iter().map(|x| (*x).to_owned()).collect::<Vec<_>>();
        assert_eq!(parse_small(&args(&[])), Some(false));
        assert_eq!(parse_small(&args(&["--small"])), Some(true));
        assert_eq!(parse_small(&args(&["--smal"])), None);
        assert_eq!(parse_small(&args(&["--small", "--small"])), None);
    }

    #[test]
    fn grid_is_anchored_at_the_city_center() {
        let cfg = ExperimentConfig::small();
        let grid = cfg.grid();
        assert_eq!(grid.origin(), cfg.synth.city_center);
        assert_eq!(grid.cell_size_m(), cfg.grid_cell_m.get());
    }
}
