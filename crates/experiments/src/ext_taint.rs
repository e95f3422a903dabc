//! Extension experiment X12: interprocedural taint at million-app scale,
//! cross-validated against the dynamic leakage adversary.
//!
//! PR 5's reachability answers *"can this app reach a location API?"*;
//! the taint pass refines that to *"does it exfiltrate what it read, and
//! at what precision?"*. This experiment runs the taint-carrying sweep
//! at X9's market scale and anchors it three ways:
//!
//! 1. **Subset**: on every app in the snapshot, the taint class refines
//!    the reachability class — taint-positive ⊆ reachability-positive,
//!    `no_access` exactly on non-accessors. Checked on all apps, not a
//!    sample, because it is a structural invariant of the lattice.
//! 2. **Oracle**: a strided slice is re-analyzed by the uncached taint
//!    oracle (`taint::analyze_entry`) and must agree bit-for-bit, the
//!    same way X9 anchors the reachability cache.
//! 3. **Knife edge**: the static sanitizer degree `d` must predict the
//!    X11 containment adversary's dynamic outcome. The adversary is run
//!    over a synthetic population at the densest reporting interval; the
//!    *knife-edge precision* is the smallest decimal count at which it
//!    uniquely identifies anyone. An app classified
//!    `exfiltrates_sanitized(d)` is predicted identifying iff
//!    `d >= knife_edge`, and `exfiltrates_raw` iff the lossless channel
//!    identifies — both must match what the adversary actually does.

use crate::ExperimentConfig;
use backwatch_core::leakage::{self, CoordSet, LeakageAdversary, Precision};
use backwatch_geo::Seconds;
use backwatch_market::corpus::{self, CorpusConfig, MarketApp};
use backwatch_market::summary::SummaryCache;
use backwatch_market::sweep::{sweep, sweep_incremental, Funnel, SweepResult};
use backwatch_market::taint::{self, TaintClass};
use backwatch_trace::synth::generate_user;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The reporting interval the knife-edge calibration runs at — the
/// densest of X11's divisor chain, where precision alone separates the
/// outcomes.
pub const KNIFE_EDGE_INTERVAL_S: i64 = 60;

/// Taint-scale run configuration.
#[derive(Debug, Clone)]
pub struct TaintScaleConfig {
    /// The market snapshot to sweep.
    pub corpus: CorpusConfig,
    /// Worker threads for the sweeps.
    pub threads: usize,
    /// Every `stride`-th app is cross-validated against the taint oracle.
    pub stride: usize,
    /// Population for the dynamic leakage calibration.
    pub leak: ExperimentConfig,
}

impl TaintScaleConfig {
    /// CI-sized run: 840 apps, small population, same assertions.
    #[must_use]
    pub fn small() -> Self {
        Self {
            corpus: CorpusConfig::scaled(30).with_sdk_share(90).with_churn_ppm(10_000),
            threads: 4,
            stride: 9,
            leak: ExperimentConfig::small(),
        }
    }

    /// The headline run: X9's 1,000,020-app market plus the paper-scale
    /// 182-user population for the knife-edge calibration.
    #[must_use]
    pub fn full() -> Self {
        Self {
            corpus: CorpusConfig::scaled(35_715).with_sdk_share(90).with_churn_ppm(5_000),
            threads: 4,
            stride: 357,
            leak: ExperimentConfig::paper(),
        }
    }
}

/// Dynamic side of the knife-edge cross-validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnifeEdge {
    /// Users in the calibration population.
    pub users: usize,
    /// Users uniquely identified at `Decimals(d)`, indexed by `d`.
    pub identified_by_decimals: [usize; 5],
    /// Users uniquely identified on the lossless channel.
    pub identified_lossless: usize,
    /// Smallest decimal count at which anyone is identified; `None` if
    /// no truncated channel identifies.
    pub knife_edge: Option<u8>,
}

impl KnifeEdge {
    /// Whether the dynamic adversary identifies anyone at the precision
    /// a static class leaks at. `None` for classes that leak nothing.
    #[must_use]
    pub fn identifies_at(&self, class: TaintClass) -> Option<bool> {
        match class {
            TaintClass::NoAccess | TaintClass::AccessOnly => None,
            TaintClass::ExfiltratesSanitized(d) => Some(self.identified_by_decimals.get(usize::from(d)).is_some_and(|&n| n > 0)),
            TaintClass::ExfiltratesRaw => Some(self.identified_lossless > 0),
        }
    }

    /// The static prediction for the same class: sanitized leaks
    /// identify iff the degree reaches the knife edge; raw leaks iff the
    /// lossless channel identifies at all.
    #[must_use]
    pub fn predicts_identifying(&self, class: TaintClass) -> Option<bool> {
        match class {
            TaintClass::NoAccess | TaintClass::AccessOnly => None,
            TaintClass::ExfiltratesSanitized(d) => Some(self.knife_edge.is_some_and(|k| d >= k)),
            TaintClass::ExfiltratesRaw => Some(self.identified_lossless > 0),
        }
    }

    /// Identification is monotone in precision: more decimals never
    /// identify fewer users, and lossless dominates every truncation.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        let ladder = &self.identified_by_decimals;
        ladder.iter().zip(ladder.iter().skip(1)).all(|(a, b)| a <= b)
            && ladder.iter().max().copied().unwrap_or(0) <= self.identified_lossless
    }
}

/// Everything the X12 run measures.
#[derive(Debug, Clone)]
pub struct TaintScaleResult {
    /// Apps in the snapshot.
    pub total: usize,
    /// The cold sweep of snapshot 0.
    pub cold: SweepResult,
    /// A warm re-sweep of the same snapshot (fully cache-resident).
    pub warm: SweepResult,
    /// The incremental sweep of snapshot 1.
    pub incremental: SweepResult,
    /// Apps whose content digest changed (exactly the re-analyzed set).
    pub digest_changed: usize,
    /// `cold.wall / incremental.wall`.
    pub speedup: f64,
    /// The cold sweep's funnel, split by taint class.
    pub funnel: Funnel,
    /// Apps per taint class in the cold sweep.
    pub histogram: BTreeMap<TaintClass, usize>,
    /// Apps whose taint class contradicts their reachability class
    /// (must be 0; checked on every app).
    pub subset_violations: usize,
    /// Apps in the oracle-validated slice.
    pub slice_apps: usize,
    /// Slice apps whose cached finding or taint class differs from the
    /// uncached oracle (must be 0).
    pub slice_mismatches: usize,
    /// The dynamic calibration the static degrees are checked against.
    pub knife_edge: KnifeEdge,
    /// Taint classes in the histogram whose static prediction was
    /// cross-validated against the adversary.
    pub degrees_checked: usize,
    /// Classes where the static prediction and the dynamic outcome
    /// disagree (must be 0).
    pub degree_disagreements: usize,
}

/// Runs the X11 containment adversary over a fresh population at the
/// knife-edge interval, one candidate query per (user, precision).
#[must_use]
pub fn calibrate_knife_edge(cfg: &ExperimentConfig) -> KnifeEdge {
    let n_users = cfg.synth.n_users;
    let (full, sampled): (Vec<CoordSet>, Vec<CoordSet>) = crate::pool::map_users(n_users, cfg.threads, |u| {
        let user = generate_user(&cfg.synth, u);
        let times: Vec<i64> = user.trace.points().iter().map(|p| p.time.as_secs()).collect();
        let indices = leakage::sample_indices(&times, Seconds::new(KNIFE_EDGE_INTERVAL_S));
        (
            CoordSet::from_trace(&user.trace),
            CoordSet::from_sampled(&user.trace, &indices),
        )
    })
    .into_iter()
    .unzip();
    let mut adversary = LeakageAdversary::new();
    for (u, set) in full.into_iter().enumerate() {
        adversary.insert(u as u32, set);
    }

    let identified_at = |precision: Precision| {
        sampled
            .iter()
            .filter(|leak| adversary.candidates(leak, precision).len() == 1)
            .count()
    };
    let mut identified_by_decimals = [0usize; 5];
    for (d, slot) in identified_by_decimals.iter_mut().enumerate() {
        *slot = identified_at(Precision::Decimals(d as u8));
    }
    let identified_lossless = identified_at(Precision::Lossless);
    let knife_edge = identified_by_decimals.iter().position(|&n| n > 0).map(|d| d as u8);
    KnifeEdge {
        users: sampled.len(),
        identified_by_decimals,
        identified_lossless,
        knife_edge,
    }
}

/// Runs the cold/warm/incremental sweeps, the all-apps subset check, the
/// strided oracle cross-validation, and the knife-edge agreement.
#[must_use]
pub fn run(cfg: &TaintScaleConfig) -> TaintScaleResult {
    let cache = SummaryCache::new();
    let cold = sweep(&cfg.corpus, cfg.threads, &cache);
    let warm = sweep(&cfg.corpus, cfg.threads, &cache);
    let next = cfg.corpus.at_snapshot(cfg.corpus.snapshot + 1);
    let (incremental, delta) = sweep_incremental(&next, &cold, cfg.threads, &cache);
    let speedup = cold.wall.as_secs_f64() / incremental.wall.as_secs_f64().max(f64::EPSILON);

    // (1) the subset invariant holds on every app, not a sample
    let subset_violations = cold.records.iter().filter(|r| !r.taint.refines(r.class)).count();

    // (2) strided slice against the uncached taint oracle
    let indexes: Vec<usize> = (0..cfg.corpus.total()).step_by(cfg.stride.max(1)).collect();
    let slice_mismatches = indexes
        .iter()
        .filter(|&&i| {
            let entry: MarketApp = corpus::app_at(&cfg.corpus, i);
            let oracle = taint::analyze_entry(&entry);
            oracle.finding != cold.finding_at(i) || oracle.taint != cold.records[i].taint
        })
        .count();

    // (3) static degree vs dynamic adversary, class by class
    let knife_edge = calibrate_knife_edge(&cfg.leak);
    let histogram = cold.taint_histogram();
    let mut degrees_checked = 0usize;
    let mut degree_disagreements = 0usize;
    for &class in histogram.keys() {
        let (Some(predicted), Some(observed)) = (knife_edge.predicts_identifying(class), knife_edge.identifies_at(class)) else {
            continue;
        };
        degrees_checked += 1;
        degree_disagreements += usize::from(predicted != observed);
    }

    TaintScaleResult {
        total: cfg.corpus.total(),
        funnel: cold.funnel(),
        histogram,
        subset_violations,
        digest_changed: delta.digest_changed,
        speedup,
        slice_apps: indexes.len(),
        slice_mismatches,
        knife_edge,
        degrees_checked,
        degree_disagreements,
        cold,
        warm,
        incremental,
    }
}

/// Renders the taint-scale report, one greppable `key=value` line per
/// claim.
#[must_use]
pub fn render(cfg: &TaintScaleConfig, result: &TaintScaleResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "EXTENSION: interprocedural taint at scale (X12)");
    let _ = writeln!(
        out,
        "corpus: apps={} sdk_share={}% churn_ppm={} threads={}",
        result.total, cfg.corpus.sdk_share_percent, cfg.corpus.churn_ppm, cfg.threads
    );
    let f = &result.funnel;
    let _ = writeln!(
        out,
        "funnel: total={} declaring={} functional={} background={} auto_start={} parse_failures={}",
        f.total, f.declaring, f.functional, f.background, f.auto_start, f.parse_failures
    );
    let _ = writeln!(
        out,
        "taint split: access_only={} exfil_sanitized={} exfil_raw={} taint_hits={}",
        f.access_only,
        f.exfil_sanitized,
        f.exfil_raw,
        f.exfil_sanitized + f.exfil_raw
    );
    for (class, count) in &result.histogram {
        let _ = writeln!(out, "taint class: {class}={count}");
    }
    let _ = writeln!(
        out,
        "cold sweep: wall_s={:.3} analyzed={} cache_hits={} cache_misses={} hit_rate={:.4}",
        result.cold.wall.as_secs_f64(),
        result.cold.analyzed,
        result.cold.tally.hits,
        result.cold.tally.misses,
        result.cold.tally.hit_rate()
    );
    let _ = writeln!(
        out,
        "warm sweep: wall_s={:.3} cache_misses={}",
        result.warm.wall.as_secs_f64(),
        result.warm.tally.misses
    );
    let _ = writeln!(
        out,
        "incremental sweep: wall_s={:.3} reanalyzed={} reused={} digest_changed={} speedup={:.1}x",
        result.incremental.wall.as_secs_f64(),
        result.incremental.analyzed,
        result.incremental.reused,
        result.digest_changed,
        result.speedup
    );
    let _ = writeln!(out, "subset: apps={} violations={}", result.total, result.subset_violations);
    let _ = writeln!(
        out,
        "cross-validation: slice_apps={} taint_mismatches={}",
        result.slice_apps, result.slice_mismatches
    );
    let k = &result.knife_edge;
    let _ = writeln!(
        out,
        "knife edge: interval_s={} users={} identified_by_decimals={:?} identified_lossless={} knife_edge={} monotone={}",
        KNIFE_EDGE_INTERVAL_S,
        k.users,
        k.identified_by_decimals,
        k.identified_lossless,
        k.knife_edge.map_or_else(|| "none".to_owned(), |d| d.to_string()),
        if k.is_monotone() { "yes" } else { "VIOLATED" }
    );
    let _ = writeln!(
        out,
        "degree agreement: classes_checked={} disagreements={}",
        result.degrees_checked, result.degree_disagreements
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext_leakage::PRECISIONS;

    fn tiny() -> TaintScaleConfig {
        TaintScaleConfig {
            corpus: CorpusConfig::scaled(8).with_sdk_share(90),
            threads: 2,
            stride: 3,
            leak: ExperimentConfig::small(),
        }
    }

    #[test]
    fn taint_scale_run_is_verified_end_to_end() {
        let cfg = tiny();
        let result = run(&cfg);
        assert_eq!(result.subset_violations, 0, "taint contradicted reachability");
        assert_eq!(result.slice_mismatches, 0, "cached taint diverged from the oracle");
        assert_eq!(result.degree_disagreements, 0, "static degree disagreed with the adversary");
        assert!(result.knife_edge.is_monotone());
        let f = &result.funnel;
        assert_eq!(
            f.access_only + f.exfil_sanitized + f.exfil_raw,
            f.functional,
            "the taint split partitions the functional apps"
        );
        assert!(f.exfil_sanitized > 0 && f.exfil_raw > 0, "corpus carries both exfil flavors");
        assert_eq!(result.histogram.values().sum::<usize>(), result.total);
        assert_eq!(result.warm.tally.misses, 0, "warm sweep is fully cache-resident");
        assert!(result.incremental.analyzed < result.total);
        assert!(
            result.cold.tally.hit_rate() >= 0.90,
            "90% SDK share must reach a 90% hit rate, got {:.3}",
            result.cold.tally.hit_rate()
        );
    }

    #[test]
    fn knife_edge_predictions_are_internally_consistent() {
        let k = calibrate_knife_edge(&ExperimentConfig::small());
        assert!(k.is_monotone());
        for d in 0..=4u8 {
            let class = TaintClass::ExfiltratesSanitized(d);
            assert_eq!(
                k.predicts_identifying(class),
                k.identifies_at(class),
                "degree {d}: monotone identification makes the knife-edge rule exact"
            );
        }
        assert_eq!(k.predicts_identifying(TaintClass::NoAccess), None);
        assert_eq!(k.identifies_at(TaintClass::AccessOnly), None);
    }

    #[test]
    fn render_carries_the_greppable_claims() {
        let cfg = tiny();
        let text = render(&cfg, &run(&cfg));
        assert!(text.contains("EXTENSION: interprocedural taint at scale (X12)"));
        assert!(text.contains("violations=0"));
        assert!(text.contains("taint_mismatches=0"));
        assert!(text.contains("taint_hits="));
        assert!(text.contains("monotone: yes") || text.contains("monotone=yes"));
        assert!(text.contains("disagreements=0"));
    }

    // keep PRECISIONS imported so this module tracks X11's axis; the
    // knife edge walks the same decimal ladder
    #[test]
    fn knife_edge_ladder_matches_the_x11_axis() {
        assert_eq!(PRECISIONS.len(), 5 + 1);
        assert_eq!(PRECISIONS[5], Precision::Lossless);
    }
}
