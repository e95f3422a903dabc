//! Parallel and incremental corpus sweeps over the summary cache.
//!
//! [`sweep`] is the scale path for [`crate::reach::analyze`]: it walks a
//! corpus by *index* (no materialized `Vec<MarketApp>`), analyzes each
//! entry through the content-hash cache, and keeps one compact
//! [`AppRecord`] plus one app-level digest per app — a few dozen bytes
//! instead of a whole synthetic APK, which is what makes million-app
//! corpora fit in memory. Work distribution copies the experiments
//! pool's contention-free shape: workers claim contiguous index batches
//! from one atomic counter, buffer results privately, and a single
//! deterministic scatter restores corpus order after the join, so the
//! output is bit-identical whatever the thread count.
//!
//! [`sweep_incremental`] is the market-update path: given the previous
//! snapshot's [`SweepResult`], it re-analyzes only apps whose app-level
//! digest actually changed (the churn model updates a small fraction per
//! epoch) and carries every other record over verbatim, returning a
//! [`ReachDelta`] of what moved. Every analysis runs the one engine in
//! [`crate::reach`], so the differential suite pins what the sweeps add —
//! digest keying, eviction, the fragment fold, carry-over — bit-identical
//! to the uncached oracle.

use crate::corpus::{app_at, package_at, version_changed, CorpusConfig, ProviderCombo};
use crate::reach::{ReachClass, ReachFinding, ReachReport};
use crate::summary::{analyze_entry_cached, app_digest, CacheTally, CachedAnalysis, SummaryCache};
use crate::taint::TaintClass;
use backwatch_android::permission::LocationClaim;
use backwatch_android::provider::{ProviderKind, ALL_PROVIDERS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Compact per-app sweep output: everything the funnel, Table I, and the
/// delta report need, in a fixed-size record (providers are a bitmask
/// over [`ALL_PROVIDERS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppRecord {
    /// Assigned reachability class.
    pub class: ReachClass,
    /// The refining taint class.
    pub taint: TaintClass,
    /// Declared permission posture.
    pub claim: LocationClaim,
    /// Inferred provider set, as a bitmask over [`ALL_PROVIDERS`].
    pub providers: u8,
    /// Table I combination, when the provider set matches one.
    pub combo: Option<ProviderCombo>,
    /// Whether the own-code IR text round-trip failed.
    pub parse_failed: bool,
}

fn provider_mask(set: &BTreeSet<ProviderKind>) -> u8 {
    let mut mask = 0u8;
    for (bit, kind) in ALL_PROVIDERS.iter().enumerate() {
        if set.contains(kind) {
            mask |= 1 << bit;
        }
    }
    mask
}

impl AppRecord {
    fn from_analysis(analysis: &CachedAnalysis) -> Self {
        Self {
            class: analysis.finding.class,
            taint: analysis.taint,
            claim: analysis.finding.claim,
            providers: provider_mask(&analysis.finding.providers),
            combo: analysis.finding.combo,
            parse_failed: analysis.parse_failed,
        }
    }

    /// The provider set this record's bitmask encodes.
    #[must_use]
    pub fn providers_set(&self) -> BTreeSet<ProviderKind> {
        ALL_PROVIDERS
            .iter()
            .enumerate()
            .filter(|(bit, _)| self.providers & (1 << bit) != 0)
            .map(|(_, kind)| *kind)
            .collect()
    }
}

/// The paper's §III funnel as plain counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Apps swept.
    pub total: usize,
    /// Apps declaring a location permission.
    pub declaring: usize,
    /// Apps with a reachable sink.
    pub functional: usize,
    /// Apps classified background-capable or auto-start.
    pub background: usize,
    /// Apps classified auto-start.
    pub auto_start: usize,
    /// Own-code IR round-trip failures.
    pub parse_failures: usize,
    /// Taint: apps that read location but never reach a network sink.
    pub access_only: usize,
    /// Taint: apps whose every leaking path passed a sanitizer.
    pub exfil_sanitized: usize,
    /// Taint: apps leaking raw location.
    pub exfil_raw: usize,
}

/// Output of one sweep (cold or incremental) over one corpus snapshot.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The snapshot this sweep describes.
    pub cfg: CorpusConfig,
    /// Per-app records, in corpus order.
    pub records: Vec<AppRecord>,
    /// Per-app content digests, in corpus order — what the next
    /// incremental sweep compares against.
    pub digests: Vec<u64>,
    /// Summary-cache traffic this sweep generated.
    pub tally: CacheTally,
    /// Apps actually run through analysis this sweep.
    pub analyzed: usize,
    /// Apps carried over from the previous sweep unchanged.
    pub reused: usize,
    /// Wall-clock time of the sweep.
    pub wall: Duration,
}

impl SweepResult {
    /// The §III funnel over this sweep's records.
    #[must_use]
    pub fn funnel(&self) -> Funnel {
        let mut f = Funnel {
            total: self.records.len(),
            ..Funnel::default()
        };
        for r in &self.records {
            f.declaring += usize::from(r.claim.declares_location());
            f.functional += usize::from(r.class != ReachClass::NonAccessor);
            f.background += usize::from(r.class.accesses_in_background());
            f.auto_start += usize::from(r.class == ReachClass::AutoStart);
            f.parse_failures += usize::from(r.parse_failed);
            match r.taint {
                TaintClass::AccessOnly => f.access_only += 1,
                TaintClass::ExfiltratesSanitized(_) => f.exfil_sanitized += 1,
                TaintClass::ExfiltratesRaw => f.exfil_raw += 1,
                TaintClass::NoAccess => {}
            }
        }
        f
    }

    /// How many records carry each taint class, keyed by the exact class
    /// (sanitized degrees are separate keys).
    #[must_use]
    pub fn taint_histogram(&self) -> BTreeMap<TaintClass, usize> {
        let mut hist = BTreeMap::new();
        for r in &self.records {
            *hist.entry(r.taint).or_insert(0) += 1;
        }
        hist
    }

    /// Reconstructs the full [`ReachFinding`] for one corpus index (the
    /// package name is schedule-derived, so records do not store it).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for this sweep.
    #[must_use]
    pub fn finding_at(&self, index: usize) -> ReachFinding {
        assert!(index < self.records.len(), "index {index} out of sweep range");
        let record = &self.records[index];
        ReachFinding {
            package: package_at(index),
            class: record.class,
            claim: record.claim,
            providers: record.providers_set(),
            combo: record.combo,
        }
    }

    /// Expands this sweep into the oracle's [`ReachReport`] shape —
    /// bit-identical to [`crate::reach::analyze`] over the same snapshot
    /// (the differential suite pins this).
    #[must_use]
    pub fn report(&self) -> ReachReport {
        let findings: Vec<ReachFinding> = (0..self.records.len()).map(|i| self.finding_at(i)).collect();
        ReachReport::from_findings(findings, self.funnel().parse_failures)
    }
}

/// How many batches each worker should see on average (same tuning as
/// the experiments pool: amortize the claim `fetch_add`, still rebalance
/// under skewed per-app cost).
const BATCHES_PER_WORKER: usize = 8;

fn effective_workers(threads: usize, n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    threads.clamp(1, n.max(1)).min(cores.max(1))
}

/// Runs `f(i)` for every `i in 0..n` across scoped workers claiming
/// contiguous index batches from a shared atomic counter; results come
/// back in index order whatever the interleaving.
fn run_workers<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_workers(threads, n);
    let batch = (n / (threads * BATCHES_PER_WORKER)).max(1) as u64;
    let next = AtomicU64::new(0);
    let mut outs: Vec<Vec<(usize, T)>> = Vec::new();
    outs.resize_with(threads, Vec::new);

    std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        for out in &mut outs {
            scope.spawn(move || loop {
                let start = next.fetch_add(batch, Ordering::Relaxed);
                if start >= n as u64 {
                    break;
                }
                let end = (start + batch).min(n as u64);
                for i in start..end {
                    let i = i as usize;
                    out.push((i, f(i)));
                }
            });
        }
    });

    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    for (i, value) in outs.into_iter().flatten() {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(value);
        }
    }
    let ordered: Vec<T> = slots.into_iter().flatten().collect();
    assert_eq!(ordered.len(), n, "every corpus index must be claimed exactly once");
    ordered
}

/// Cold sweep: analyzes every app in the snapshot through the summary
/// cache, streaming by index (no materialized corpus). Records the wall
/// clock on `market.reach.sweep_seconds`; does *not* advance
/// `market.reach.apps_reanalyzed_total` — a cold sweep is not a
/// re-analysis.
#[must_use]
pub fn sweep(cfg: &CorpusConfig, threads: usize, cache: &SummaryCache) -> SweepResult {
    crate::obs::register();
    let start = Instant::now();
    let n = cfg.total();
    let out = run_workers(n, threads, |i| {
        let analysis = analyze_entry_cached(&app_at(cfg, i), cache);
        (AppRecord::from_analysis(&analysis), analysis.app_digest, analysis.tally)
    });
    let mut records = Vec::with_capacity(n);
    let mut digests = Vec::with_capacity(n);
    let mut tally = CacheTally::default();
    for (record, digest, t) in out {
        records.push(record);
        digests.push(digest);
        tally.absorb(t);
    }
    let wall = start.elapsed();
    crate::obs::REACH_SWEEP_SECONDS.record(wall.as_secs());
    SweepResult {
        cfg: *cfg,
        records,
        digests,
        tally,
        analyzed: n,
        reused: 0,
        wall,
    }
}

/// What changed between two swept snapshots.
#[derive(Debug, Clone)]
pub struct ReachDelta {
    /// Apps in the snapshot.
    pub total: usize,
    /// Apps whose churn version advanced between the snapshots (the
    /// cheap schedule-level pre-filter).
    pub version_changed: usize,
    /// Apps whose app-level content digest actually changed — exactly
    /// the apps the incremental sweep re-analyzed.
    pub digest_changed: usize,
    /// Apps whose reachability class moved: `(index, before, after)`.
    pub reclassified: Vec<(usize, ReachClass, ReachClass)>,
    /// Funnel of the previous snapshot.
    pub funnel_before: Funnel,
    /// Funnel of the new snapshot.
    pub funnel_after: Funnel,
}

enum Visit {
    Reused(AppRecord, u64),
    Reanalyzed(AppRecord, u64, CacheTally),
}

/// Incremental sweep: re-analyzes only apps whose content digest changed
/// between `prev.cfg` and `cfg`, carrying every other record over from
/// `prev`. The result is bit-identical to a cold [`sweep`] of `cfg` (the
/// differential suite pins it); only the work differs. Advances
/// `market.reach.apps_reanalyzed_total` by the re-analyzed count.
///
/// # Panics
///
/// Panics if `cfg` is not a later snapshot of the same market as
/// `prev.cfg` (same seed, size, SDK share, and churn rate).
#[must_use]
pub fn sweep_incremental(
    cfg: &CorpusConfig,
    prev: &SweepResult,
    threads: usize,
    cache: &SummaryCache,
) -> (SweepResult, ReachDelta) {
    crate::obs::register();
    assert_eq!(cfg.seed, prev.cfg.seed, "incremental sweeps compare snapshots of one market");
    assert_eq!(cfg.apps_per_category, prev.cfg.apps_per_category, "snapshot sizes must match");
    assert_eq!(
        cfg.sdk_share_percent, prev.cfg.sdk_share_percent,
        "SDK share is a market property"
    );
    assert_eq!(cfg.churn_ppm, prev.cfg.churn_ppm, "churn rate is a market property");
    assert!(cfg.snapshot >= prev.cfg.snapshot, "snapshots only move forward");
    let n = cfg.total();
    assert_eq!(prev.records.len(), n, "previous sweep must cover the same corpus");

    let start = Instant::now();
    let prev_records = &prev.records;
    let prev_digests = &prev.digests;

    // Version gate: one schedule hash per app, scanned sequentially —
    // routing a million no-op visits through the worker pool costs more
    // than the hashes themselves.
    let stale: Vec<usize> = (0..n).filter(|&i| version_changed(&prev.cfg, cfg, i)).collect();

    // Everything below the gate is carried over wholesale; only stale
    // slots can differ, so only those go through the pool.
    let mut records = prev.records.clone();
    let mut digests = prev.digests.clone();
    let visits = run_workers(stale.len(), threads, |k| {
        let i = stale[k];
        // the version moved; only a digest change warrants re-analysis
        let entry = app_at(cfg, i);
        let digest = app_digest(&entry);
        if digest == prev_digests[i] {
            return Visit::Reused(prev_records[i], digest);
        }
        let analysis = analyze_entry_cached(&entry, cache);
        Visit::Reanalyzed(AppRecord::from_analysis(&analysis), analysis.app_digest, analysis.tally)
    });

    let mut tally = CacheTally::default();
    let mut digest_changed = 0usize;
    let mut reclassified = Vec::new();
    for (&i, visit) in stale.iter().zip(visits) {
        let (record, digest) = match visit {
            Visit::Reused(record, digest) => (record, digest),
            Visit::Reanalyzed(record, digest, t) => {
                digest_changed += 1;
                tally.absorb(t);
                (record, digest)
            }
        };
        if record.class != prev_records[i].class {
            reclassified.push((i, prev_records[i].class, record.class));
        }
        records[i] = record;
        digests[i] = digest;
    }
    let version_moved = stale.len();
    crate::obs::REACH_APPS_REANALYZED.add(digest_changed as u64);
    let wall = start.elapsed();
    crate::obs::REACH_SWEEP_SECONDS.record(wall.as_secs());

    let result = SweepResult {
        cfg: *cfg,
        records,
        digests,
        tally,
        analyzed: digest_changed,
        reused: n - digest_changed,
        wall,
    };
    let delta = ReachDelta {
        total: n,
        version_changed: version_moved,
        digest_changed,
        reclassified,
        funnel_before: prev.funnel(),
        funnel_after: result.funnel(),
    };
    (result, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::generate;
    use crate::reach::analyze;

    fn assert_matches_oracle(result: &SweepResult, cfg: &CorpusConfig) {
        let corpus = generate(cfg);
        let oracle = analyze(&corpus);
        assert_eq!(result.records.len(), oracle.findings.len());
        for (i, expected) in oracle.findings.iter().enumerate() {
            assert_eq!(result.finding_at(i), *expected, "app {i}");
        }
        for (i, entry) in corpus.iter().enumerate() {
            let record = result.records[i];
            assert_eq!(record.taint, crate::taint::analyze_entry(entry).taint, "taint app {i}");
            assert!(record.taint.refines(record.class), "refinement app {i}");
        }
        let report = result.report();
        assert_eq!(report.total, oracle.total);
        assert_eq!(report.declaring, oracle.declaring);
        assert_eq!(report.functional, oracle.functional);
        assert_eq!(report.background, oracle.background);
        assert_eq!(report.auto_start, oracle.auto_start);
        assert_eq!(report.parse_failures, oracle.parse_failures);
        assert_eq!(report.table1, oracle.table1);
    }

    #[test]
    fn cold_sweep_matches_the_oracle() {
        let cfg = CorpusConfig::scaled(6).with_sdk_share(60);
        let result = sweep(&cfg, 1, &SummaryCache::new());
        assert_eq!(result.analyzed, cfg.total());
        assert_eq!(result.reused, 0);
        assert_matches_oracle(&result, &cfg);
    }

    #[test]
    fn thread_count_never_changes_the_records() {
        let cfg = CorpusConfig::scaled(5).with_sdk_share(40);
        let one = sweep(&cfg, 1, &SummaryCache::new());
        let many = sweep(&cfg, 4, &SummaryCache::new());
        assert_eq!(one.records, many.records);
        assert_eq!(one.digests, many.digests);
        // cache traffic totals are deterministic too: every class lookup
        // happens exactly once per app whatever the interleaving
        assert_eq!(one.tally.hits + one.tally.misses, many.tally.hits + many.tally.misses);
    }

    #[test]
    fn incremental_sweep_matches_a_cold_sweep_of_the_next_snapshot() {
        let base = CorpusConfig::scaled(6).with_sdk_share(50).with_churn_ppm(120_000);
        let next = base.at_snapshot(2);
        let cache = SummaryCache::new();
        let cold_base = sweep(&base, 2, &cache);
        let (inc, delta) = sweep_incremental(&next, &cold_base, 2, &cache);
        let cold_next = sweep(&next, 2, &SummaryCache::new());
        assert_eq!(inc.records, cold_next.records);
        assert_eq!(inc.digests, cold_next.digests);
        assert_eq!(delta.total, base.total());
        assert_eq!(delta.digest_changed, inc.analyzed);
        assert!(delta.digest_changed <= delta.version_changed);
        assert!(
            delta.version_changed > 0 && delta.version_changed < delta.total,
            "this churn rate must move some but not all apps ({} of {})",
            delta.version_changed,
            delta.total
        );
        // the funnel is schedule-determined, so churn cannot move it
        assert_eq!(delta.funnel_before, delta.funnel_after);
        for (i, before, after) in &delta.reclassified {
            assert_ne!(before, after, "app {i}");
        }
    }

    #[test]
    fn zero_churn_reanalyzes_nothing() {
        let base = CorpusConfig::scaled(4).with_sdk_share(30).with_churn_ppm(0);
        let next = base.at_snapshot(5);
        let cache = SummaryCache::new();
        let cold = sweep(&base, 1, &cache);
        let (inc, delta) = sweep_incremental(&next, &cold, 1, &cache);
        assert_eq!(delta.version_changed, 0);
        assert_eq!(delta.digest_changed, 0);
        assert_eq!(inc.analyzed, 0);
        assert_eq!(inc.reused, base.total());
        assert_eq!(inc.records, cold.records);
        assert!(delta.reclassified.is_empty());
    }

    #[test]
    fn provider_mask_round_trips() {
        for bits in 0u8..16 {
            let set: BTreeSet<ProviderKind> = ALL_PROVIDERS
                .iter()
                .enumerate()
                .filter(|(bit, _)| bits & (1 << bit) != 0)
                .map(|(_, k)| *k)
                .collect();
            assert_eq!(provider_mask(&set), bits);
        }
    }

    #[test]
    fn funnel_counts_follow_the_records() {
        let cfg = CorpusConfig::scaled(7);
        let result = sweep(&cfg, 1, &SummaryCache::new());
        let f = result.funnel();
        assert_eq!(f.total, cfg.total());
        assert!(f.declaring >= f.functional);
        assert!(f.functional >= f.background);
        assert!(f.background >= f.auto_start);
        assert!(f.auto_start > 0, "scaled(7) schedules auto-start apps");
        assert_eq!(f.parse_failures, 0);
        // the taint mix is scheduled over functional apps: every class
        // shows up, and the split exhausts the functional count
        assert!(f.access_only > 0 && f.exfil_sanitized > 0 && f.exfil_raw > 0);
        assert_eq!(f.access_only + f.exfil_sanitized + f.exfil_raw, f.functional);
        let hist = result.taint_histogram();
        assert_eq!(hist.values().sum::<usize>(), f.total);
    }
}
