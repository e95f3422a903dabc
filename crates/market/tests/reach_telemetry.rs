//! Telemetry-differential check: the cached sweep must advance the
//! `market.reach.*` counters exactly as the uncached oracle does for the
//! same corpus, and the cache/incremental counters must reconcile with
//! the sweep's own tallies. This file holds a single `#[test]` on
//! purpose: the counters are process-global, so the deltas are only
//! meaningful when nothing else in the binary runs concurrently.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_market::corpus::{generate, CorpusConfig};
use backwatch_market::reach;
use backwatch_market::summary::SummaryCache;
use backwatch_market::sweep::{sweep, sweep_incremental};

const REACH_COUNTERS: [&str; 5] = [
    "market.reach.apps_classified_total",
    "market.reach.background_apps_total",
    "market.reach.missing_components_total",
    "market.reach.parse_failures_total",
    "market.reach.unknown_combo_total",
];

fn reach_counters() -> Vec<u64> {
    let snap = backwatch_obs::snapshot();
    REACH_COUNTERS
        .iter()
        .map(|name| snap.counter(name).expect("market counters registered"))
        .collect()
}

fn counter(name: &str) -> u64 {
    backwatch_obs::snapshot().counter(name).expect("market counters registered")
}

#[test]
fn cached_and_incremental_sweeps_advance_the_same_counters_as_the_oracle() {
    let cfg = CorpusConfig::scaled(10).with_sdk_share(70).with_churn_ppm(50_000);
    let corpus = generate(&cfg);
    backwatch_market::obs::register();

    let before = reach_counters();
    let _oracle = reach::analyze(&corpus);
    let mid = reach_counters();
    let cache = SummaryCache::new();
    let cold = sweep(&cfg, 2, &cache);
    let after = reach_counters();

    let oracle_delta: Vec<u64> = mid.iter().zip(&before).map(|(m, b)| m - b).collect();
    let cached_delta: Vec<u64> = after.iter().zip(&mid).map(|(a, m)| a - m).collect();
    assert_eq!(
        cached_delta, oracle_delta,
        "cached sweep must move {REACH_COUNTERS:?} exactly as the oracle"
    );
    assert_eq!(
        oracle_delta.first().copied(),
        Some(cfg.total() as u64),
        "one classification per app"
    );

    // cache counters reconcile with the sweep's own tally, and the
    // oracle path never touches them
    let hits_after = counter("market.reach.cache_hits_total");
    let misses_after = counter("market.reach.cache_misses_total");
    let warm = sweep(&cfg, 2, &cache);
    assert_eq!(counter("market.reach.cache_hits_total") - hits_after, warm.tally.hits);
    assert_eq!(counter("market.reach.cache_misses_total") - misses_after, warm.tally.misses);
    assert_eq!(warm.tally.misses, 0, "second sweep of the same corpus is fully resident");

    // cold sweeps are not re-analyses; only incremental digest changes
    // advance the re-analysis counter, by exactly the delta's count
    let reanalyzed_before = counter("market.reach.apps_reanalyzed_total");
    let (_, delta) = sweep_incremental(&cfg.at_snapshot(4), &cold, 2, &cache);
    assert_eq!(
        counter("market.reach.apps_reanalyzed_total") - reanalyzed_before,
        delta.digest_changed as u64
    );
    assert!(
        delta.digest_changed < cfg.total(),
        "churn leaves most of the market untouched between snapshots"
    );
}
