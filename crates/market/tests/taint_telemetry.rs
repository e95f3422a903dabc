//! Telemetry-differential check for the taint pass: the cached sweep
//! must advance the `market.taint.*` counters exactly as the uncached
//! taint oracle does for the same corpus, a warm re-sweep must move them
//! by the same amount again (classification happens per app per sweep,
//! cached or not), and only incremental digest changes advance the
//! shared re-analysis counter. Single `#[test]` on purpose: the counters
//! are process-global, so deltas are only meaningful when nothing else
//! in the binary runs concurrently.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_market::corpus::{generate, CorpusConfig};
use backwatch_market::summary::SummaryCache;
use backwatch_market::sweep::{sweep, sweep_incremental};
use backwatch_market::taint;

const TAINT_COUNTERS: [&str; 6] = [
    "market.taint.apps_classified_total",
    "market.taint.no_access_total",
    "market.taint.access_only_total",
    "market.taint.hits_total",
    "market.taint.exfil_sanitized_total",
    "market.taint.exfil_raw_total",
];

fn taint_counters() -> Vec<u64> {
    let snap = backwatch_obs::snapshot();
    TAINT_COUNTERS
        .iter()
        .map(|name| snap.counter(name).expect("market counters registered"))
        .collect()
}

fn counter(name: &str) -> u64 {
    backwatch_obs::snapshot().counter(name).expect("market counters registered")
}

#[test]
fn cached_sweep_advances_taint_counters_exactly_as_the_oracle() {
    let cfg = CorpusConfig::scaled(10).with_sdk_share(70).with_churn_ppm(50_000);
    let corpus = generate(&cfg);
    backwatch_market::obs::register();

    let before = taint_counters();
    for entry in &corpus {
        let _ = taint::analyze_entry(entry);
    }
    let mid = taint_counters();
    let cache = SummaryCache::new();
    let cold = sweep(&cfg, 2, &cache);
    let after = taint_counters();

    let oracle_delta: Vec<u64> = mid.iter().zip(&before).map(|(m, b)| m - b).collect();
    let cached_delta: Vec<u64> = after.iter().zip(&mid).map(|(a, m)| a - m).collect();
    assert_eq!(
        cached_delta, oracle_delta,
        "cached sweep must move {TAINT_COUNTERS:?} exactly as the oracle"
    );
    assert_eq!(
        oracle_delta.first().copied(),
        Some(cfg.total() as u64),
        "one taint classification per app"
    );
    // the class counters partition the classified apps, and hits is the
    // exfiltration tail of that partition
    assert_eq!(oracle_delta[0], oracle_delta[1] + oracle_delta[2] + oracle_delta[3]);
    assert_eq!(oracle_delta[3], oracle_delta[4] + oracle_delta[5]);
    assert!(
        oracle_delta[4] > 0 && oracle_delta[5] > 0,
        "corpus carries both exfiltration flavors"
    );

    // a warm sweep still classifies every app (from cache), so the taint
    // counters advance by the same delta again while the cache is fully
    // resident
    let warm = sweep(&cfg, 2, &cache);
    let warm_after = taint_counters();
    let warm_delta: Vec<u64> = warm_after.iter().zip(&after).map(|(w, a)| w - a).collect();
    assert_eq!(warm_delta, oracle_delta, "warm sweep classifies every app again");
    assert_eq!(warm.tally.misses, 0, "second sweep of the same corpus is fully resident");

    // only incremental digest changes advance the shared re-analysis
    // counter; carried-over records do not re-classify
    let reanalyzed_before = counter("market.reach.apps_reanalyzed_total");
    let classified_before = counter("market.taint.apps_classified_total");
    let (_, delta) = sweep_incremental(&cfg.at_snapshot(4), &cold, 2, &cache);
    assert_eq!(
        counter("market.reach.apps_reanalyzed_total") - reanalyzed_before,
        delta.digest_changed as u64
    );
    assert_eq!(
        counter("market.taint.apps_classified_total") - classified_before,
        delta.digest_changed as u64,
        "incremental sweep re-classifies only the digest-changed slice"
    );
    assert!(delta.digest_changed < cfg.total());
}
