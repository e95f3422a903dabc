//! Cache-correctness differential suite: the cached, parallel, and
//! incremental sweep paths must be *bit-identical* to the uncached
//! sequential oracle (`reach::analyze`) — same per-app finding, same
//! §III funnel (2,800 → 1,137 → 528 → 102 → 85 at paper scale), same
//! Table I — under every knob setting, including an adversarial
//! sink-bearing fragment. Both sides run the one reachability engine, so
//! what this suite checks is exactly what caching adds: digest keying,
//! eviction, the fragment fold (the oracle composes fragment classes
//! inline instead), and incremental carry-over. The paper funnel here
//! pins the engine's semantics independently. The cache is allowed to
//! change how much work happens, never what comes out.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_market::corpus::{generate, CorpusConfig};
use backwatch_market::reach::{self, ReachClass};
use backwatch_market::sdk;
use backwatch_market::summary::{analyze_entry_cached, SummaryCache};
use backwatch_market::sweep::{sweep, sweep_incremental};

#[test]
fn cached_sweep_matches_the_oracle_at_paper_scale() {
    let cfg = CorpusConfig::paper_scale().with_sdk_share(90);
    let oracle = reach::analyze(&generate(&cfg));
    // the paper's funnel first, so a corpus regression cannot masquerade
    // as a cache bug
    assert_eq!(oracle.total, 2800);
    assert_eq!(oracle.declaring, 1137);
    assert_eq!(oracle.functional, 528);
    assert_eq!(oracle.background, 102);
    assert_eq!(oracle.auto_start, 85);
    assert_eq!(oracle.parse_failures, 0);

    let cold = sweep(&cfg, 1, &SummaryCache::new());
    for (i, expected) in oracle.findings.iter().enumerate() {
        assert_eq!(cold.finding_at(i), *expected, "app {i}");
    }
    let report = cold.report();
    assert_eq!(report.total, oracle.total);
    assert_eq!(report.declaring, oracle.declaring);
    assert_eq!(report.functional, oracle.functional);
    assert_eq!(report.background, oracle.background);
    assert_eq!(report.auto_start, oracle.auto_start);
    assert_eq!(report.parse_failures, oracle.parse_failures);
    assert_eq!(report.table1, oracle.table1);

    // at 90% sharing the cache must carry the sweep: the shared fragment
    // plus repeated own-code shapes dominate the lookups
    assert!(
        cold.tally.hit_rate() >= 0.90,
        "paper-plausible sharing must reach a 90% hit rate, got {:.3}",
        cold.tally.hit_rate()
    );
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let cfg = CorpusConfig::paper_scale().with_sdk_share(60);
    let sequential = sweep(&cfg, 1, &SummaryCache::new());
    let parallel = sweep(&cfg, 4, &SummaryCache::new());
    assert_eq!(sequential.records, parallel.records);
    assert_eq!(sequential.digests, parallel.digests);
    assert_eq!(
        sequential.tally.hits + sequential.tally.misses,
        parallel.tally.hits + parallel.tally.misses,
        "every class lookup happens exactly once per app, whatever the interleaving"
    );
}

#[test]
fn incremental_equals_cold_across_churn_rates() {
    for churn_ppm in [0u32, 10_000, 1_000_000] {
        let base = CorpusConfig::scaled(25).with_sdk_share(60).with_churn_ppm(churn_ppm);
        let next = base.at_snapshot(3);
        let cache = SummaryCache::new();
        let cold_base = sweep(&base, 2, &cache);
        let (incremental, delta) = sweep_incremental(&next, &cold_base, 2, &cache);
        let cold_next = sweep(&next, 2, &SummaryCache::new());
        assert_eq!(incremental.records, cold_next.records, "churn {churn_ppm} ppm");
        assert_eq!(incremental.digests, cold_next.digests, "churn {churn_ppm} ppm");
        assert!(delta.digest_changed <= delta.version_changed);
        assert_eq!(incremental.analyzed, delta.digest_changed);
        assert_eq!(incremental.reused, delta.total - delta.digest_changed);
        match churn_ppm {
            0 => assert_eq!(delta.version_changed, 0),
            1_000_000 => assert_eq!(delta.version_changed, delta.total, "certain churn updates every app"),
            _ => assert!(
                delta.version_changed > 0 && delta.version_changed < delta.total,
                "moderate churn moves some but not all of {} apps (moved {})",
                delta.total,
                delta.version_changed
            ),
        }
        // roles are schedule-determined, so churn never moves the funnel
        assert_eq!(delta.funnel_before, delta.funnel_after, "churn {churn_ppm} ppm");
    }
}

#[test]
fn adversarial_sink_bearing_fragment_stays_differential() {
    // swap every linked fragment for the variant whose boot path reaches
    // a location sink: classifications *should* move, and the cached
    // path must move in lockstep with the oracle
    let cfg = CorpusConfig::scaled(5).with_sdk_share(100);
    let mut corpus = generate(&cfg);
    for entry in &mut corpus {
        entry.sdk = Some(sdk::shared_with_sink());
    }
    let cache = SummaryCache::new();
    let mut promoted = 0usize;
    for entry in &corpus {
        let oracle = reach::analyze_entry(entry);
        let cached = analyze_entry_cached(entry, &cache);
        assert_eq!(cached.finding, oracle, "{}", oracle.package);
        promoted += usize::from(oracle.claim.declares_location() && oracle.class != ReachClass::NonAccessor);
    }
    let declaring = corpus.iter().filter(|e| e.truth.claim.declares_location()).count();
    assert_eq!(
        promoted, declaring,
        "a reachable sink in the fragment makes every declaring app functional"
    );
}

#[test]
fn tiny_cache_under_eviction_pressure_stays_differential() {
    let cfg = CorpusConfig::scaled(8).with_sdk_share(45);
    let oracle = reach::analyze(&generate(&cfg));
    let tiny = SummaryCache::with_shard_capacity(2);
    let cold = sweep(&cfg, 3, &tiny);
    for (i, expected) in oracle.findings.iter().enumerate() {
        assert_eq!(cold.finding_at(i), *expected, "app {i}");
    }
}
