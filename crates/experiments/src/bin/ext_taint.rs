//! Regenerates the taint-at-scale run (extension X12): taint-carrying
//! cold/warm/incremental sweeps, the all-apps taint ⊆ reachability
//! subset check, a strided slice against the uncached taint oracle, and
//! the knife-edge agreement between static sanitizer degrees and the
//! dynamic containment adversary.

use backwatch_experiments::{ext_taint, obs, small_from_args};

fn main() {
    obs::register_all();
    let small = small_from_args();
    let cfg = if small {
        ext_taint::TaintScaleConfig::small()
    } else {
        ext_taint::TaintScaleConfig::full()
    };
    let result = ext_taint::run(&cfg);
    print!("{}", ext_taint::render(&cfg, &result));
    print!("\n{}", obs::snapshot_text());
    assert_eq!(result.subset_violations, 0, "taint class contradicted reachability");
    assert_eq!(result.slice_mismatches, 0, "cached taint diverged from the uncached oracle");
    assert_eq!(
        result.degree_disagreements, 0,
        "static sanitizer degree disagreed with the dynamic adversary"
    );
    assert!(
        result.knife_edge.is_monotone(),
        "identification must be monotone in precision"
    );
    assert_eq!(result.funnel.parse_failures, 0, "lowered IR failed the text round-trip");
    let f = &result.funnel;
    assert_eq!(
        f.access_only + f.exfil_sanitized + f.exfil_raw,
        f.functional,
        "taint split must partition the functional apps"
    );
    assert!(
        f.exfil_sanitized > 0 && f.exfil_raw > 0,
        "corpus must carry both exfiltration flavors"
    );
    assert!(
        result.cold.tally.hit_rate() >= 0.90,
        "hit rate {:.4} below the 90% the sharing model promises",
        result.cold.tally.hit_rate()
    );
    assert!(
        result.incremental.analyzed < result.total,
        "an incremental sweep must not re-analyze the whole market"
    );
    if small {
        // the CI corpus fits the cache whole; the million-app market
        // evicts, so warm misses are a benchmark number there, not an
        // invariant
        assert_eq!(result.warm.tally.misses, 0, "warm re-sweep must be fully cache-resident");
    } else {
        assert!(
            result.speedup >= 10.0,
            "incremental sweep only {:.1}x faster than cold at sub-percent churn",
            result.speedup
        );
    }
}
