//! Regenerates the million-app scale run (extension X9): cold parallel
//! sweep through the summary cache, incremental re-sweep of the next
//! market snapshot, and a strided slice cross-validated against the
//! uncached oracle and the dynamic pipeline.

use backwatch_experiments::{ext_reach_scale, obs, small_from_args};

fn main() {
    obs::register_all();
    let small = small_from_args();
    let cfg = if small {
        ext_reach_scale::ScaleConfig::small()
    } else {
        ext_reach_scale::ScaleConfig::full()
    };
    let result = ext_reach_scale::run(&cfg);
    print!("{}", ext_reach_scale::render(&cfg, &result));
    print!("\n{}", obs::snapshot_text());
    assert_eq!(result.slice_mismatches, 0, "cached sweep diverged from the uncached oracle");
    assert_eq!(
        result.dynamic_disagreements, 0,
        "static class diverged from the dynamic pipeline"
    );
    assert_eq!(result.funnel.parse_failures, 0, "lowered IR failed the text round-trip");
    assert!(
        result.cold.tally.hit_rate() >= 0.90,
        "hit rate {:.4} below the 90% the sharing model promises",
        result.cold.tally.hit_rate()
    );
    assert!(
        result.incremental.analyzed < result.total,
        "an incremental sweep must not re-analyze the whole market"
    );
    if !small {
        assert!(
            result.speedup >= 10.0,
            "incremental sweep only {:.1}x faster than cold at sub-percent churn",
            result.speedup
        );
    }
}
