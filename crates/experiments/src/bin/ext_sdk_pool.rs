//! Regenerates the SDK stream-pooling sweep (extension X10): how much
//! faster pattern-2 re-identification fires when an ad-network adversary
//! pools k apps' streams, as SDK share grows.

use backwatch_experiments::{ext_sdk_pool, obs, small_from_args, ExperimentConfig};
use backwatch_market::corpus::CorpusConfig;

fn main() {
    obs::register_all();
    let (market, cfg) = if small_from_args() {
        (CorpusConfig::scaled(10), ExperimentConfig::small())
    } else {
        (CorpusConfig::paper_scale(), ExperimentConfig::paper())
    };
    let result = ext_sdk_pool::run(&cfg, &market);
    print!("{}", ext_sdk_pool::render(&result));
    print!("\n{}", obs::snapshot_text());

    // The channel only exists where the SDK schedule creates it.
    for c in result.cells.iter().filter(|c| c.share == 0) {
        assert_eq!(c.users_with_channel, 0, "share=0 must pool nothing");
    }
    // Rosters nest across k and membership nests across shares, so the
    // pooled channel's coverage and hit count are monotone in k.
    for si in 0..ext_sdk_pool::SHARES.len() {
        for ki in 1..ext_sdk_pool::KS.len() {
            let prev = result.cells[si * ext_sdk_pool::KS.len() + ki - 1];
            let cur = result.cells[si * ext_sdk_pool::KS.len() + ki];
            assert!(
                cur.detected >= prev.detected,
                "detections fell from k={} to k={}",
                prev.k,
                cur.k
            );
        }
    }
    // The acceptance headline: over users whose channel fired at both
    // k=1 and k=max under the highest share, pooling fires no later
    // (modulo stay-boundary jitter: extra pooled fixes can pad the firing
    // stay's leave timestamp by seconds) and measurably cheaper — either
    // earlier in wall-clock or with fewer fixes per member app.
    if let Some(speedup) = result.paired_time_speedup {
        assert!(
            speedup > 0.999,
            "pooled adversary fired later than the single app (speedup {speedup:.4}x)"
        );
        let per_app = result.paired_per_app_fix_ratio.unwrap_or(0.0);
        assert!(
            speedup > 1.0 || per_app > 1.0,
            "pooling k apps showed no measurable gain (time {speedup:.2}x, per-app fixes {per_app:.2}x)"
        );
    }
    // Where the k=1 app is a sparse poller the pooled channel must not
    // fire later on average — that regime is pooling's raison d'etre.
    if let Some(sparse) = result.sparse_time_speedup {
        assert!(
            sparse >= 1.0,
            "pooling slowed down sparse-poller users (speedup {sparse:.2}x)"
        );
    }
}
