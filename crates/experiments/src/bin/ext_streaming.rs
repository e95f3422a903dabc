//! Regenerates the streaming-vs-batch extraction comparison (extension
//! X6): online chunked extraction with checkpoint round-trips at every
//! window boundary, differentially verified against the batch path.

use backwatch_experiments::{ext_streaming, obs, small_from_args, ExperimentConfig};
use std::num::NonZeroUsize;

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        ExperimentConfig::small()
    } else {
        ExperimentConfig::paper()
    };
    let chunk = NonZeroUsize::new(4096).unwrap_or(NonZeroUsize::MIN);
    let result = ext_streaming::run(&cfg, chunk);
    print!("{}", ext_streaming::render(&result));
    print!("\n{}", obs::snapshot_text());
    let bad = result.rows.iter().any(|r| r.mismatched_users > 0 || r.roundtrip_failures > 0);
    assert!(!bad, "streaming output diverged from batch");
}
