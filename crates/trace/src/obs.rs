//! Telemetry statics for the trace crate.
//!
//! Sampling and synthesis are pass-level operations, so the counters here
//! are bumped once per call (plus one `add` for the batch size), never per
//! fix — negligible against the work each call already does.

use backwatch_obs::Counter;
use std::sync::Once;

/// Downsampling passes run ([`crate::sampling::downsample`] and friends).
pub static DOWNSAMPLE_CALLS: Counter = Counter::new();
/// Fixes kept across all downsampling passes.
pub static DOWNSAMPLE_KEPT: Counter = Counter::new();
/// Chunk windows yielded by [`crate::chunks::ChunkCursor`].
pub static CHUNK_WINDOWS: Counter = Counter::new();
/// Fixes delivered inside chunk windows.
pub static CHUNK_POINTS: Counter = Counter::new();
/// Source streams handed to [`crate::interleave::Interleaver`] merges.
pub static INTERLEAVE_STREAMS: Counter = Counter::new();
/// Fixes entering interleaved merges (counted once at construction).
pub static INTERLEAVE_FIXES: Counter = Counter::new();
/// Synthetic users generated.
pub static SYNTH_USERS: Counter = Counter::new();
/// Fixes recorded across all synthetic users.
pub static SYNTH_POINTS: Counter = Counter::new();

static REGISTER: Once = Once::new();

/// Registers this crate's metrics with the global registry (idempotent).
pub fn register() {
    REGISTER.call_once(|| {
        backwatch_obs::register_counter(
            "trace.sampling.downsample_calls_total",
            "downsampling passes over a trace",
            &DOWNSAMPLE_CALLS,
        );
        backwatch_obs::register_counter(
            "trace.sampling.downsample_kept_total",
            "fixes kept by downsampling passes",
            &DOWNSAMPLE_KEPT,
        );
        backwatch_obs::register_counter(
            "trace.chunk.windows_total",
            "chunk windows yielded to streaming drivers",
            &CHUNK_WINDOWS,
        );
        backwatch_obs::register_counter(
            "trace.chunk.points_total",
            "fixes delivered inside chunk windows",
            &CHUNK_POINTS,
        );
        backwatch_obs::register_counter(
            "trace.interleave.streams_total",
            "source streams handed to interleaved merges",
            &INTERLEAVE_STREAMS,
        );
        backwatch_obs::register_counter(
            "trace.interleave.fixes_total",
            "fixes yielded by interleaved merges",
            &INTERLEAVE_FIXES,
        );
        backwatch_obs::register_counter("trace.synth.users_total", "synthetic users generated", &SYNTH_USERS);
        backwatch_obs::register_counter(
            "trace.synth.points_total",
            "fixes recorded for synthetic users",
            &SYNTH_POINTS,
        );
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_is_idempotent() {
        super::register();
        super::register();
        let snap = backwatch_obs::snapshot();
        assert!(snap.counter("trace.synth.users_total").is_some());
    }
}
