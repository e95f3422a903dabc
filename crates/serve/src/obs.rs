//! Telemetry statics for the ingestion service.
//!
//! Counting follows the workspace's pass-level discipline: the service
//! keeps plain unflushed tallies on its hot path and folds them into
//! these shared metrics at snapshot/finish/drop boundaries — never one
//! atomic per fix.

use backwatch_obs::{Counter, Gauge, Histogram};
use std::sync::Once;

/// Fixes ingested across all shards (flushed at service boundaries).
pub static SHARD_FIXES: Counter = Counter::new();
/// Stays emitted by shard engines, mid-stream and at finish.
pub static SHARD_STAYS: Counter = Counter::new();
/// Whole-service snapshots taken.
pub static SHARD_SNAPSHOTS: Counter = Counter::new();
/// Services successfully restored from snapshot bytes.
pub static SHARD_RESTORES: Counter = Counter::new();
/// Snapshot byte streams rejected during restore (shard framing or any
/// per-user checkpoint decode error). Pairs with the finer-grained
/// `core.stream.decode_failures_total`, which the per-user decode bumps.
pub static SHARD_RESTORE_FAILURES: Counter = Counter::new();
/// Users with live engines across all shards (set at flush boundaries).
pub static SHARD_USERS: Gauge = Gauge::new();

/// Bucket bounds, in *stream-time* seconds, for the interval between
/// consecutive service snapshots: 1 s up to ~3 days.
static CHECKPOINT_INTERVAL_BOUNDS_S: [u64; 9] = [1, 8, 64, 512, 4_096, 16_384, 65_536, 131_072, 262_144];

/// Stream-time seconds elapsed between consecutive service snapshots —
/// the checkpoint cadence an operator tunes against crash-replay cost.
/// Recorded in stream time (latest ingested fix timestamp), not wall
/// time, so the distribution is deterministic for a deterministic load.
pub static SHARD_CHECKPOINT_INTERVAL: Histogram = Histogram::new(&CHECKPOINT_INTERVAL_BOUNDS_S);

static REGISTER: Once = Once::new();

/// Registers this crate's metrics with the global registry (idempotent).
pub fn register() {
    REGISTER.call_once(|| {
        backwatch_obs::register_counter("serve.shard.fixes_total", "fixes ingested across all shards", &SHARD_FIXES);
        backwatch_obs::register_counter("serve.shard.stays_total", "stays emitted by shard engines", &SHARD_STAYS);
        backwatch_obs::register_counter(
            "serve.shard.snapshots_total",
            "whole-service snapshots taken",
            &SHARD_SNAPSHOTS,
        );
        backwatch_obs::register_counter(
            "serve.shard.restores_total",
            "services restored from snapshot bytes",
            &SHARD_RESTORES,
        );
        backwatch_obs::register_counter(
            "serve.shard.restore_failures_total",
            "snapshot byte streams rejected during restore",
            &SHARD_RESTORE_FAILURES,
        );
        backwatch_obs::register_gauge(
            "serve.shard.users_current",
            "users with live engines across all shards",
            &SHARD_USERS,
        );
        backwatch_obs::register_histogram(
            "serve.shard.checkpoint_interval_seconds",
            "stream-time seconds between consecutive service snapshots",
            &SHARD_CHECKPOINT_INTERVAL,
        );
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_is_idempotent_and_names_are_live() {
        super::register();
        super::register();
        let snap = backwatch_obs::snapshot();
        for name in [
            "serve.shard.fixes_total",
            "serve.shard.stays_total",
            "serve.shard.snapshots_total",
            "serve.shard.restores_total",
            "serve.shard.restore_failures_total",
            "serve.shard.users_current",
            "serve.shard.checkpoint_interval_seconds",
        ] {
            assert!(snap.samples.iter().any(|s| s.name == name), "{name} not registered");
        }
    }
}
