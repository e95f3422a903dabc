//! Extension experiment X8: sharded multi-tenant ingestion throughput.
//!
//! The previous extensions measure one user's stream at a time; a
//! deployed collector sees *every* user's fixes interleaved on one
//! front-end. This experiment replays the deterministic interleaved load
//! through [`IngestService`] — periodic whole-service snapshots included,
//! the way an operator would actually run it — and measures sustained
//! ingest throughput (fixes/s) and the per-fix ingest latency
//! distribution (p50/p99/max), while differentially verifying the
//! service's stays against per-user oracle engines fed the same fixes.
//! EXPERIMENTS.md (X8) records the paper-scale numbers.

use crate::ExperimentConfig;
use backwatch_core::poi::{Stay, StreamingExtractor};
use backwatch_geo::Seconds;
use backwatch_serve::{loadgen, stays_digest, IngestService};
use backwatch_trace::TracePoint;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Service-level measurement at one access interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRow {
    /// Access interval, seconds.
    pub interval_s: i64,
    /// Fixes ingested.
    pub fixes: u64,
    /// Stays the service emitted (mid-stream plus finish).
    pub stays: usize,
    /// Total wall time spent inside `ingest`, plus snapshots, microseconds.
    pub elapsed_us: u64,
    /// Sustained ingest throughput, fixes per second.
    pub throughput_fps: f64,
    /// Median per-fix ingest latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-fix ingest latency, nanoseconds.
    pub p99_ns: u64,
    /// Worst per-fix ingest latency, nanoseconds.
    pub max_ns: u64,
    /// Whole-service snapshots taken during the run.
    pub snapshots: u64,
    /// Largest serialized service snapshot, bytes.
    pub snapshot_bytes: usize,
    /// Whether the service's stays matched the per-user oracle engines.
    pub digest_match: bool,
}

/// The experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// One row per access interval.
    pub rows: Vec<ServeRow>,
    /// Shards the service ran with.
    pub n_shards: usize,
    /// Snapshot cadence, fixes between whole-service snapshots.
    pub snapshot_every: usize,
    /// Users in the replayed population.
    pub users: u32,
}

/// Runs the service over every configured interval.
#[must_use]
pub fn run(cfg: &ExperimentConfig, n_shards: usize, snapshot_every: usize) -> ServeResult {
    let rows = cfg
        .intervals
        .iter()
        .map(|&interval_s| run_one(cfg, interval_s, n_shards, snapshot_every))
        .collect();
    ServeResult {
        rows,
        n_shards,
        snapshot_every,
        users: cfg.synth.n_users,
    }
}

/// Replays one interval's load through the service, timing every ingest.
fn run_one(cfg: &ExperimentConfig, interval_s: i64, n_shards: usize, snapshot_every: usize) -> ServeRow {
    let fixes: Vec<(u64, TracePoint)> = loadgen::interleaved_fixes(&cfg.synth, Seconds::new(interval_s)).collect();
    let mut svc = IngestService::new(n_shards, cfg.params);
    let mut stays: Vec<(u64, Stay)> = Vec::new();
    let mut lat_ns: Vec<u64> = Vec::with_capacity(fixes.len());
    let mut snapshots = 0u64;
    let mut snapshot_bytes = 0usize;
    let run_start = Instant::now();
    for (i, &(uid, fix)) in fixes.iter().enumerate() {
        let t0 = Instant::now();
        let stay = svc.ingest(uid, fix);
        lat_ns.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        stays.extend(stay.map(|s| (uid, s)));
        if snapshot_every > 0 && i > 0 && i % snapshot_every == 0 {
            let bytes = svc.snapshot_bytes();
            snapshot_bytes = snapshot_bytes.max(bytes.len());
            snapshots += 1;
        }
    }
    stays.extend(svc.finish());
    let elapsed_us = u64::try_from(run_start.elapsed().as_micros()).unwrap_or(u64::MAX);

    lat_ns.sort_unstable();
    let pick = |q_num: usize, q_den: usize| -> u64 {
        if lat_ns.is_empty() {
            return 0;
        }
        let idx = ((lat_ns.len() - 1) * q_num) / q_den;
        lat_ns.get(idx).copied().unwrap_or(0)
    };
    let throughput_fps = if elapsed_us == 0 {
        0.0
    } else {
        fixes.len() as f64 / (elapsed_us as f64 / 1e6)
    };

    ServeRow {
        interval_s,
        fixes: fixes.len() as u64,
        stays: stays.len(),
        elapsed_us,
        throughput_fps,
        p50_ns: pick(50, 100),
        p99_ns: pick(99, 100),
        max_ns: lat_ns.last().copied().unwrap_or(0),
        snapshots,
        snapshot_bytes,
        digest_match: stays_digest(&canonical(stays)) == oracle_digest(cfg, &fixes),
    }
}

/// Sorts stays into per-user chronological order so service emission
/// order (global time) and oracle emission order (per user) compare.
fn canonical(mut stays: Vec<(u64, Stay)>) -> Vec<(u64, Stay)> {
    stays.sort_by_key(|(uid, s)| (*uid, s.enter.as_secs(), s.end_index));
    stays
}

/// The oracle: one plain [`StreamingExtractor`] per user, fed the same
/// interleaved fixes, no sharding, no snapshots.
fn oracle_digest(cfg: &ExperimentConfig, fixes: &[(u64, TracePoint)]) -> u64 {
    let mut engines: BTreeMap<u64, StreamingExtractor> = BTreeMap::new();
    let mut stays: Vec<(u64, Stay)> = Vec::new();
    for &(uid, fix) in fixes {
        let engine = engines.entry(uid).or_insert_with(|| StreamingExtractor::new(cfg.params));
        stays.extend(engine.push(fix).map(|s| (uid, s)));
    }
    for (&uid, engine) in &mut engines {
        stays.extend(engine.finish().map(|s| (uid, s)));
    }
    stays_digest(&canonical(stays))
}

/// Renders the measurement table plus the differential verdict line the
/// CI smoke greps for.
#[must_use]
pub fn render(result: &ServeResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "EXTENSION: sharded multi-tenant ingestion service (X8)");
    let _ = writeln!(
        out,
        "{} users interleaved, {} shards, whole-service snapshot every {} fixes",
        result.users, result.n_shards, result.snapshot_every
    );
    let _ = writeln!(
        out,
        "{:>10}  {:>9}  {:>6}  {:>10}  {:>9}  {:>9}  {:>9}  {:>5}  {:>8}",
        "interval_s", "fixes", "stays", "fixes_per_s", "p50_ns", "p99_ns", "max_ns", "snaps", "snap_B"
    );
    let mut mismatches = 0usize;
    for r in &result.rows {
        let _ = writeln!(
            out,
            "{:>10}  {:>9}  {:>6}  {:>10.0}  {:>9}  {:>9}  {:>9}  {:>5}  {:>8}",
            r.interval_s, r.fixes, r.stays, r.throughput_fps, r.p50_ns, r.p99_ns, r.max_ns, r.snapshots, r.snapshot_bytes
        );
        mismatches += usize::from(!r.digest_match);
    }
    let _ = writeln!(out, "differential: digest_mismatches={mismatches}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_matches_per_user_oracles_at_small_scale() {
        let cfg = ExperimentConfig::small();
        let result = run(&cfg, 3, 1000);
        assert_eq!(result.rows.len(), cfg.intervals.len());
        for row in &result.rows {
            assert!(
                row.digest_match,
                "interval {}: service stays diverged from oracle",
                row.interval_s
            );
            assert!(row.fixes > 0);
            assert!(row.throughput_fps > 0.0);
            assert!(row.p50_ns <= row.p99_ns && row.p99_ns <= row.max_ns);
        }
    }

    #[test]
    fn snapshots_fire_at_the_configured_cadence() {
        let cfg = ExperimentConfig::small();
        let result = run(&cfg, 2, 500);
        for row in &result.rows {
            assert_eq!(
                row.snapshots,
                (row.fixes.saturating_sub(1)) / 500,
                "interval {}",
                row.interval_s
            );
            if row.snapshots > 0 {
                assert!(row.snapshot_bytes > 16, "snapshots must carry engine state");
            }
        }
    }

    #[test]
    fn render_reports_the_differential_verdict() {
        let cfg = ExperimentConfig::small();
        let result = run(&cfg, 2, 0);
        let text = render(&result);
        assert!(text.contains("EXTENSION: sharded multi-tenant ingestion service (X8)"));
        assert!(text.contains("differential: digest_mismatches=0"));
    }
}
