//! Sharded multi-tenant ingestion service over streaming PoI extraction.
//!
//! The paper's adversary observes many users' location fixes online; at
//! deployment scale that is an ingestion service, not a per-trace loop.
//! This crate is that service, built entirely out of the engine the rest
//! of the workspace already verifies:
//!
//! - [`ShardRouter`] maps user ids to shards with a stable,
//!   dependency-free FNV-1a hash — the same user lands on the same shard
//!   across processes and across snapshot/restore cycles;
//! - [`Shard`] owns an ordered map of `user_id →`
//!   [`StreamingExtractor`](backwatch_core::poi::StreamingExtractor) and
//!   serializes all of them through the existing
//!   [`Checkpoint`](backwatch_core::poi::Checkpoint) wire format, so a
//!   shard snapshot is just framing around already-pinned bytes;
//! - [`IngestService`] composes router + shards, emits each completed
//!   [`Stay`](backwatch_core::poi::Stay) the moment its exit is
//!   confirmed, and snapshots/restores the whole pool —
//!   `tests/crash_resume.rs` kills a service at arbitrary fix
//!   boundaries and proves the resumed run's stays are *bit-identical*
//!   to an uninterrupted one (golden digest included);
//! - [`loadgen`] replays a deterministic synthetic population as one
//!   globally time-ordered fix stream, which is what the `ext_serve`
//!   experiment and the bwbench `serve` workload measure throughput
//!   against.
//!
//! Telemetry lands under `serve.shard.*`, counted at flush boundaries
//! (snapshot/finish/drop) — never one atomic per fix.

pub mod loadgen;
pub mod obs;
pub mod router;
pub mod service;
pub mod shard;

pub use router::ShardRouter;
pub use service::{stays_digest, IngestService, ServiceStats};
pub use shard::{RestoreError, Shard};
