//! One shard: a set of per-user streaming extractors plus whole-shard
//! snapshot/restore.
//!
//! A shard owns every user the [`crate::router::ShardRouter`] assigns to
//! it, keyed in a `BTreeMap` — *ordered* on purpose: snapshot bytes and
//! finish-time stay emission walk users in ascending id order, so both
//! are deterministic functions of the ingested stream. (A `HashMap`'s
//! iteration order varies per process, which would break the
//! bit-identical crash-resume guarantee the integration tests pin.)
//!
//! The shard is generic over the engine's point representation exactly
//! like [`StreamingExtractor`] itself: the lat/lon service uses the default
//! [`TracePoint`], and projected deployments can instantiate
//! `Shard<ProjectedPoint>` to get the certified planar filter.

use crate::obs as serve_obs;
use backwatch_core::poi::{Checkpoint, CheckpointError, ExtractorParams, Stay, StreamPoint, StreamingExtractor};
use backwatch_trace::TracePoint;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Magic-plus-version word opening every serialized shard snapshot
/// (`b"BWSHD"` folded into the high bytes, format version 1 in the low).
pub(crate) const SHARD_MAGIC: u64 = 0x4257_5348_4400_0001;

/// Why a shard snapshot failed to restore. Framing errors describe the
/// shard envelope; [`RestoreError::User`] wraps the underlying
/// [`CheckpointError`] of one user's embedded engine checkpoint (which
/// also lands on `core.stream.decode_failures_total` — the serve-level
/// `serve.shard.restore_failures_total` counts rejected envelopes).
#[derive(Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The byte stream ended before the structure it declared.
    Truncated,
    /// The first word is not the shard snapshot magic/version.
    BadMagic,
    /// A declared length does not fit the enclosing byte stream.
    BadFraming(&'static str),
    /// One user's embedded checkpoint failed to decode or resume.
    User {
        /// The user whose checkpoint was rejected.
        user_id: u64,
        /// The underlying engine decode error.
        source: CheckpointError,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "shard snapshot truncated"),
            Self::BadMagic => write!(f, "shard snapshot magic/version mismatch"),
            Self::BadFraming(what) => write!(f, "shard snapshot framing error: {what}"),
            Self::User { user_id, source } => write!(f, "user {user_id} checkpoint rejected: {source}"),
        }
    }
}

impl Error for RestoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::User { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A shard of the ingestion service: per-user streaming engines plus the
/// serve-side tallies that feed `serve.shard.*` telemetry.
pub struct Shard<P: StreamPoint = TracePoint> {
    params: ExtractorParams,
    users: BTreeMap<u64, StreamingExtractor<P>>,
    fixes_unflushed: u64,
    stays_unflushed: u64,
}

impl<P: StreamPoint> fmt::Debug for Shard<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard")
            .field("users", &self.users.len())
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

impl<P: StreamPoint> Shard<P> {
    /// An empty shard; every engine it lazily creates uses `params`.
    #[must_use]
    pub fn new(params: ExtractorParams) -> Self {
        Self {
            params,
            users: BTreeMap::new(),
            fixes_unflushed: 0,
            stays_unflushed: 0,
        }
    }

    /// The extraction parameters new engines are created with.
    #[must_use]
    pub fn params(&self) -> &ExtractorParams {
        &self.params
    }

    /// Users with a live engine on this shard.
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// Whether `user_id` has a live engine on this shard.
    #[must_use]
    pub fn contains_user(&self, user_id: u64) -> bool {
        self.users.contains_key(&user_id)
    }

    /// Ids of users with a live engine, in ascending order.
    pub fn user_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.users.keys().copied()
    }

    /// Feeds one fix to `user_id`'s engine (creating it on first contact)
    /// and returns the stay the fix completed, if any.
    pub fn ingest(&mut self, user_id: u64, point: P, ctx: &P::Ctx) -> Option<Stay> {
        let engine = self
            .users
            .entry(user_id)
            .or_insert_with(|| StreamingExtractor::new(self.params));
        self.fixes_unflushed += 1;
        let stay = engine.push_with(point, ctx);
        self.stays_unflushed += u64::from(stay.is_some());
        stay
    }

    /// Ends every stream on this shard, emitting each user's final
    /// in-progress stay (if any) in ascending user-id order, and drops
    /// the engines. The shard stays usable — a later fix simply starts a
    /// fresh stream for its user.
    pub fn finish(&mut self) -> Vec<(u64, Stay)> {
        let mut out = Vec::new();
        for (&user_id, engine) in &mut self.users {
            if let Some(stay) = engine.finish() {
                out.push((user_id, stay));
            }
        }
        self.stays_unflushed += out.len() as u64;
        self.users.clear();
        out
    }

    /// Serializes every user's engine into one deterministic byte stream:
    /// the shard magic word, the user count, then per user (in ascending
    /// id order) the id, the checkpoint byte length, and the engine's
    /// [`Checkpoint`] wire bytes verbatim.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SHARD_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&(self.users.len() as u64).to_le_bytes());
        for (&user_id, engine) in &self.users {
            let cp = engine.checkpoint().to_bytes();
            bytes.extend_from_slice(&user_id.to_le_bytes());
            bytes.extend_from_slice(&(cp.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&cp);
        }
        bytes
    }

    /// Rebuilds a shard from [`snapshot`](Self::snapshot) bytes so that
    /// replaying the fixes after the snapshot point continues every
    /// user's stream bit-identically.
    ///
    /// `params` seeds engines for users who first appear *after* the
    /// restore; restored engines carry their own parameters inside their
    /// checkpoints.
    ///
    /// # Errors
    ///
    /// A [`RestoreError`] naming the framing problem, or the first user
    /// whose embedded checkpoint failed to decode or resume. Never
    /// panics, whatever the input bytes.
    pub fn restore(params: ExtractorParams, bytes: &[u8]) -> Result<Self, RestoreError> {
        let mut cursor = Cursor { bytes, at: 0 };
        if cursor.word()? != SHARD_MAGIC {
            return Err(RestoreError::BadMagic);
        }
        let n_users = cursor.word()?;
        let mut users = BTreeMap::new();
        for _ in 0..n_users {
            let user_id = cursor.word()?;
            let len = cursor.word()?;
            let cp_bytes = cursor.take(len)?;
            let engine = Checkpoint::from_bytes(cp_bytes)
                .and_then(|cp| StreamingExtractor::resume(&cp))
                .map_err(|source| RestoreError::User { user_id, source })?;
            users.insert(user_id, engine);
        }
        if cursor.at != bytes.len() {
            return Err(RestoreError::BadFraming("trailing bytes after the declared users"));
        }
        Ok(Self {
            params,
            users,
            fixes_unflushed: 0,
            stays_unflushed: 0,
        })
    }

    /// Folds this shard's unflushed tallies into the shared
    /// `serve.shard.*` counters and zeroes them. Called by the service at
    /// snapshot/finish boundaries and on drop — never per fix.
    pub(crate) fn flush_telemetry(&mut self) {
        if backwatch_obs::enabled() {
            serve_obs::register();
            serve_obs::SHARD_FIXES.add(self.fixes_unflushed);
            serve_obs::SHARD_STAYS.add(self.stays_unflushed);
        }
        self.fixes_unflushed = 0;
        self.stays_unflushed = 0;
    }
}

impl<P: StreamPoint> Drop for Shard<P> {
    /// Tallies accumulated since the last flush still reach telemetry
    /// when the shard is dropped mid-stream.
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

/// Bounds-checked little-endian word reader over snapshot bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Reads one little-endian u64, or [`RestoreError::Truncated`].
    fn word(&mut self) -> Result<u64, RestoreError> {
        let chunk = self.bytes.get(self.at..self.at + 8).ok_or(RestoreError::Truncated)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(chunk);
        self.at += 8;
        Ok(u64::from_le_bytes(raw))
    }

    /// Takes `len` raw bytes, or a framing error if `len` does not fit
    /// (either outright oversized or past the end of the stream).
    fn take(&mut self, len: u64) -> Result<&'a [u8], RestoreError> {
        let len = usize::try_from(len).map_err(|_| RestoreError::BadFraming("checkpoint length overflows usize"))?;
        let end = self
            .at
            .checked_add(len)
            .ok_or(RestoreError::BadFraming("checkpoint length overflows the stream"))?;
        let slice = self.bytes.get(self.at..end).ok_or(RestoreError::Truncated)?;
        self.at = end;
        Ok(slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_geo::LatLon;
    use backwatch_trace::Timestamp;

    fn params() -> ExtractorParams {
        ExtractorParams::paper_set1()
    }

    fn fix(secs: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(secs), LatLon::clamped(lat, lon))
    }

    /// Drives one user through a dwell long enough to emit a stay.
    #[test]
    fn ingest_creates_engines_and_emits_stays() {
        let mut shard: Shard = Shard::new(params());
        let metric = params().metric;
        let mut stays = Vec::new();
        // 700 s at one spot, then walk far away to confirm the exit.
        for s in 0..700 {
            stays.extend(shard.ingest(7, fix(s, 39.99, 116.31), &metric));
        }
        for s in 700..1000 {
            stays.extend(shard.ingest(7, fix(s, 39.99 + 0.01 * (s - 699) as f64, 116.31), &metric));
        }
        assert_eq!(shard.n_users(), 1);
        assert!(shard.contains_user(7));
        assert_eq!(stays.len(), 1, "the dwell must surface as one stay");
    }

    #[test]
    fn snapshot_round_trip_is_empty_safe() {
        let shard: Shard = Shard::new(params());
        let bytes = shard.snapshot();
        let restored: Shard = Shard::restore(params(), &bytes).expect("empty shard restores");
        assert_eq!(restored.n_users(), 0);
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered_by_user_id() {
        let metric = params().metric;
        let mut a: Shard = Shard::new(params());
        let mut b: Shard = Shard::new(params());
        // Same fixes, opposite per-user insertion order.
        for s in 0..50 {
            a.ingest(2, fix(s, 39.9, 116.3), &metric);
            a.ingest(1, fix(s, 39.8, 116.2), &metric);
            b.ingest(1, fix(s, 39.8, 116.2), &metric);
            b.ingest(2, fix(s, 39.9, 116.3), &metric);
        }
        assert_eq!(
            a.snapshot(),
            b.snapshot(),
            "snapshot bytes must not depend on insertion order"
        );
        assert_eq!(a.user_ids().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn restore_rejects_corruption_without_panicking() {
        let metric = params().metric;
        let mut shard: Shard = Shard::new(params());
        for s in 0..100 {
            shard.ingest(3, fix(s, 39.9, 116.3), &metric);
        }
        let good = shard.snapshot();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Shard::<TracePoint>::restore(params(), &bad),
            Err(RestoreError::BadMagic)
        ));
        // Truncation at every 8-byte boundary (and a ragged tail).
        for cut in (0..good.len()).step_by(8).chain([good.len() - 3]) {
            let r = Shard::<TracePoint>::restore(params(), &good[..cut]);
            assert!(r.is_err(), "truncation to {cut} bytes must be rejected");
        }
        // Trailing garbage after the declared structure.
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Shard::<TracePoint>::restore(params(), &padded),
            Err(RestoreError::BadFraming("trailing bytes after the declared users"))
        ));
        // Oversized declared checkpoint length inside the stream.
        let mut oversized = good.clone();
        oversized[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Shard::<TracePoint>::restore(params(), &oversized).is_err());
        // A structurally corrupted embedded checkpoint (its magic word,
        // at offset 32: shard magic, count, user id, length) surfaces the
        // owning user id.
        let mut user_bad = good;
        user_bad[32] ^= 0xFF;
        match Shard::<TracePoint>::restore(params(), &user_bad) {
            Err(RestoreError::User { user_id, .. }) => assert_eq!(user_id, 3),
            other => panic!("corrupted embedded checkpoint must name its user: {other:?}"),
        }
    }

    /// A projected-point shard, with a snapshot/restore mid-stream, emits
    /// exactly the stays of the default lat/lon shard on the same fixes.
    #[test]
    fn projected_shard_round_trips_and_matches_latlon_shard() {
        use backwatch_core::poi::PlanarCtx;
        use backwatch_trace::{synth, ProjectedPoint, SoaProjectedTrace};

        let cfg = synth::SynthConfig {
            n_users: 1,
            days: 1,
            ..synth::SynthConfig::small()
        };
        let user = synth::generate_user(&cfg, 0);
        let soa = SoaProjectedTrace::project(&user.trace);
        let ctx = PlanarCtx::for_soa(&soa, params().metric);

        let mut planar: Shard<ProjectedPoint> = Shard::new(params());
        let half = soa.len() / 2;
        let mut stays = Vec::new();
        for p in soa.iter().take(half) {
            stays.extend(planar.ingest(0, p, &ctx).map(|s| (0u64, s)));
        }
        let bytes = planar.snapshot();
        let mut resumed: Shard<ProjectedPoint> = Shard::restore(params(), &bytes).expect("planar shard restores");
        for p in soa.iter().skip(half) {
            stays.extend(resumed.ingest(0, p, &ctx).map(|s| (0u64, s)));
        }
        stays.extend(resumed.finish());

        // Oracle: one uninterrupted lat/lon shard over the same stream.
        let metric = params().metric;
        let mut oracle: Shard = Shard::new(params());
        let mut expect = Vec::new();
        for p in user.trace.iter() {
            expect.extend(oracle.ingest(0, *p, &metric).map(|s| (0u64, s)));
        }
        expect.extend(oracle.finish());
        assert!(!expect.is_empty(), "a synthetic day must produce stays");
        assert_eq!(
            stays, expect,
            "planar shard with a mid-stream restore must match the lat/lon shard"
        );
    }
}
