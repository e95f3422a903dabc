//! Streaming (push-one-fix-at-a-time) PoI extraction.
//!
//! The paper's adversary is inherently online: a background app observes
//! fixes one at a time at some access frequency, not as a materialized
//! trace. [`StreamingExtractor`] runs the same three-buffer state machine
//! as [`super::SpatioTemporalExtractor`] — in fact the batch extractor now
//! *delegates* to this engine, so the two cannot drift — but accepts fixes
//! incrementally, emits each [`Stay`] the moment its exit is confirmed,
//! and holds only O(window) state regardless of trace length:
//!
//! - the *entry* and *exit* buffers are bounded by the entry/exit time
//!   windows (90 s at the paper's settings), and
//! - the *PoI* buffer, which in the batch formulation grew with visit
//!   length, is collapsed into a constant-size [`StayAccum`] — the visit's
//!   first/last fix, count, and running lat/lon sums, which is exactly the
//!   information `close()` ever read from it. The sums are accumulated by
//!   the same sequence of `+=` operations the buffered formulation
//!   performed, so emitted stays are **bit-identical**.
//!
//! A mid-stream [`Checkpoint`] serializes the complete engine state
//! (parameters, state tag, buffer contents *and their raw f64 sum bits* —
//! the sums carry pop-front rounding residue that recomputation would
//! lose) into a versioned little-endian word format with no external
//! dependencies. [`StreamingExtractor::resume`] reconstructs an engine
//! that continues bit-identically: the differential suite in
//! `tests/streaming_equivalence.rs` checks streaming == batch across
//! arbitrary checkpoint/resume split points, and the golden digest in
//! `tests/planar_equivalence.rs` pins the streaming path to the same
//! constant as the batch paths.

use super::buffer::{BufferPoint, CentroidBuffer};
use super::extractor::{ExtractorParams, Stay};
use backwatch_geo::distance::Metric;
use backwatch_geo::{LatLon, Meters, Seconds};
use backwatch_trace::{ProjectedPoint, Timestamp, TracePoint};
use std::error::Error;
use std::fmt;

/// Magic-plus-version word opening every serialized checkpoint
/// (`b"BWCKP"` folded into the high bytes, format version 1 in the low).
const CHECKPOINT_MAGIC: u64 = 0x4257_434b_5000_0001;

/// Wire tag for [`TracePoint`] streams in a checkpoint.
const KIND_LATLON: u64 = 1;
/// Wire tag for [`ProjectedPoint`] streams in a checkpoint.
const KIND_PLANAR: u64 = 2;

/// Constant-size accumulator standing in for the batch algorithm's PoI
/// buffer. The buffer was push-only — the state machine never popped from
/// it — and `close()` only ever read its front, back, length, and centroid
/// (= running sums / length), so carrying exactly those fields reproduces
/// every decision and every emitted [`Stay`] bit-for-bit while the memory
/// footprint stops growing with visit length.
#[derive(Clone)]
struct StayAccum<P> {
    /// First fix of the visit (the stay's `enter`).
    front: P,
    /// Most recent in-visit fix (the stay's `leave`; exit-timeout decisions
    /// measure time away from this fix).
    back: P,
    /// Number of fixes folded in (the stay's `n_points`).
    len: usize,
    /// Running latitude sum, accumulated in push order like the buffer did.
    sum_lat: f64,
    /// Running longitude sum, accumulated in push order.
    sum_lon: f64,
}

impl<P: BufferPoint> StayAccum<P> {
    /// Seeds the accumulator by draining `buf` front-to-back — the same
    /// pop/push sequence the batch code used to move the entry (or exit)
    /// window into a fresh PoI buffer, so the sums see the same `+=`s in
    /// the same order. Returns `None` if `buf` is empty.
    fn from_drained(buf: &mut CentroidBuffer<P>) -> Option<Self> {
        let first = buf.pop_front()?;
        let mut acc = Self {
            front: first,
            back: first,
            len: 0,
            sum_lat: 0.0,
            sum_lon: 0.0,
        };
        acc.push(first);
        while let Some(q) = buf.pop_front() {
            acc.push(q);
        }
        Some(acc)
    }

    /// Folds one fix into the visit.
    fn push(&mut self, p: P) {
        let pos = p.latlon();
        self.sum_lat += pos.lat();
        self.sum_lon += pos.lon();
        self.back = p;
        self.len += 1;
    }

    /// Whether `p` lies within `radius` of the visit centroid — the same
    /// sums-and-length decision `CentroidBuffer::covers` made.
    fn covers(&self, p: &P, radius: Meters, ctx: &P::Ctx) -> bool {
        p.within_radius(self.sum_lat, self.sum_lon, self.len, radius, ctx)
    }

    /// Closes the visit: emits a [`Stay`] if the dwell meets the visiting
    /// time, mirroring the batch `close()` exactly.
    fn close(&self, params: &ExtractorParams, last_inside_index: usize) -> Option<Stay> {
        let dwell = self.back.time() - self.front.time();
        if dwell < params.min_visit_secs.get() {
            return None;
        }
        let n = self.len as f64;
        Some(Stay {
            centroid: LatLon::clamped(self.sum_lat / n, self.sum_lon / n),
            enter: self.front.time(),
            leave: self.back.time(),
            n_points: self.len,
            end_index: last_inside_index,
        })
    }
}

/// The three-buffer state machine's mode, lifted out of the batch loop.
#[derive(Clone)]
enum Machine<P: BufferPoint> {
    /// Moving: the entry window watches for the user settling.
    Outside { entry: CentroidBuffer<P> },
    /// Visiting: a PoI accumulator plus the exit window.
    Inside {
        poi: StayAccum<P>,
        exit: CentroidBuffer<P>,
        last_inside_index: usize,
    },
}

impl<P: BufferPoint> Default for Machine<P> {
    fn default() -> Self {
        Machine::Outside {
            entry: CentroidBuffer::new(),
        }
    }
}

impl<P: BufferPoint> Machine<P> {
    /// Fixes currently buffered (entry or exit window; the PoI accumulator
    /// is constant-size and not counted).
    fn buffered_len(&self) -> usize {
        match self {
            Machine::Outside { entry } => entry.len(),
            Machine::Inside { exit, .. } => exit.len(),
        }
    }
}

impl Machine<ProjectedPoint> {
    /// Whether this machine is `earlier` replayed `dt` seconds and `di`
    /// fixes later: every field equal — floats by bits, fix times moved by
    /// `dt`, fix indices by `di`. The destructuring is exhaustive, so a
    /// field added to the machine cannot be left out of the comparison.
    fn is_shift_of(&self, earlier: &Self, dt: i64, di: usize) -> bool {
        match (self, earlier) {
            (Machine::Outside { entry }, Machine::Outside { entry: earlier_entry }) => {
                buffer_is_shift_of(entry, earlier_entry, dt)
            }
            (
                Machine::Inside {
                    poi,
                    exit,
                    last_inside_index,
                },
                Machine::Inside {
                    poi: earlier_poi,
                    exit: earlier_exit,
                    last_inside_index: earlier_last,
                },
            ) => {
                let StayAccum {
                    front,
                    back,
                    len,
                    sum_lat,
                    sum_lon,
                } = poi;
                *last_inside_index == earlier_last + di
                    && *len == earlier_poi.len
                    && sum_lat.to_bits() == earlier_poi.sum_lat.to_bits()
                    && sum_lon.to_bits() == earlier_poi.sum_lon.to_bits()
                    && point_is_shift_of(front, &earlier_poi.front, dt)
                    && point_is_shift_of(back, &earlier_poi.back, dt)
                    && buffer_is_shift_of(exit, earlier_exit, dt)
            }
            _ => false,
        }
    }
}

/// Whether `p` is `earlier` recorded `dt` seconds later, every other field
/// equal by bits.
fn point_is_shift_of(p: &ProjectedPoint, earlier: &ProjectedPoint, dt: i64) -> bool {
    let ProjectedPoint { time, pos, x, y } = p;
    *time == earlier.time + dt
        && pos.lat().to_bits() == earlier.pos.lat().to_bits()
        && pos.lon().to_bits() == earlier.pos.lon().to_bits()
        && x.to_bits() == earlier.x.to_bits()
        && y.to_bits() == earlier.y.to_bits()
}

/// Whether `buf` holds `earlier`'s fixes recorded `dt` seconds later, with
/// the same running-sum bits.
fn buffer_is_shift_of(buf: &CentroidBuffer<ProjectedPoint>, earlier: &CentroidBuffer<ProjectedPoint>, dt: i64) -> bool {
    let ((lat, lon), (earlier_lat, earlier_lon)) = (buf.sums(), earlier.sums());
    buf.len() == earlier.len()
        && lat.to_bits() == earlier_lat.to_bits()
        && lon.to_bits() == earlier_lon.to_bits()
        && buf
            .points()
            .iter()
            .zip(earlier.points())
            .all(|(p, q)| point_is_shift_of(p, q, dt))
}

/// A copy of an engine's parameters, machine and stream position — all of
/// its state except the telemetry tallies and the peak-buffer mark. The
/// batch driver's rotated-view resync records these at visit entries,
/// compares against them, and continues from them (crate-private).
#[derive(Clone)]
pub(crate) struct EngineState<P: BufferPoint> {
    params: ExtractorParams,
    machine: Machine<P>,
    next_index: usize,
}

/// Online three-buffer PoI extractor: push fixes one at a time, receive
/// each [`Stay`] as soon as its exit is confirmed, and [`finish`] to flush
/// a visit still open at end-of-stream.
///
/// Memory is O(entry/exit window), independent of trace length, so
/// arbitrarily long traces can be fed through fixed-size chunks (see
/// `backwatch_trace::chunks`). [`checkpoint`]/[`resume`] suspend and
/// continue a stream with bit-identical output.
///
/// [`finish`]: StreamingExtractor::finish
/// [`checkpoint`]: StreamingExtractor::checkpoint
/// [`resume`]: StreamingExtractor::resume
///
/// # Examples
///
/// ```
/// use backwatch_core::poi::{ExtractorParams, StreamingExtractor};
/// use backwatch_trace::{TracePoint, Timestamp};
/// use backwatch_geo::LatLon;
///
/// let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
/// let mut stays = Vec::new();
/// for t in 0..1200 {
///     let fix = TracePoint::new(Timestamp::from_secs(t), LatLon::new(39.9, 116.4).unwrap());
///     stays.extend(engine.push(fix));
/// }
/// stays.extend(engine.finish()); // the visit is still open at end-of-stream
/// assert_eq!(stays.len(), 1);
/// ```
pub struct StreamingExtractor<P: BufferPoint = TracePoint> {
    params: ExtractorParams,
    machine: Machine<P>,
    /// Index the next pushed fix will occupy in the (virtual) trace.
    next_index: usize,
    /// High-water mark of `buffered_len()` since construction/resume.
    peak_buffered: usize,
    /// Fixes pushed since the last telemetry flush.
    pushed_since_flush: u64,
    /// Stays emitted since the last telemetry flush.
    emitted_since_flush: u64,
}

impl<P: BufferPoint> fmt::Debug for StreamingExtractor<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingExtractor")
            .field("params", &self.params)
            .field("stream_position", &self.next_index)
            .field("buffered", &self.machine.buffered_len())
            .finish_non_exhaustive()
    }
}

impl<P: BufferPoint> StreamingExtractor<P> {
    /// Creates an engine at stream position 0 with the given parameters.
    #[must_use]
    pub fn new(params: ExtractorParams) -> Self {
        crate::obs::register();
        Self {
            params,
            machine: Machine::default(),
            next_index: 0,
            peak_buffered: 0,
            pushed_since_flush: 0,
            emitted_since_flush: 0,
        }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &ExtractorParams {
        &self.params
    }

    /// Index the next pushed fix will occupy — equivalently, the number of
    /// fixes this stream has consumed (across resumes).
    #[must_use]
    pub fn stream_position(&self) -> usize {
        self.next_index
    }

    /// Fixes currently buffered in the entry or exit window. Bounded by
    /// the fixes that fit in the entry/exit time spans, never by trace
    /// length.
    #[must_use]
    pub fn buffered_len(&self) -> usize {
        self.machine.buffered_len()
    }

    /// High-water mark of [`buffered_len`](Self::buffered_len) since
    /// construction or resume — the engine's memory footprint in fixes.
    #[must_use]
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Whether the engine currently believes the user is inside a PoI.
    #[must_use]
    pub fn is_inside(&self) -> bool {
        matches!(self.machine, Machine::Inside { .. })
    }

    /// Pushes one fix with an explicit geometry context (the bare
    /// [`Metric`] for [`TracePoint`] streams, a
    /// [`super::PlanarCtx`] for projected streams). Returns the stay whose
    /// exit this fix confirmed, if any.
    ///
    /// Fixes must arrive in strictly increasing time order, as
    /// [`backwatch_trace::Trace`] guarantees; the engine does not re-sort.
    pub fn push_with(&mut self, point: P, ctx: &P::Ctx) -> Option<Stay> {
        self.push_noting_entry(point, ctx).0
    }

    /// [`push_with`](Self::push_with) that also reports whether this fix
    /// entered a visit. Right after an entry the engine's state carries no
    /// history (see [`Self::step`]), which is what lets the batch driver
    /// resynchronize a rotated view with the full pass there.
    #[inline]
    pub(crate) fn push_noting_entry(&mut self, point: P, ctx: &P::Ctx) -> (Option<Stay>, bool) {
        let index = self.next_index;
        self.next_index += 1;
        self.pushed_since_flush += 1;
        let (stay, entered) = Self::step(&self.params, &mut self.machine, point, index, ctx);
        self.peak_buffered = self.peak_buffered.max(self.machine.buffered_len());
        if stay.is_some() {
            self.emitted_since_flush += 1;
        }
        (stay, entered)
    }

    /// One transition of the three-buffer state machine. This is the batch
    /// loop body verbatim (modulo the PoI buffer being a [`StayAccum`]):
    /// the batch extractor calls this same code, so the two paths cannot
    /// diverge.
    ///
    /// The machine is mutated in place — the common transitions (stay
    /// Outside, stay Inside) touch only the live variant, so a push does
    /// not move the ~300-byte machine through a take-and-rebuild round
    /// trip; the variant is reassigned only on the rare mode changes.
    ///
    /// Returns the emitted stay and whether the fix entered a visit. A
    /// visit is entered in exactly two places — settling from `Outside`,
    /// and re-entering right after a confirmed exit — and both leave the
    /// machine with a PoI accumulator rebuilt from 0.0 over the drained
    /// window, an empty exit window, and `last_inside_index` equal to this
    /// fix: no state from before the drained window survives.
    #[inline]
    fn step(params: &ExtractorParams, machine: &mut Machine<P>, point: P, index: usize, ctx: &P::Ctx) -> (Option<Stay>, bool) {
        match machine {
            Machine::Outside { entry } => {
                entry.push(point);
                entry.trim_to_span(params.entry_span_secs);
                if entry.is_within_spread(params.radius_m, ctx) {
                    // Settled: the entry window becomes the start of the
                    // PoI accumulator (the overlap in the paper's
                    // description). `from_drained` returning None is
                    // unreachable — the entry window holds at least the fix
                    // just pushed — but losing a transition beats panicking
                    // mid-stream, so the machine simply stays Outside.
                    if let Some(poi) = StayAccum::from_drained(entry) {
                        *machine = Machine::Inside {
                            poi,
                            exit: CentroidBuffer::new(),
                            last_inside_index: index,
                        };
                        return (None, true);
                    }
                }
                (None, false)
            }
            Machine::Inside {
                poi,
                exit,
                last_inside_index,
            } => {
                if poi.covers(&point, params.radius_m, ctx) {
                    // Still at the PoI; any excursion points were a blip
                    // and rejoin the visit.
                    while let Some(q) = exit.pop_front() {
                        poi.push(q);
                    }
                    poi.push(point);
                    *last_inside_index = index;
                    (None, false)
                } else {
                    exit.push(point);
                    let away_secs = point.time() - poi.back.time();
                    if away_secs >= params.exit_span_secs.get() {
                        // Exit confirmed: close the visit and emit it now —
                        // this is the incremental moment the batch path
                        // only reached at the end of its loop.
                        let stay = poi.close(params, *last_inside_index);
                        // The exit window seeds the next entry window so
                        // back-to-back PoIs are not missed (the second
                        // overlap of the paper's description).
                        let mut entry = CentroidBuffer::new();
                        while let Some(q) = exit.pop_front() {
                            entry.push(q);
                        }
                        entry.trim_to_span(params.entry_span_secs);
                        // Re-check immediately: the exit points may already
                        // cluster at the next PoI.
                        if entry.is_within_spread(params.radius_m, ctx) && entry.span_secs() > 0 {
                            if let Some(next_poi) = StayAccum::from_drained(&mut entry) {
                                *machine = Machine::Inside {
                                    poi: next_poi,
                                    exit: CentroidBuffer::new(),
                                    last_inside_index: index,
                                };
                                return (stay, true);
                            }
                        }
                        *machine = Machine::Outside { entry };
                        (stay, false)
                    } else {
                        (None, false)
                    }
                }
            }
        }
    }

    /// Ends the stream: closes a visit still open at end-of-stream (the
    /// batch path's final `close()`), flushes this engine's telemetry
    /// tallies, and resets the engine to stream position 0 for reuse.
    pub fn finish(&mut self) -> Option<Stay> {
        let stay = self.peek_finish();
        self.machine = Machine::default();
        if stay.is_some() {
            self.emitted_since_flush += 1;
        }
        self.flush_telemetry();
        self.next_index = 0;
        self.peak_buffered = 0;
        stay
    }

    /// The stay [`finish`](Self::finish) would emit if the stream ended
    /// now, read without ending it.
    pub(crate) fn peek_finish(&self) -> Option<Stay> {
        match &self.machine {
            Machine::Inside {
                poi, last_inside_index, ..
            } => poi.close(&self.params, *last_inside_index),
            Machine::Outside { .. } => None,
        }
    }

    /// An engine at stream position `next_index`, so that the fixes it is
    /// fed carry the indices they hold in a longer source trace.
    pub(crate) fn starting_at(params: ExtractorParams, next_index: usize) -> Self {
        let mut engine = Self::new(params);
        engine.next_index = next_index;
        engine
    }

    /// A copy of this engine's state (see [`EngineState`]).
    pub(crate) fn state(&self) -> EngineState<P> {
        EngineState {
            params: self.params,
            machine: self.machine.clone(),
            next_index: self.next_index,
        }
    }

    /// Continues from `state`: the next push behaves as it would on the
    /// engine `state` was copied from. This engine's telemetry tallies and
    /// peak-buffer mark are kept.
    pub(crate) fn restore(&mut self, state: &EngineState<P>) {
        self.params = state.params;
        self.machine = state.machine.clone();
        self.next_index = state.next_index;
    }

    /// Adds this engine's unflushed tallies to the shared `core.stream.*`
    /// metrics and zeroes them. The peak-buffer gauge is an advisory
    /// high-water mark (racy max across engines, exact per engine).
    fn flush_telemetry(&mut self) {
        if backwatch_obs::enabled() {
            crate::obs::STREAM_POINTS.add(self.pushed_since_flush);
            crate::obs::STREAM_STAYS.add(self.emitted_since_flush);
            let peak = self.peak_buffered as i64;
            if peak > crate::obs::STREAM_PEAK_BUFFER.get() {
                crate::obs::STREAM_PEAK_BUFFER.set(peak);
            }
        }
        self.pushed_since_flush = 0;
        self.emitted_since_flush = 0;
    }
}

impl<P: BufferPoint> Drop for StreamingExtractor<P> {
    /// An engine dropped mid-stream (e.g. after a checkpoint was handed
    /// off) still accounts for the fixes it processed.
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

impl StreamingExtractor<ProjectedPoint> {
    /// Whether this engine's state is `earlier` replayed `dt` seconds and
    /// `di` fixes later: equal parameters and an equal machine, compared
    /// field by field with floats by bits (every field a [`Checkpoint`]
    /// serializes except the stream position and the peak-buffer mark).
    /// Two such engines fed the same fixes, moved `dt` seconds, emit the
    /// same stays moved `dt` seconds and `di` fixes: every decision reads
    /// time only as a difference.
    pub(crate) fn is_shift_of(&self, earlier: &EngineState<ProjectedPoint>, dt: i64, di: usize) -> bool {
        let Self {
            params,
            machine,
            next_index: _,
            peak_buffered: _,
            pushed_since_flush: _,
            emitted_since_flush: _,
        } = self;
        *params == earlier.params && machine.is_shift_of(&earlier.machine, dt, di)
    }
}

impl StreamingExtractor<TracePoint> {
    /// Pushes one raw lat/lon fix using the configured metric — the
    /// convenience form of [`push_with`](Self::push_with) for unprojected
    /// streams.
    pub fn push(&mut self, point: TracePoint) -> Option<Stay> {
        let metric = self.params.metric;
        self.push_with(point, &metric)
    }
}

impl<P: StreamPoint> StreamingExtractor<P> {
    /// Serializes the complete engine state. The returned [`Checkpoint`]
    /// plus the remaining fixes reproduce exactly the output this engine
    /// would have produced — buffer sums are captured as raw f64 bits, so
    /// even their pop-front rounding residue survives the round trip.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let state_tag = match &self.machine {
            Machine::Outside { .. } => 0,
            Machine::Inside { .. } => 1,
        };
        let mut words = vec![
            CHECKPOINT_MAGIC,
            P::KIND,
            metric_tag(self.params.metric),
            self.params.radius_m.get().to_bits(),
            self.params.min_visit_secs.get() as u64,
            self.params.entry_span_secs.get() as u64,
            self.params.exit_span_secs.get() as u64,
            self.next_index as u64,
            self.peak_buffered as u64,
            state_tag,
        ];
        match &self.machine {
            Machine::Outside { entry } => encode_buffer(entry, &mut words),
            Machine::Inside {
                poi,
                exit,
                last_inside_index,
            } => {
                words.push(poi.len as u64);
                words.push(poi.sum_lat.to_bits());
                words.push(poi.sum_lon.to_bits());
                poi.front.encode(&mut words);
                poi.back.encode(&mut words);
                encode_buffer(exit, &mut words);
                words.push(*last_inside_index as u64);
            }
        }
        if backwatch_obs::enabled() {
            crate::obs::STREAM_CHECKPOINTS.inc();
        }
        Checkpoint { words }
    }

    /// Reconstructs an engine from a checkpoint so that pushing the
    /// remaining fixes continues the original stream bit-identically.
    ///
    /// The geometry context is *not* part of the checkpoint — projected
    /// streams must resume against the same [`backwatch_trace::SoaProjectedTrace`]
    /// they were suspended from.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::PointKindMismatch`] if the checkpoint was taken
    /// from a different point representation, or a structural error if the
    /// checkpoint bytes were corrupted. Never panics.
    pub fn resume(cp: &Checkpoint) -> Result<Self, CheckpointError> {
        Self::resume_inner(cp).map_err(note_decode_failure)
    }

    /// [`resume`](Self::resume) minus the failure accounting, so every
    /// early `?` return still lands on the decode-failure counter exactly
    /// once.
    fn resume_inner(cp: &Checkpoint) -> Result<Self, CheckpointError> {
        let mut r = Reader { words: &cp.words };
        if r.next()? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if r.next()? != P::KIND {
            return Err(CheckpointError::PointKindMismatch);
        }
        let metric = metric_from_tag(r.next()?)?;
        let radius_m = f64::from_bits(r.next()?);
        let min_visit = r.next()? as i64;
        let entry_span = r.next()? as i64;
        let exit_span = r.next()? as i64;
        if !(radius_m.is_finite() && radius_m > 0.0) || min_visit <= 0 || entry_span < 0 || exit_span < 0 {
            return Err(CheckpointError::BadLayout("invalid extractor parameters"));
        }
        let params = ExtractorParams {
            radius_m: Meters::new(radius_m),
            min_visit_secs: Seconds::new(min_visit),
            entry_span_secs: Seconds::new(entry_span),
            exit_span_secs: Seconds::new(exit_span),
            metric,
        };
        let next_index = r.next()? as usize;
        let peak_buffered = r.next()? as usize;
        let machine = match r.next()? {
            0 => Machine::Outside {
                entry: decode_buffer(&mut r)?,
            },
            1 => {
                let len = r.next()? as usize;
                if len == 0 {
                    return Err(CheckpointError::BadLayout("empty PoI accumulator"));
                }
                let sum_lat = f64::from_bits(r.next()?);
                let sum_lon = f64::from_bits(r.next()?);
                let front = P::decode(r.take(P::WORDS)?).ok_or(CheckpointError::InvalidPoint)?;
                let back = P::decode(r.take(P::WORDS)?).ok_or(CheckpointError::InvalidPoint)?;
                let poi = StayAccum {
                    front,
                    back,
                    len,
                    sum_lat,
                    sum_lon,
                };
                let exit = decode_buffer(&mut r)?;
                let last_inside_index = r.next()? as usize;
                Machine::Inside {
                    poi,
                    exit,
                    last_inside_index,
                }
            }
            _ => return Err(CheckpointError::BadLayout("unknown state tag")),
        };
        if !r.finished() {
            return Err(CheckpointError::BadLayout("trailing words"));
        }
        crate::obs::register();
        if backwatch_obs::enabled() {
            crate::obs::STREAM_RESUMES.inc();
        }
        Ok(Self {
            params,
            machine,
            next_index,
            peak_buffered,
            pushed_since_flush: 0,
            emitted_since_flush: 0,
        })
    }
}

/// A point representation that can be serialized into a [`Checkpoint`].
pub trait StreamPoint: BufferPoint {
    /// Wire tag identifying the representation (stable across versions).
    const KIND: u64;
    /// Encoded width in 64-bit words.
    const WORDS: usize;
    /// Appends the point's encoding to `out` (exactly [`Self::WORDS`] words).
    fn encode(&self, out: &mut Vec<u64>);
    /// Decodes a point from exactly [`Self::WORDS`] words; `None` if the
    /// words do not describe a valid point.
    fn decode(words: &[u64]) -> Option<Self>
    where
        Self: Sized;
}

impl StreamPoint for TracePoint {
    const KIND: u64 = KIND_LATLON;
    const WORDS: usize = 3;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.time.as_secs() as u64);
        out.push(self.pos.lat().to_bits());
        out.push(self.pos.lon().to_bits());
    }

    fn decode(words: &[u64]) -> Option<Self> {
        let [t, lat, lon] = words else { return None };
        let pos = LatLon::new(f64::from_bits(*lat), f64::from_bits(*lon)).ok()?;
        Some(TracePoint::new(Timestamp::from_secs(*t as i64), pos))
    }
}

impl StreamPoint for ProjectedPoint {
    const KIND: u64 = KIND_PLANAR;
    const WORDS: usize = 5;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.time.as_secs() as u64);
        out.push(self.pos.lat().to_bits());
        out.push(self.pos.lon().to_bits());
        out.push(self.x.to_bits());
        out.push(self.y.to_bits());
    }

    fn decode(words: &[u64]) -> Option<Self> {
        let [t, lat, lon, x, y] = words else { return None };
        let pos = LatLon::new(f64::from_bits(*lat), f64::from_bits(*lon)).ok()?;
        Some(ProjectedPoint {
            time: Timestamp::from_secs(*t as i64),
            pos,
            x: f64::from_bits(*x),
            y: f64::from_bits(*y),
        })
    }
}

/// A serialized [`StreamingExtractor`] state: suspend a stream, persist or
/// ship these bytes, and [`StreamingExtractor::resume`] later with
/// bit-identical continuation.
///
/// The format is self-contained little-endian 64-bit words (magic+version,
/// point kind, full parameters, stream position, state tag, buffer sums as
/// raw f64 bits, encoded points), with no external dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    words: Vec<u64>,
}

impl Checkpoint {
    /// Serializes to little-endian bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes and structurally validates checkpoint bytes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the bytes are truncated, carry a wrong
    /// magic/version, or do not describe a well-formed engine state.
    /// Corrupt input is rejected, never panicked on.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::from_bytes_inner(bytes).map_err(note_decode_failure)
    }

    /// [`from_bytes`](Self::from_bytes) minus the failure accounting.
    fn from_bytes_inner(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if !bytes.len().is_multiple_of(8) {
            return Err(CheckpointError::Truncated);
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| {
                let mut w = [0_u8; 8];
                w.copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        validate_layout(&words)?;
        Ok(Self { words })
    }

    /// Number of fixes the suspended stream had consumed — the position in
    /// the source trace from which to feed the resumed engine.
    #[must_use]
    pub fn points_consumed(&self) -> usize {
        // Word 7 of the header; present in every validated layout.
        self.words.get(7).map_or(0, |w| *w as usize)
    }

    /// Serialized size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Why a [`Checkpoint`] could not be decoded or resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the declared structure did.
    Truncated,
    /// The magic/version word did not match this format.
    BadMagic,
    /// The words do not describe a well-formed engine state.
    BadLayout(&'static str),
    /// The checkpoint holds a different point representation than the
    /// engine type it was resumed into.
    PointKindMismatch,
    /// A serialized point failed validation (e.g. a non-finite latitude).
    InvalidPoint,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::BadMagic => write!(f, "not a backwatch checkpoint (bad magic/version)"),
            Self::BadLayout(what) => write!(f, "malformed checkpoint: {what}"),
            Self::PointKindMismatch => write!(f, "checkpoint holds a different point representation"),
            Self::InvalidPoint => write!(f, "checkpoint holds an invalid point"),
        }
    }
}

impl Error for CheckpointError {}

/// Accounts one rejected checkpoint byte stream on the
/// `core.stream.decode_failures_total` counter and passes the error
/// through — the single funnel for every decode/resume failure, so a
/// serving layer can alert on corrupt stored state.
fn note_decode_failure(e: CheckpointError) -> CheckpointError {
    crate::obs::register();
    if backwatch_obs::enabled() {
        crate::obs::STREAM_DECODE_FAILURES.inc();
    }
    e
}

/// Sequential word reader over a checkpoint body.
struct Reader<'a> {
    words: &'a [u64],
}

impl Reader<'_> {
    fn next(&mut self) -> Result<u64, CheckpointError> {
        match self.words.split_first() {
            Some((w, rest)) => {
                self.words = rest;
                Ok(*w)
            }
            None => Err(CheckpointError::Truncated),
        }
    }

    fn take(&mut self, n: usize) -> Result<&[u64], CheckpointError> {
        if self.words.len() < n {
            return Err(CheckpointError::Truncated);
        }
        let (head, rest) = self.words.split_at(n);
        self.words = rest;
        Ok(head)
    }

    fn finished(&self) -> bool {
        self.words.is_empty()
    }
}

fn metric_tag(metric: Metric) -> u64 {
    match metric {
        Metric::Equirectangular => 0,
        Metric::Haversine => 1,
    }
}

fn metric_from_tag(tag: u64) -> Result<Metric, CheckpointError> {
    match tag {
        0 => Ok(Metric::Equirectangular),
        1 => Ok(Metric::Haversine),
        _ => Err(CheckpointError::BadLayout("unknown metric tag")),
    }
}

/// Appends a buffer block: length, raw sum bits, then the encoded points
/// oldest-first.
fn encode_buffer<P: StreamPoint>(buf: &CentroidBuffer<P>, out: &mut Vec<u64>) {
    let (sum_lat, sum_lon) = buf.sums();
    out.push(buf.len() as u64);
    out.push(sum_lat.to_bits());
    out.push(sum_lon.to_bits());
    for p in buf.points() {
        p.encode(out);
    }
}

/// Decodes a buffer block, restoring the sum bits verbatim (recomputing
/// them from the points would lose pop-front rounding residue and break
/// bit-identity).
fn decode_buffer<P: StreamPoint>(r: &mut Reader<'_>) -> Result<CentroidBuffer<P>, CheckpointError> {
    let len = r.next()? as usize;
    let sum_lat = f64::from_bits(r.next()?);
    let sum_lon = f64::from_bits(r.next()?);
    let n_words = len.checked_mul(P::WORDS).ok_or(CheckpointError::Truncated)?;
    let raw = r.take(n_words)?;
    let mut points = Vec::with_capacity(len);
    for chunk in raw.chunks_exact(P::WORDS) {
        points.push(P::decode(chunk).ok_or(CheckpointError::InvalidPoint)?);
    }
    Ok(CentroidBuffer::from_raw_parts(points, sum_lat, sum_lon))
}

/// Full structural walk of a deserialized word stream, without a concrete
/// point type: checks magic, known kind/state tags, and that the declared
/// buffer lengths account for exactly the words present.
fn validate_layout(words: &[u64]) -> Result<(), CheckpointError> {
    let mut r = Reader { words };
    if r.next()? != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let point_words = match r.next()? {
        KIND_LATLON => TracePoint::WORDS,
        KIND_PLANAR => ProjectedPoint::WORDS,
        _ => return Err(CheckpointError::BadLayout("unknown point kind")),
    };
    // metric, radius, min_visit, entry span, exit span, position, peak
    let _ = r.take(7)?;
    let skip_buffer = |r: &mut Reader<'_>| -> Result<(), CheckpointError> {
        let len = r.next()? as usize;
        let _ = r.take(2)?; // sum bits
        let n_words = len.checked_mul(point_words).ok_or(CheckpointError::Truncated)?;
        let _ = r.take(n_words)?;
        Ok(())
    };
    match r.next()? {
        0 => skip_buffer(&mut r)?,
        1 => {
            let len = r.next()? as usize;
            if len == 0 {
                return Err(CheckpointError::BadLayout("empty PoI accumulator"));
            }
            let _ = r.take(2 + 2 * point_words)?; // sums + front + back
            skip_buffer(&mut r)?;
            let _ = r.next()?; // last inside index
        }
        _ => return Err(CheckpointError::BadLayout("unknown state tag")),
    }
    if !r.finished() {
        return Err(CheckpointError::BadLayout("trailing words"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poi::{PlanarCtx, SpatioTemporalExtractor};
    use backwatch_trace::{SoaProjectedTrace, Trace};

    fn pt(t: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap())
    }

    /// Dwell `secs` at (lat, lon) starting at `t0`, 1 Hz, tiny jitter.
    fn dwell(t0: i64, secs: i64, lat: f64, lon: f64) -> Vec<TracePoint> {
        (0..secs)
            .map(|i| {
                pt(
                    t0 + i,
                    lat + ((i % 5) as f64 - 2.0) * 1e-6,
                    lon + ((i % 3) as f64 - 1.0) * 1e-6,
                )
            })
            .collect()
    }

    /// Straight-line walk between two coordinates, 1 Hz.
    fn walk(t0: i64, from: (f64, f64), to: (f64, f64), secs: i64) -> Vec<TracePoint> {
        (0..secs)
            .map(|i| {
                let f = i as f64 / secs as f64;
                pt(t0 + i, from.0 + (to.0 - from.0) * f, from.1 + (to.1 - from.1) * f)
            })
            .collect()
    }

    /// Two dwells bridged by a walk — exercises both emit paths.
    fn two_stop_points() -> Vec<TracePoint> {
        let mut pts = dwell(0, 900, 39.90, 116.40);
        pts.extend(walk(900, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(2400, 900, 39.92, 116.42));
        pts
    }

    fn stream_all(engine: &mut StreamingExtractor, pts: &[TracePoint]) -> Vec<Stay> {
        let mut stays: Vec<Stay> = pts.iter().filter_map(|p| engine.push(*p)).collect();
        stays.extend(engine.finish());
        stays
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut engine: StreamingExtractor = StreamingExtractor::new(ExtractorParams::paper_set1());
        assert_eq!(engine.finish(), None);
        assert_eq!(engine.stream_position(), 0);
    }

    #[test]
    fn single_fix_yields_nothing() {
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        assert_eq!(engine.push(pt(0, 39.9, 116.4)), None);
        assert_eq!(engine.finish(), None);
    }

    #[test]
    fn streaming_matches_batch_on_a_two_stop_trace() {
        let pts = two_stop_points();
        let batch = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts.clone()));
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        let streamed = stream_all(&mut engine, &pts);
        assert_eq!(batch, streamed);
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn first_stay_is_emitted_mid_stream_not_at_finish() {
        let pts = two_stop_points();
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        let mut emitted_at = None;
        for (i, p) in pts.iter().enumerate() {
            if engine.push(*p).is_some() {
                emitted_at = Some(i);
                break;
            }
        }
        let at = emitted_at.expect("first stay must be emitted during the stream");
        // the exit of the first dwell is confirmed ~90 s into the walk
        assert!(at > 900 && at < 1200, "emitted at index {at}");
    }

    #[test]
    fn open_stay_at_end_of_stream_is_flushed_by_finish() {
        let pts = dwell(0, 1200, 39.9, 116.4);
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        let mid_stream: Vec<Stay> = pts.iter().filter_map(|p| engine.push(*p)).collect();
        assert!(mid_stream.is_empty(), "no exit ever happens");
        let last = engine.finish();
        assert!(last.is_some(), "finish must flush the open visit");
        let batch = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert_eq!(batch, vec![last.unwrap()]);
    }

    #[test]
    fn finish_resets_the_engine_for_a_new_stream() {
        let pts = two_stop_points();
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        let first = stream_all(&mut engine, &pts);
        assert_eq!(engine.stream_position(), 0, "finish resets the position");
        let second = stream_all(&mut engine, &pts);
        assert_eq!(first, second, "a finished engine is as good as a fresh one");
    }

    #[test]
    fn stay_straddling_a_chunk_boundary_is_emitted_once() {
        // Split mid-dwell: the visit spans the checkpoint boundary.
        let pts = two_stop_points();
        let batch = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts.clone()));
        for split in [450, 899, 901, 1000] {
            let mut first = StreamingExtractor::new(ExtractorParams::paper_set1());
            let mut stays: Vec<Stay> = pts[..split].iter().filter_map(|p| first.push(*p)).collect();
            let bytes = first.checkpoint().to_bytes();
            drop(first);
            let cp = Checkpoint::from_bytes(&bytes).unwrap();
            assert_eq!(cp.points_consumed(), split);
            let mut second: StreamingExtractor = StreamingExtractor::resume(&cp).unwrap();
            stays.extend(pts[split..].iter().filter_map(|p| second.push(*p)));
            stays.extend(second.finish());
            assert_eq!(batch, stays, "split at {split}");
        }
    }

    #[test]
    fn checkpoint_of_resumed_engine_is_byte_identical() {
        let pts = two_stop_points();
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        for p in &pts[..1000] {
            engine.push(*p);
        }
        let bytes = engine.checkpoint().to_bytes();
        let resumed: StreamingExtractor = StreamingExtractor::resume(&Checkpoint::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(resumed.checkpoint().to_bytes(), bytes);
    }

    #[test]
    fn buffered_len_is_bounded_by_the_windows_not_the_trace() {
        // A 4-hour dwell: the batch PoI buffer would hold ~14k fixes; the
        // streaming engine's live buffers stay within the 90 s windows.
        let pts = dwell(0, 4 * 3600, 39.9, 116.4);
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        for p in &pts {
            engine.push(*p);
            assert!(engine.buffered_len() <= 91, "buffer grew: {}", engine.buffered_len());
        }
        assert!(engine.peak_buffered() <= 91);
        assert!(engine.finish().is_some());
    }

    /// Streams every fix of `soa` through a planar engine with its own
    /// context, returning the stays and the context's decision tallies.
    fn stream_soa(params: ExtractorParams, soa: &SoaProjectedTrace) -> (Vec<Stay>, (u64, u64)) {
        let ctx = PlanarCtx::for_soa(soa, params.metric);
        let mut engine: StreamingExtractor<ProjectedPoint> = StreamingExtractor::new(params);
        let mut stays: Vec<Stay> = soa.iter().filter_map(|p| engine.push_with(p, &ctx)).collect();
        stays.extend(engine.finish());
        (stays, ctx.decision_counts())
    }

    #[test]
    fn projected_stream_matches_batch_soa_and_latlon() {
        let trace = Trace::from_points(two_stop_points());
        let soa = SoaProjectedTrace::project(&trace);
        for metric in [Metric::Equirectangular, Metric::Haversine] {
            let params = ExtractorParams {
                metric,
                ..ExtractorParams::paper_set1()
            };
            let extractor = SpatioTemporalExtractor::new(params);
            let (stays, (certified, refined)) = stream_soa(params, &soa);
            assert_eq!(extractor.extract_soa(&soa), stays, "metric {metric:?}");
            assert_eq!(extractor.extract(&trace), stays, "lat/lon oracle, metric {metric:?}");
            assert!(certified + refined > 0, "no planar decisions under {metric:?}");
        }
    }

    #[test]
    fn antimeridian_fixes_stream_identically_to_batch() {
        // Longitudes straddling ±180: the projection degenerates (span
        // > 90°) and every planar decision refines to the exact metric;
        // streaming must agree with batch on both representations.
        let mut pts = Vec::new();
        for i in 0..900 {
            let lon = if i % 2 == 0 { 179.9999 } else { -179.9999 };
            pts.push(pt(i, -36.85, lon));
        }
        pts.extend((0..300).map(|i| pt(900 + i, -36.85 - 0.001 * i as f64, 179.9 - 0.001 * i as f64)));
        let trace = Trace::from_points(pts.clone());
        let batch = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        assert_eq!(stream_all(&mut engine, trace.points()), batch);
        let (stays, (certified, _)) = stream_soa(ExtractorParams::paper_set1(), &SoaProjectedTrace::project(&trace));
        assert_eq!(stays, batch);
        assert_eq!(certified, 0, "a degenerate projection certifies nothing");
    }

    #[test]
    fn projected_checkpoint_resumes_bit_identically() {
        let trace = Trace::from_points(two_stop_points());
        let soa = SoaProjectedTrace::project(&trace);
        let params = ExtractorParams::paper_set1();
        let batch = SpatioTemporalExtractor::new(params).extract(&trace);
        let ctx = PlanarCtx::for_soa(&soa, params.metric);
        let mut engine: StreamingExtractor<ProjectedPoint> = StreamingExtractor::new(params);
        let mut stays = Vec::new();
        for p in soa.iter().take(1100) {
            stays.extend(engine.push_with(p, &ctx));
        }
        let bytes = engine.checkpoint().to_bytes();
        let cp = Checkpoint::from_bytes(&bytes).unwrap();
        let mut resumed: StreamingExtractor<ProjectedPoint> = StreamingExtractor::resume(&cp).unwrap();
        for p in soa.iter().skip(cp.points_consumed()) {
            stays.extend(resumed.push_with(p, &ctx));
        }
        stays.extend(resumed.finish());
        assert_eq!(batch, stays);
    }

    #[test]
    fn checkpoint_rejects_bad_magic() {
        let engine: StreamingExtractor = StreamingExtractor::new(ExtractorParams::paper_set1());
        let mut bytes = engine.checkpoint().to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(Checkpoint::from_bytes(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn checkpoint_rejects_truncation_at_every_length() {
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        for p in dwell(0, 300, 39.9, 116.4) {
            engine.push(p);
        }
        let bytes = engine.checkpoint().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not validate"
            );
        }
    }

    #[test]
    fn resume_rejects_point_kind_mismatch() {
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        for p in dwell(0, 120, 39.9, 116.4) {
            engine.push(p);
        }
        let cp = engine.checkpoint();
        let res: Result<StreamingExtractor<ProjectedPoint>, _> = StreamingExtractor::resume(&cp);
        assert_eq!(res.err(), Some(CheckpointError::PointKindMismatch));
    }

    #[test]
    fn checkpoint_rejects_non_finite_point_coordinates() {
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        for p in dwell(0, 60, 39.9, 116.4) {
            engine.push(p);
        }
        let cp = engine.checkpoint();
        let mut bytes = cp.to_bytes();
        // The engine settled into Inside state: 10 header words, then the
        // PoI accumulator whose front point's latitude bits sit at word 14
        // (len, sum, sum, front time, front lat). Overwrite with NaN.
        let lat_word = (10 + 3 + 1) * 8;
        bytes[lat_word..lat_word + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let corrupt = Checkpoint::from_bytes(&bytes).expect("layout still validates");
        let res: Result<StreamingExtractor, _> = StreamingExtractor::resume(&corrupt);
        assert_eq!(res.err(), Some(CheckpointError::InvalidPoint));
    }

    #[test]
    fn checkpoint_rejects_buffer_length_lies() {
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        for p in dwell(0, 60, 39.9, 116.4) {
            engine.push(p);
        }
        assert!(engine.is_inside(), "a 60 s dwell settles immediately");
        let mut bytes = engine.checkpoint().to_bytes();
        // Inside layout: 10 header words, a 9-word PoI accumulator
        // (len + sums + front + back), then the exit buffer whose declared
        // length (word 19) sizes the remaining words. Inflate it.
        bytes[19 * 8..20 * 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    /// An engine mid-visit (Inside state) — the layout with the most
    /// structure for corruption sweeps to hit.
    fn inside_engine() -> StreamingExtractor {
        let mut engine = StreamingExtractor::new(ExtractorParams::paper_set1());
        for p in dwell(0, 300, 39.9, 116.4) {
            engine.push(p);
        }
        assert!(engine.is_inside());
        engine
    }

    #[test]
    fn checkpoint_rejects_non_multiple_of_8_lengths() {
        let bytes = inside_engine().checkpoint().to_bytes();
        let before = crate::obs::STREAM_DECODE_FAILURES.get();
        let mut rejected = 0;
        for extra in 1..8 {
            // trailing garbage that breaks 8-byte alignment
            let mut padded = bytes.clone();
            padded.extend(std::iter::repeat_n(0xAB_u8, extra));
            assert_eq!(Checkpoint::from_bytes(&padded), Err(CheckpointError::Truncated));
            // mid-word truncation
            let cut = bytes.len() - extra;
            assert_eq!(Checkpoint::from_bytes(&bytes[..cut]), Err(CheckpointError::Truncated));
            rejected += 2;
        }
        if backwatch_obs::enabled() {
            // >= because parallel tests may reject checkpoints of their own
            assert!(
                crate::obs::STREAM_DECODE_FAILURES.get() >= before + rejected,
                "every rejection must land on core.stream.decode_failures_total"
            );
        }
    }

    #[test]
    fn checkpoint_rejects_truncation_at_every_word_boundary() {
        let bytes = inside_engine().checkpoint().to_bytes();
        let words = bytes.len() / 8;
        let before = crate::obs::STREAM_DECODE_FAILURES.get();
        for w in 0..words {
            assert!(
                Checkpoint::from_bytes(&bytes[..w * 8]).is_err(),
                "truncation to {w} whole words must not validate"
            );
        }
        if backwatch_obs::enabled() {
            assert!(crate::obs::STREAM_DECODE_FAILURES.get() >= before + words as u64);
        }
    }

    #[test]
    fn checkpoint_rejects_garbage_wire_tags() {
        let bytes = inside_engine().checkpoint().to_bytes();
        let patch = |word: usize, v: u64| {
            let mut b = bytes.clone();
            b[word * 8..(word + 1) * 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        // word 1 is the point-kind tag: unknown kinds are rejected outright
        for garbage in [0, 3, 7, u64::MAX] {
            assert_eq!(
                Checkpoint::from_bytes(&patch(1, garbage)),
                Err(CheckpointError::BadLayout("unknown point kind"))
            );
        }
        // a *duplicate* kind tag (planar on a lat/lon body) must fail at
        // decode (layout no longer accounts for the words) or at resume
        // (kind mismatch) — never continue with misread points
        let flipped = patch(1, KIND_PLANAR);
        let survived =
            Checkpoint::from_bytes(&flipped).and_then(|cp| StreamingExtractor::resume(&cp).map(|_: StreamingExtractor| ()));
        assert!(survived.is_err(), "duplicate wire tag must not round-trip");
        // word 9 is the machine state tag: only 0 (Outside) and 1 (Inside)
        for garbage in [2, 9, u64::MAX] {
            assert_eq!(
                Checkpoint::from_bytes(&patch(9, garbage)),
                Err(CheckpointError::BadLayout("unknown state tag"))
            );
        }
    }

    /// Exhaustive single-word tag-value sweep: overwriting *any* word with
    /// any tag-like value (magic, kinds, zero, all-ones) must decode to
    /// `Ok` or `CheckpointError` — never panic — and a decode that
    /// validates must also resume without panicking.
    #[test]
    fn tag_value_sweep_never_panics() {
        let bytes = inside_engine().checkpoint().to_bytes();
        let words = bytes.len() / 8;
        for word in 0..words {
            for v in [CHECKPOINT_MAGIC, KIND_LATLON, KIND_PLANAR, 0, u64::MAX] {
                let mut b = bytes.clone();
                b[word * 8..(word + 1) * 8].copy_from_slice(&v.to_le_bytes());
                if let Ok(cp) = Checkpoint::from_bytes(&b) {
                    let _resumed: Result<StreamingExtractor, _> = StreamingExtractor::resume(&cp);
                }
            }
        }
    }

    #[test]
    fn resume_failures_land_on_the_counter() {
        // A structurally valid checkpoint whose front point is NaN decodes
        // but fails resume — that failure must also be counted.
        let cp = inside_engine().checkpoint();
        let mut bytes = cp.to_bytes();
        let lat_word = (10 + 3 + 1) * 8;
        bytes[lat_word..lat_word + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let corrupt = Checkpoint::from_bytes(&bytes).expect("layout still validates");
        let before = crate::obs::STREAM_DECODE_FAILURES.get();
        let res: Result<StreamingExtractor, _> = StreamingExtractor::resume(&corrupt);
        assert_eq!(res.err(), Some(CheckpointError::InvalidPoint));
        if backwatch_obs::enabled() {
            assert!(crate::obs::STREAM_DECODE_FAILURES.get() > before);
        }
    }

    #[test]
    fn error_messages_name_the_failure() {
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::BadLayout("x").to_string().contains("x"));
    }
}
