//! The Spatio-Temporal PoI extraction algorithm (paper §IV-B).
//!
//! The paper adopts the three-buffer algorithm of Bamis & Savvides: an
//! *entry* buffer detects that the user has settled (its points cluster
//! within the PoI radius), a *PoI* buffer accumulates the visit (the entry
//! buffer's tail seeds it — the overlap the paper describes), and an *exit*
//! buffer collects points that stray from the PoI centroid; once the user
//! has been away longer than the exit window, the visit is closed and kept
//! if its dwell meets the visiting-time threshold.
//!
//! The time-window formulation makes the same code work at every sampling
//! rate: at 1 Hz the entry window needs a genuinely tight dwell to trigger,
//! while at a 7,200 s polling interval a single fix trivially "clusters" —
//! and a visit is then only confirmed if a *later* fix lands inside the
//! radius, i.e. only hours-long stays survive, exactly the degradation the
//! paper measures in Figure 3.

use super::buffer::{BufferPoint, CentroidBuffer, PlanarCtx};
use super::streaming::{EngineState, StreamingExtractor};
use backwatch_geo::distance::Metric;
use backwatch_geo::{LatLon, Meters, Seconds};
use backwatch_trace::{ProjectedPoint, SoaProjectedTrace, Timestamp, Trace};

/// Parameters of the extractor. The paper's Table III sweeps `radius_m` ∈
/// {50, 100} meters and `min_visit_secs` ∈ {600, 1200, 1800} seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractorParams {
    /// PoI radius.
    pub radius_m: Meters,
    /// Minimum dwell for a visit to count as a PoI.
    pub min_visit_secs: Seconds,
    /// Length of the entry detection window.
    pub entry_span_secs: Seconds,
    /// Time away from the centroid that confirms an exit.
    pub exit_span_secs: Seconds,
    /// Distance metric for centroid comparisons.
    pub metric: Metric,
}

impl ExtractorParams {
    /// Table III set 1 (radius 50 m, visiting time 10 min) — the setting
    /// the paper selects for all subsequent measurements.
    #[must_use]
    pub fn paper_set1() -> Self {
        Self::new(Meters::new(50.0), Seconds::new(10 * 60))
    }

    /// A parameter set with the given radius and visiting time and the
    /// default entry/exit windows (90 s each).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive or `min_visit` is not positive.
    #[must_use]
    pub fn new(radius: Meters, min_visit: Seconds) -> Self {
        assert!(radius.get() > 0.0 && radius.is_finite(), "radius must be positive");
        assert!(min_visit.get() > 0, "visiting time must be positive");
        Self {
            radius_m: radius,
            min_visit_secs: min_visit,
            entry_span_secs: Seconds::new(90),
            exit_span_secs: Seconds::new(90),
            metric: Metric::Equirectangular,
        }
    }

    /// The paper's six Table III parameter sets, in order.
    #[must_use]
    pub fn table3_sets() -> [ExtractorParams; 6] {
        [
            Self::new(Meters::new(50.0), Seconds::new(600)),
            Self::new(Meters::new(50.0), Seconds::new(1200)),
            Self::new(Meters::new(50.0), Seconds::new(1800)),
            Self::new(Meters::new(100.0), Seconds::new(600)),
            Self::new(Meters::new(100.0), Seconds::new(1200)),
            Self::new(Meters::new(100.0), Seconds::new(1800)),
        ]
    }
}

impl Default for ExtractorParams {
    fn default() -> Self {
        Self::paper_set1()
    }
}

/// One extracted PoI visit: the user stayed within `radius_m` of
/// `centroid` from `enter` to `leave`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stay {
    /// Centroid of the visit's fixes.
    pub centroid: LatLon,
    /// First fix of the visit.
    pub enter: Timestamp,
    /// Last fix of the visit.
    pub leave: Timestamp,
    /// Number of fixes contributing to the visit.
    pub n_points: usize,
    /// Index (into the extracted trace's points) of the visit's last fix —
    /// lets incremental detectors know when the visit became visible.
    pub end_index: usize,
}

impl Stay {
    /// Dwell duration in seconds.
    #[must_use]
    pub fn dwell_secs(&self) -> i64 {
        self.leave - self.enter
    }
}

/// The three-buffer Spatio-Temporal extractor.
///
/// # Examples
///
/// ```
/// use backwatch_core::poi::{ExtractorParams, SpatioTemporalExtractor};
/// use backwatch_trace::{Trace, TracePoint, Timestamp};
/// use backwatch_geo::LatLon;
///
/// // 20 minutes parked at one spot.
/// let pts: Vec<TracePoint> = (0..1200)
///     .map(|t| TracePoint::new(Timestamp::from_secs(t), LatLon::new(39.9, 116.4).unwrap()))
///     .collect();
/// let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1())
///     .extract(&Trace::from_points(pts));
/// assert_eq!(stays.len(), 1);
/// assert!(stays[0].dwell_secs() >= 600);
/// ```
#[derive(Debug, Clone)]
pub struct SpatioTemporalExtractor {
    params: ExtractorParams,
}

impl SpatioTemporalExtractor {
    /// Creates an extractor with the given parameters.
    #[must_use]
    pub fn new(params: ExtractorParams) -> Self {
        crate::obs::register();
        Self { params }
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> &ExtractorParams {
        &self.params
    }

    /// Extracts all PoI visits from `trace`, in chronological order. This
    /// is the lat/lon oracle: every radius decision pays the exact metric.
    #[must_use]
    pub fn extract(&self, trace: &Trace) -> Vec<Stay> {
        self.run(trace.iter().copied(), &self.params.metric)
    }

    /// Planar fast path: extracts from a trace that was projected once
    /// with [`SoaProjectedTrace::project`]. Radius decisions run on planar
    /// coordinates behind a certified error bound (see
    /// [`super::buffer::PlanarCtx`]), so the result is **bit-identical** to
    /// [`SpatioTemporalExtractor::extract`] on the source trace — under
    /// [`Metric::Haversine`], which has no certified planar bound, every
    /// decision transparently takes the exact spherical path.
    #[must_use]
    pub fn extract_soa(&self, soa: &SoaProjectedTrace) -> Vec<Stay> {
        self.run_planar(soa, soa.iter())
    }

    /// Planar fast path over a downsampled *view*: equivalent to
    /// extracting from `sampling::downsample(trace, k)` when `indices`
    /// came from `sampling::downsample_indices(trace, k)`, without cloning
    /// the trace. `Stay::end_index` refers to positions in the view, as it
    /// would in the downsampled trace.
    #[must_use]
    pub fn extract_sampled_soa(&self, soa: &SoaProjectedTrace, indices: &[u32]) -> Vec<Stay> {
        self.run_planar(soa, soa.sampled(indices))
    }

    /// Planar fast path over a rotated *view*: equivalent to extracting
    /// from `sampling::rotate_to_start(trace, start)` without cloning.
    #[must_use]
    pub fn extract_rotated_soa(&self, soa: &SoaProjectedTrace, start: usize) -> Vec<Stay> {
        self.run_planar(soa, soa.rotated_from(start))
    }

    /// The pair `(extract_soa(soa), extract_rotated_soa(soa, start))`, bit
    /// for bit, from one full pass plus two short runs over the rotated
    /// view — its tail `soa[start..]`, then its head `soa[..start]` moved
    /// past the trace's end. Each short run pushes fixes only until its
    /// engine, right after a visit entry, is in the state the full pass
    /// was in after the same source fix (times and indices shifted for the
    /// head); from there it splices in the full pass's stays instead of
    /// recomputing them. A run that never resynchronizes pushes every fix,
    /// which is what [`extract_rotated_soa`] costs. `start` has the same
    /// contract as there.
    ///
    /// # Panics
    ///
    /// Panics if `start > 0` and `start >= soa.len()`.
    ///
    /// [`extract_rotated_soa`]: SpatioTemporalExtractor::extract_rotated_soa
    #[must_use]
    pub fn extract_soa_and_rotated(&self, soa: &SoaProjectedTrace, start: usize) -> (Vec<Stay>, Vec<Stay>) {
        let n = soa.len();
        assert!(start == 0 || start < n, "start {start} out of range for {n} points");
        let ctx = PlanarCtx::for_soa(soa, self.params.metric);
        let full = FullPass::run(self.params, soa, start, &ctx);
        // `start == 0` rotates nothing: the view is the trace itself.
        let (rotated, spliced) = if start == 0 {
            (full.stays.clone(), n)
        } else {
            full.rotated(soa, start, &ctx)
        };
        ctx.flush_decision_counts();
        // Counted as the two passes this call replaces; only the fixes
        // actually pushed count as consumed.
        record_passes(2, 2 * n - spliced, spliced, full.stays.len() + rotated.len());
        (full.stays, rotated)
    }

    /// The planar driver behind every `extract_*_soa` view: builds the
    /// geometry context for `soa`, runs the engine over `points`, and
    /// flushes the pass's certified/refined tallies.
    fn run_planar(&self, soa: &SoaProjectedTrace, points: impl Iterator<Item = ProjectedPoint>) -> Vec<Stay> {
        let ctx = PlanarCtx::for_soa(soa, self.params.metric);
        let stays = self.run(points, &ctx);
        ctx.flush_decision_counts();
        stays
    }

    /// Batch extraction, generic over the point representation (raw
    /// lat/lon or projected planar): drives the streaming engine
    /// ([`StreamingExtractor`]) over the iterator and collects its
    /// incremental emissions. Delegating — rather than keeping a second
    /// copy of the three-buffer state machine — is what makes the
    /// streaming/batch differential guarantee hold by construction.
    fn run<P: BufferPoint>(&self, points: impl Iterator<Item = P>, ctx: &P::Ctx) -> Vec<Stay> {
        let mut engine: StreamingExtractor<P> = StreamingExtractor::new(self.params);
        let mut stays = Vec::new();
        for point in points {
            if let Some(stay) = engine.push_with(point, ctx) {
                stays.push(stay);
            }
        }
        let n_points = engine.stream_position();
        // Trace ended while inside a PoI: finish closes the open visit.
        stays.extend(engine.finish());
        record_passes(1, n_points, 0, stays.len());
        stays
    }
}

/// Adds finished extraction passes to the `core.poi.*` counters: `pushed`
/// fixes driven through an engine, `spliced` rotated-view fixes taken from
/// a full pass instead, and the stays the passes yielded.
fn record_passes(passes: u64, pushed: usize, spliced: usize, stays: usize) {
    if backwatch_obs::enabled() {
        crate::obs::POI_PASSES.add(passes);
        crate::obs::POI_POINTS.add(pushed as u64);
        crate::obs::POI_SPLICED.add(spliced as u64);
        crate::obs::POI_STAYS.add(stays as u64);
    }
}

/// The full pass of [`SpatioTemporalExtractor::extract_soa_and_rotated`]:
/// its stays, plus what a rotated view needs to resynchronize with it and
/// splice its stays.
struct FullPass {
    /// The parameters the pass ran with; the rotated runs use the same.
    params: ExtractorParams,
    /// The full-rate stays, in emission order.
    stays: Vec<Stay>,
    /// For each of `stays`, the index of the fix whose push emitted it
    /// (the trace length for the visit `finish` closed).
    emitted_at: Vec<usize>,
    /// Every visit entry: the entering fix's index and the engine state
    /// right after it, in fix order.
    entries: Vec<(usize, EngineState<ProjectedPoint>)>,
    /// The stay `finish` would have emitted had the stream ended at fix
    /// `start − 1`.
    seam_close: Option<Stay>,
    /// The engine after the last fix, before `finish`.
    last: EngineState<ProjectedPoint>,
}

impl FullPass {
    fn run(params: ExtractorParams, soa: &SoaProjectedTrace, start: usize, ctx: &PlanarCtx) -> Self {
        let mut engine: StreamingExtractor<ProjectedPoint> = StreamingExtractor::new(params);
        let (mut stays, mut emitted_at, mut entries) = (Vec::new(), Vec::new(), Vec::new());
        let mut seam_close = None;
        for (i, point) in soa.iter().enumerate() {
            let (stay, entered) = engine.push_noting_entry(point, ctx);
            if let Some(stay) = stay {
                stays.push(stay);
                emitted_at.push(i);
            }
            if entered {
                entries.push((i, engine.state()));
            }
            if i + 1 == start {
                seam_close = engine.peek_finish();
            }
        }
        let last = engine.state();
        if let Some(stay) = engine.finish() {
            stays.push(stay);
            emitted_at.push(soa.len());
        }
        Self {
            params,
            stays,
            emitted_at,
            entries,
            seam_close,
            last,
        }
    }

    /// The stays of the view rotated to begin at `start` (`0 < start <
    /// n`), and how many of its fixes were spliced rather than pushed.
    ///
    /// The engine is positioned at `start`, so a tail fix keeps its source
    /// index and head fix `k` gets `n + k`; every head fix is moved by
    /// `dt`, as in [`SoaProjectedTrace::rotated_from`]. After each visit
    /// entry at a fix where the full pass also entered, equal states mean
    /// equal futures, so the rest of that phase is copied from the full
    /// pass.
    fn rotated(&self, soa: &SoaProjectedTrace, start: usize, ctx: &PlanarCtx) -> (Vec<Stay>, usize) {
        let n = soa.len();
        // Both ends exist since 0 < start < n; the head resumes one second
        // after the tail's last fix.
        let (first, last) = (soa.times().first().copied(), soa.times().last().copied());
        let dt = last.unwrap_or(0) + 1 - first.unwrap_or(0);
        let mut engine = StreamingExtractor::starting_at(self.params, start);
        let mut out = Vec::new();
        let mut spliced = 0;
        // Tail: on a match at fix i, the full pass's later stays are the
        // tail's, and its final engine is where the head continues from.
        for i in start..n {
            let (stay, entered) = engine.push_noting_entry(soa.point(i), ctx);
            out.extend(stay);
            if entered && self.entered_alike(i, &engine, 0, 0) {
                out.extend_from_slice(self.emitted_between(i, n));
                engine.restore(&self.last);
                spliced += n - 1 - i;
                break;
            }
        }
        // Head: on a match at fix k, the full pass's stays up to the seam,
        // then the visit it had open there, moved to the view's times.
        let mut resynced = false;
        for k in 0..start {
            let point = soa.point(k);
            let shifted = ProjectedPoint {
                time: point.time + dt,
                ..point
            };
            let (stay, entered) = engine.push_noting_entry(shifted, ctx);
            out.extend(stay);
            if entered && self.entered_alike(k, &engine, dt, n) {
                let shift = |s: &Stay| Stay {
                    enter: s.enter + dt,
                    leave: s.leave + dt,
                    end_index: s.end_index + n,
                    ..*s
                };
                out.extend(self.emitted_between(k, start).iter().map(shift));
                out.extend(self.seam_close.as_ref().map(shift));
                spliced += start - 1 - k;
                resynced = true;
                break;
            }
        }
        if !resynced {
            out.extend(engine.finish());
        }
        for stay in &mut out {
            stay.end_index -= start;
        }
        (out, spliced)
    }

    /// Whether the full pass entered a visit at fix `index` and `engine`
    /// is now in that state replayed `dt` seconds and `di` fixes later.
    fn entered_alike(&self, index: usize, engine: &StreamingExtractor<ProjectedPoint>, dt: i64, di: usize) -> bool {
        self.entries
            .binary_search_by_key(&index, |(i, _)| *i)
            .is_ok_and(|at| engine.is_shift_of(&self.entries[at].1, dt, di))
    }

    /// The full pass's stays emitted by fixes after `after` and before
    /// `before`.
    fn emitted_between(&self, after: usize, before: usize) -> &[Stay] {
        let from = self.emitted_at.partition_point(|&e| e <= after);
        let to = self.emitted_at.partition_point(|&e| e < before);
        &self.stays[from..to]
    }
}

/// Ablation baseline: the classic anchor-based stay-point detector
/// (Li et al. 2008). For each anchor fix, scan forward while fixes remain
/// within `radius_m` of the anchor; if the in-radius span meets the
/// visiting time, emit a stay.
///
/// Less noise-robust than the three-buffer algorithm (a single GPS blip
/// terminates a visit) and quadratic in the worst case; it exists to
/// quantify what the paper's algorithm buys.
#[derive(Debug, Clone)]
pub struct NaiveDwellExtractor {
    params: ExtractorParams,
}

impl NaiveDwellExtractor {
    /// Creates the baseline extractor with the given parameters
    /// (entry/exit spans are ignored).
    #[must_use]
    pub fn new(params: ExtractorParams) -> Self {
        Self { params }
    }

    /// Extracts stays with anchor-based scanning.
    #[must_use]
    pub fn extract(&self, trace: &Trace) -> Vec<Stay> {
        let pts = trace.points();
        let mut stays = Vec::new();
        let mut i = 0;
        while i < pts.len() {
            let mut j = i + 1;
            while j < pts.len() && self.params.metric.distance(pts[j].pos, pts[i].pos) <= self.params.radius_m.get() {
                j += 1;
            }
            let dwell = pts[j - 1].time - pts[i].time;
            if dwell >= self.params.min_visit_secs.get() {
                let mut buf = CentroidBuffer::new();
                for q in &pts[i..j] {
                    buf.push(*q);
                }
                // The window holds at least the anchor fix, so the
                // centroid exists; without one the anchor emits nothing.
                let Some(centroid) = buf.centroid() else {
                    i += 1;
                    continue;
                };
                stays.push(Stay {
                    centroid,
                    enter: pts[i].time,
                    leave: pts[j - 1].time,
                    n_points: j - i,
                    end_index: j - 1,
                });
                i = j;
            } else {
                i += 1;
            }
        }
        stays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_trace::TracePoint;

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

    /// Straight-line walk between two coordinates at ~1.4 m/s, 1 Hz.
    fn walk(t0: i64, from: (f64, f64), to: (f64, f64), secs: i64) -> Vec<TracePoint> {
        (0..secs)
            .map(|i| {
                let f = i as f64 / secs as f64;
                pt(t0 + i, from.0 + (to.0 - from.0) * f, from.1 + (to.1 - from.1) * f)
            })
            .collect()
    }

    #[test]
    fn single_long_dwell_is_one_stay() {
        let trace = Trace::from_points(dwell(0, 1200, 39.9, 116.4));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert_eq!(stays.len(), 1);
        let s = &stays[0];
        assert!(s.dwell_secs() >= 1100);
        assert!(
            ExtractorParams::paper_set1()
                .metric
                .distance(s.centroid, LatLon::new(39.9, 116.4).unwrap())
                < 5.0
        );
    }

    #[test]
    fn short_dwell_is_rejected() {
        let trace = Trace::from_points(dwell(0, 300, 39.9, 116.4)); // 5 min < 10 min
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert!(stays.is_empty());
    }

    #[test]
    fn continuous_motion_yields_no_stays() {
        // 30 minutes of steady walking covers ~2.5 km
        let trace = Trace::from_points(walk(0, (39.90, 116.40), (39.92, 116.42), 1800));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert!(stays.is_empty(), "got {stays:?}");
    }

    #[test]
    fn two_dwells_with_travel_are_two_stays() {
        let mut pts = dwell(0, 900, 39.90, 116.40);
        pts.extend(walk(900, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(2400, 900, 39.92, 116.42));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert_eq!(stays.len(), 2);
        assert!(stays[0].leave < stays[1].enter);
    }

    #[test]
    fn noise_blip_does_not_split_a_visit() {
        let mut pts = dwell(0, 600, 39.9, 116.4);
        // a 20 s GPS excursion 300 m away in the middle
        for (k, p) in dwell(600, 20, 39.903, 116.4).into_iter().enumerate() {
            let _ = k;
            pts.push(p);
        }
        pts.extend(dwell(620, 600, 39.9, 116.4));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert_eq!(stays.len(), 1, "blip must not end the visit: {stays:?}");
        assert!(stays[0].dwell_secs() > 1100);
    }

    #[test]
    fn sparse_sampling_still_finds_long_dwell() {
        // fixes every 1800 s at the same place for 4 hours
        let pts: Vec<TracePoint> = (0..9).map(|i| pt(i * 1800, 39.9, 116.4)).collect();
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert_eq!(stays.len(), 1);
        assert_eq!(stays[0].dwell_secs(), 8 * 1800);
    }

    #[test]
    fn sparse_sampling_misses_short_dwell() {
        // a 30-minute visit observed by a 7200 s poller: at most one fix
        // lands inside, so no dwell can be established
        let pts = vec![pt(0, 39.90, 116.40), pt(7200, 39.95, 116.45), pt(14400, 39.99, 116.49)];
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::from_points(pts));
        assert!(stays.is_empty());
    }

    #[test]
    fn larger_radius_extracts_at_least_as_many() {
        let mut pts = dwell(0, 700, 39.90, 116.40);
        pts.extend(walk(700, (39.90, 116.40), (39.91, 116.41), 900));
        pts.extend(dwell(1600, 700, 39.91, 116.41));
        let trace = Trace::from_points(pts);
        let small = SpatioTemporalExtractor::new(ExtractorParams::new(Meters::new(50.0), Seconds::new(600))).extract(&trace);
        let large = SpatioTemporalExtractor::new(ExtractorParams::new(Meters::new(100.0), Seconds::new(600))).extract(&trace);
        assert!(large.len() >= small.len());
    }

    #[test]
    fn longer_visiting_time_extracts_fewer() {
        let mut pts = dwell(0, 700, 39.90, 116.40); // ~11.6 min
        pts.extend(walk(700, (39.90, 116.40), (39.93, 116.43), 2000));
        pts.extend(dwell(2700, 2000, 39.93, 116.43)); // ~33 min
        let trace = Trace::from_points(pts);
        let short = SpatioTemporalExtractor::new(ExtractorParams::new(Meters::new(50.0), Seconds::new(600))).extract(&trace);
        let long = SpatioTemporalExtractor::new(ExtractorParams::new(Meters::new(50.0), Seconds::new(1800))).extract(&trace);
        assert_eq!(short.len(), 2);
        assert_eq!(long.len(), 1);
    }

    #[test]
    fn end_index_is_within_trace_and_increasing() {
        let mut pts = dwell(0, 900, 39.90, 116.40);
        pts.extend(walk(900, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(2400, 900, 39.92, 116.42));
        let trace = Trace::from_points(pts);
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        for w in stays.windows(2) {
            assert!(w[0].end_index < w[1].end_index);
        }
        assert!(stays.iter().all(|s| s.end_index < trace.len()));
    }

    /// The fused call's rotated stays for the view of `trace` beginning at
    /// `start`, checked against extracting that view alone, and how many
    /// of its fixes were spliced from the full pass.
    fn fused_rotation(trace: &Trace, start: usize) -> (Vec<Stay>, usize) {
        let params = ExtractorParams::paper_set1();
        let soa = SoaProjectedTrace::project(trace);
        let ctx = PlanarCtx::for_soa(&soa, params.metric);
        let (stays, spliced) = FullPass::run(params, &soa, start, &ctx).rotated(&soa, start, &ctx);
        let alone = SpatioTemporalExtractor::new(params).extract_rotated_soa(&soa, start);
        assert_eq!(stays, alone, "start {start}");
        (stays, spliced)
    }

    #[test]
    fn rotated_view_starting_inside_a_visit_resyncs_at_the_next_entry() {
        // A, B, C; the view begins 450 s into A, too late for A to count
        let mut pts = dwell(0, 900, 39.90, 116.40);
        pts.extend(walk(900, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(2400, 900, 39.92, 116.42));
        pts.extend(walk(3300, (39.92, 116.42), (39.94, 116.40), 1500));
        pts.extend(dwell(4800, 900, 39.94, 116.40));
        let trace = Trace::from_points(pts);
        let (stays, spliced) = fused_rotation(&trace, 450);
        assert_eq!(stays.len(), 2, "B and C: {stays:?}");
        // the tail resyncs on entering B, so all of C is spliced
        assert!(spliced > 900 + 1500, "spliced {spliced}");
    }

    #[test]
    fn rotated_view_with_a_seam_inside_a_visit_splices_the_open_visit() {
        // home, B, home: the view begins 900 s into B and its seam joins
        // the evening at home to the morning there
        let mut pts = dwell(0, 1800, 39.90, 116.40);
        pts.extend(walk(1800, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(3300, 1800, 39.92, 116.42));
        pts.extend(walk(5100, (39.92, 116.42), (39.90, 116.40), 1500));
        pts.extend(dwell(6600, 1800, 39.90, 116.40));
        let trace = Trace::from_points(pts);
        let start = 3300 + 900;
        let (stays, spliced) = fused_rotation(&trace, start);
        // rest of B, home across the seam, then B up to the view's end —
        // the visit the full pass still had open at fix start − 1
        assert_eq!(stays.len(), 3, "{stays:?}");
        let seam = trace.points()[trace.len() - 1].time;
        assert!(stays[1].enter < seam && stays[1].leave > seam, "{stays:?}");
        assert_eq!(stays[2].end_index, trace.len() - 1);
        // both runs resync — the tail on entering home, the head on
        // entering B — since neither alone can splice 1,800 fixes
        assert!(spliced >= 1800, "spliced {spliced}");
    }

    #[test]
    fn rotated_view_of_one_long_dwell_never_resyncs() {
        // the view enters the only visit at its first fix, where the full
        // pass was already inside, and never enters another
        let trace = Trace::from_points(dwell(0, 1200, 39.9, 116.4));
        let (stays, spliced) = fused_rotation(&trace, 600);
        assert_eq!(stays.len(), 1);
        assert_eq!(spliced, 0, "a run that never matches pushes every fix");
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&Trace::new());
        assert!(stays.is_empty());
    }

    #[test]
    fn naive_extractor_agrees_on_clean_input() {
        let mut pts = dwell(0, 900, 39.90, 116.40);
        pts.extend(walk(900, (39.90, 116.40), (39.92, 116.42), 1500));
        pts.extend(dwell(2400, 900, 39.92, 116.42));
        let trace = Trace::from_points(pts);
        let st = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        let naive = NaiveDwellExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert_eq!(st.len(), naive.len());
    }

    #[test]
    fn naive_extractor_splits_on_blip_where_three_buffer_does_not() {
        let mut pts = dwell(0, 700, 39.9, 116.4);
        pts.extend(dwell(700, 20, 39.903, 116.4)); // blip 300 m away
        pts.extend(dwell(720, 700, 39.9, 116.4));
        let trace = Trace::from_points(pts);
        let st = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        let naive = NaiveDwellExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        assert_eq!(st.len(), 1);
        assert!(naive.len() >= 2, "the naive anchor scan fractures the visit");
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn invalid_radius_panics() {
        let _ = ExtractorParams::new(Meters::ZERO, Seconds::new(600));
    }

    #[test]
    fn empty_trace_yields_no_stays_on_every_path() {
        let params = ExtractorParams::paper_set1();
        let extractor = SpatioTemporalExtractor::new(params);
        let empty = Trace::new();
        assert!(extractor.extract(&empty).is_empty());
        let soa = SoaProjectedTrace::project(&empty);
        assert!(extractor.extract_soa(&soa).is_empty());
        assert!(extractor.extract_sampled_soa(&soa, &[]).is_empty());
        assert!(extractor.extract_rotated_soa(&soa, 0).is_empty());
        assert_eq!(extractor.extract_soa_and_rotated(&soa, 0), (vec![], vec![]));
        assert!(NaiveDwellExtractor::new(params).extract(&empty).is_empty());
    }

    #[test]
    fn one_point_trace_yields_no_stays_on_every_path() {
        let params = ExtractorParams::paper_set1();
        let extractor = SpatioTemporalExtractor::new(params);
        let one = Trace::from_points(vec![pt(0, 39.9, 116.4)]);
        assert!(extractor.extract(&one).is_empty());
        let soa = SoaProjectedTrace::project(&one);
        assert!(extractor.extract_soa(&soa).is_empty());
        assert!(extractor.extract_sampled_soa(&soa, &[0]).is_empty());
        assert!(extractor.extract_rotated_soa(&soa, 0).is_empty());
        assert_eq!(extractor.extract_soa_and_rotated(&soa, 0), (vec![], vec![]));
        assert!(NaiveDwellExtractor::new(params).extract(&one).is_empty());
    }
}
