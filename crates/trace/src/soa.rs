//! Column-layout projected traces: the one planar trace layout.
//!
//! A [`SoaProjectedTrace`] projects each fix once into (east, north)
//! meters on a tangent plane anchored at the trace's first fix (see
//! [`crate::projected`] for the envelope analysis and its certified
//! error slope) and stores each field as its own column — `x`, `y`,
//! `timestamp`, plus a geographic position column the refine fallback and
//! reported centroids need. Positions stay as whole [`LatLon`] values
//! (never split into raw degrees and re-wrapped) so materialized points
//! are bit-verbatim copies of the source fixes.
//!
//! Degenerate inputs (polar anchor / antimeridian span) give
//! `slack_per_east_meter() == +inf` and all-zero planar columns. The view
//! iterators ([`sampled`](SoaProjectedTrace::sampled),
//! [`rotated_from`](SoaProjectedTrace::rotated_from)) walk exactly the
//! fixes of the owned [`crate::sampling::downsample`] /
//! [`crate::sampling::rotate_to_start`] traces without cloning; the tests
//! in this module and the workspace-level `tests/planar_equivalence.rs`
//! pin that.

use crate::point::{Timestamp, TracePoint};
use crate::projected::{envelope, Envelope, ProjectedPoint};
use crate::trajectory::Trace;
use backwatch_geo::projection::LocalProjection;
use backwatch_geo::LatLon;

/// A trace projected once into flat planar meters, stored column-wise.
///
/// # Examples
///
/// ```
/// use backwatch_trace::{SoaProjectedTrace, Trace, TracePoint, Timestamp};
/// use backwatch_geo::LatLon;
///
/// let pts: Vec<TracePoint> = (0..60)
///     .map(|t| TracePoint::new(Timestamp::from_secs(t), LatLon::new(39.9, 116.4).unwrap()))
///     .collect();
/// let soa = SoaProjectedTrace::project(&Trace::from_points(pts));
/// assert_eq!(soa.len(), 60);
/// assert_eq!(soa.xs().len(), soa.ys().len()); // dense parallel columns
/// ```
#[derive(Debug, Clone)]
pub struct SoaProjectedTrace {
    projection: LocalProjection,
    slack_per_east_meter: f64,
    times: Vec<i64>,
    pos: Vec<LatLon>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl SoaProjectedTrace {
    /// Projects `trace` onto a tangent plane anchored at its first fix,
    /// directly into columns.
    #[must_use]
    pub fn project(trace: &Trace) -> Self {
        let pts = trace.points();
        let n = pts.len();
        let mut out = match envelope(pts) {
            Envelope::Planar {
                projection,
                slack_per_east_meter,
            } => Self::empty(projection, slack_per_east_meter, n),
            Envelope::Degenerate { projection } => Self::empty(projection, f64::INFINITY, n),
        };
        let planar = out.slack_per_east_meter.is_finite();
        for p in pts {
            let (x, y) = if planar { out.projection.project(p.pos) } else { (0.0, 0.0) };
            out.times.push(p.time.as_secs());
            out.pos.push(p.pos);
            out.xs.push(x);
            out.ys.push(y);
        }
        out
    }

    fn empty(projection: LocalProjection, slack_per_east_meter: f64, capacity: usize) -> Self {
        Self {
            projection,
            slack_per_east_meter,
            times: Vec::with_capacity(capacity),
            pos: Vec::with_capacity(capacity),
            xs: Vec::with_capacity(capacity),
            ys: Vec::with_capacity(capacity),
        }
    }

    /// The projection the columns were computed on.
    #[must_use]
    pub fn projection(&self) -> &LocalProjection {
        &self.projection
    }

    /// Certified planar-vs-equirectangular error per meter of planar east
    /// separation (`+inf` outside the fast path's envelope; see
    /// [`crate::projected`]).
    #[must_use]
    pub fn slack_per_east_meter(&self) -> f64 {
        self.slack_per_east_meter
    }

    /// East offsets from the anchor, meters, in trace order.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// North offsets from the anchor, meters, in trace order.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Geographic positions in trace order (kept as whole [`LatLon`]
    /// values so the exact-metric refine path and reported centroids are
    /// bit-identical to the lat/lon pipeline).
    #[must_use]
    pub fn positions(&self) -> &[LatLon] {
        &self.pos
    }

    /// Timestamps (seconds) in trace order.
    #[must_use]
    pub fn times(&self) -> &[i64] {
        &self.times
    }

    /// Number of fixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Materializes the fix at `index` (all five columns re-joined).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn point(&self, index: usize) -> ProjectedPoint {
        ProjectedPoint {
            time: Timestamp::from_secs(self.times[index]),
            pos: self.pos[index],
            x: self.xs[index],
            y: self.ys[index],
        }
    }

    /// The fixes in trace order, materialized on the fly. Walks the four
    /// columns as zipped iterators rather than indexing [`point`] per fix,
    /// so the drive loop of a point-at-a-time consumer carries no bounds
    /// checks.
    ///
    /// [`point`]: SoaProjectedTrace::point
    pub fn iter(&self) -> impl Iterator<Item = ProjectedPoint> + '_ {
        self.times
            .iter()
            .zip(&self.pos)
            .zip(&self.xs)
            .zip(&self.ys)
            .map(|(((&t, &pos), &x), &y)| ProjectedPoint {
                time: Timestamp::from_secs(t),
                pos,
                x,
                y,
            })
    }

    /// Borrowed view of the fixes selected by `indices` (as produced by
    /// [`crate::sampling::downsample_indices`]) — the zero-copy equivalent
    /// of extracting from a [`crate::sampling::downsample`]d trace.
    pub fn sampled<'a>(&'a self, indices: &'a [u32]) -> impl Iterator<Item = ProjectedPoint> + 'a {
        indices.iter().map(|&i| self.point(i as usize))
    }

    /// Borrowed view of the trace rotated to begin at fix `start`, with the
    /// wrapped head's timestamps shifted exactly as
    /// [`crate::sampling::rotate_to_start`] does. `start == 0` (including
    /// on an empty trace) yields the trace unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `start > 0` and `start >= len`.
    pub fn rotated_from(&self, start: usize) -> impl Iterator<Item = ProjectedPoint> + '_ {
        assert!(
            start == 0 || start < self.len(),
            "start {start} out of range for {} points",
            self.len()
        );
        let (last_t, head_base) = if start == 0 {
            (0, 0)
        } else {
            (
                self.times.last().copied().unwrap_or(0),
                self.times.first().copied().unwrap_or(0),
            )
        };
        let seam = 1;
        let tail = (start..self.len()).map(|i| self.point(i));
        let head = (0..start).map(move |i| {
            let p = self.point(i);
            ProjectedPoint {
                time: Timestamp::from_secs(last_t + seam + (p.time.as_secs() - head_base)),
                ..p
            }
        });
        tail.chain(head)
    }

    /// Reconstructs the plain [`TracePoint`] at `index` (geographic
    /// position and timestamp only).
    #[must_use]
    pub fn trace_point(&self, index: usize) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(self.times[index]), self.pos[index])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling;
    use backwatch_geo::distance::equirectangular;
    use backwatch_geo::Seconds;

    fn pt(t: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap())
    }

    fn city_trace() -> Trace {
        Trace::from_points(
            (0..200)
                .map(|t| pt(t * 7, 39.9 + (t as f64) * 1e-4, 116.4 - (t as f64) * 2e-4))
                .collect(),
        )
    }

    fn trace_points(view: impl Iterator<Item = ProjectedPoint>) -> Vec<TracePoint> {
        view.map(|p| TracePoint::new(p.time, p.pos)).collect()
    }

    #[test]
    fn planar_pairwise_distances_track_equirectangular() {
        let soa = SoaProjectedTrace::project(&city_trace());
        let slack = soa.slack_per_east_meter();
        assert!(slack.is_finite());
        let pts: Vec<ProjectedPoint> = soa.iter().collect();
        for w in pts.windows(17) {
            let (a, b) = (w[0], w[16]);
            let planar = ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt();
            let exact = equirectangular(a.pos, b.pos);
            let bound = (a.x - b.x).abs() * slack + 1e-6;
            assert!((planar - exact).abs() <= bound, "planar {planar} exact {exact}");
        }
    }

    #[test]
    fn empty_trace_projects_to_empty() {
        let soa = SoaProjectedTrace::project(&Trace::new());
        assert!(soa.is_empty());
        assert_eq!(soa.iter().count(), 0);
        assert_eq!(soa.rotated_from(0).count(), 0);
    }

    #[test]
    fn degenerate_traces_carry_the_envelope_projection_and_infinite_slack() {
        let polar = Trace::from_points(vec![pt(0, 89.5, 10.0), pt(1, 89.5, 11.0)]);
        let antimeridian = Trace::from_points(vec![pt(0, 0.0, -179.9), pt(1, 0.0, 179.9)]);
        for tr in [polar, antimeridian] {
            let Envelope::Degenerate { projection } = envelope(tr.points()) else {
                panic!("envelope must classify the trace as degenerate");
            };
            let soa = SoaProjectedTrace::project(&tr);
            assert!(soa.slack_per_east_meter().is_infinite());
            assert_eq!(projection.anchor(), soa.projection().anchor(), "degenerate anchor");
            assert!(soa.xs().iter().chain(soa.ys()).all(|&v| v == 0.0));
            assert_eq!(trace_points(soa.iter()), tr.points().to_vec());
        }
    }

    #[test]
    fn sampled_view_matches_owned_downsample() {
        let tr = city_trace();
        let soa = SoaProjectedTrace::project(&tr);
        for interval in [1, 60, 7200] {
            let owned = sampling::downsample(&tr, Seconds::new(interval));
            let indices = sampling::downsample_indices(&tr, Seconds::new(interval));
            assert_eq!(
                trace_points(soa.sampled(&indices)),
                owned.points().to_vec(),
                "interval {interval}"
            );
        }
    }

    #[test]
    fn rotated_view_matches_owned_rotation() {
        let tr = city_trace();
        let soa = SoaProjectedTrace::project(&tr);
        for start in [0, 1, 57, 199] {
            let owned = sampling::rotate_to_start(&tr, start);
            assert_eq!(
                trace_points(soa.rotated_from(start)),
                owned.points().to_vec(),
                "start {start}"
            );
        }
    }

    #[test]
    fn trace_point_round_trips() {
        let tr = city_trace();
        let soa = SoaProjectedTrace::project(&tr);
        for (i, p) in tr.iter().enumerate() {
            assert_eq!(soa.trace_point(i), *p);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rotated_from_rejects_out_of_range_start() {
        let soa = SoaProjectedTrace::project(&city_trace());
        let _ = soa.rotated_from(10_000);
    }
}
