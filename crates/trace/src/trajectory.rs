//! Location traces: ordered sequences of timestamped fixes.

use crate::point::{Timestamp, TracePoint};
use backwatch_geo::{distance, BoundingBox, LatLon, Seconds};
use std::error::Error;
use std::fmt;

/// An ordered location trace.
///
/// Invariant: points are sorted by time with *strictly* increasing
/// timestamps (one fix per second at most, matching the Geolife recording
/// model).
///
/// # Examples
///
/// ```
/// use backwatch_trace::{Trace, TracePoint, Timestamp};
/// use backwatch_geo::LatLon;
///
/// let mut trace = Trace::new();
/// trace.push(TracePoint::new(Timestamp::from_secs(0), LatLon::new(39.9, 116.4)?))?;
/// trace.push(TracePoint::new(Timestamp::from_secs(1), LatLon::new(39.9001, 116.4)?))?;
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.duration_secs(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    points: Vec<TracePoint>,
}

/// Error returned when a trace operation would violate the ordering
/// invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceError {
    previous: Timestamp,
    offered: Timestamp,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace points must have strictly increasing timestamps: {} does not follow {}",
            self.offered, self.previous
        )
    }
}

impl Error for TraceError {}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Creates an empty trace with room for `capacity` points.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            points: Vec::with_capacity(capacity),
        }
    }

    /// Builds a trace from possibly-unsorted points, sorting by time and
    /// dropping all but the first fix for any duplicated timestamp.
    #[must_use]
    pub fn from_points(mut points: Vec<TracePoint>) -> Self {
        points.sort_by_key(|p| p.time);
        points.dedup_by_key(|p| p.time);
        Self { points }
    }

    /// Appends a point.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if `point.time` is not strictly after the last
    /// point's time.
    pub fn push(&mut self, point: TracePoint) -> Result<(), TraceError> {
        if let Some(last) = self.points.last() {
            if point.time <= last.time {
                return Err(TraceError {
                    previous: last.time,
                    offered: point.time,
                });
            }
        }
        self.points.push(point);
        Ok(())
    }

    /// Number of fixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trace holds no fixes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The fixes, in time order.
    #[must_use]
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Iterates over the fixes in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, TracePoint> {
        self.points.iter()
    }

    /// The first fix, if any.
    #[must_use]
    pub fn first(&self) -> Option<&TracePoint> {
        self.points.first()
    }

    /// The last fix, if any.
    #[must_use]
    pub fn last(&self) -> Option<&TracePoint> {
        self.points.last()
    }

    /// Where the trace's owner is at `t`: the position of the last fix at
    /// or before `t`, or of the first fix when `t` precedes the trace.
    /// `None` for an empty trace.
    #[must_use]
    pub fn position_at(&self, t: Timestamp) -> Option<LatLon> {
        let idx = self.points.partition_point(|p| p.time <= t);
        self.points.get(idx.saturating_sub(1)).map(|p| p.pos)
    }

    /// Elapsed seconds between first and last fix (zero for fewer than two
    /// fixes).
    #[must_use]
    pub fn duration_secs(&self) -> i64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => b.time - a.time,
            _ => 0,
        }
    }

    /// Total path length in meters (sum of consecutive great-circle hops).
    #[must_use]
    pub fn path_length_m(&self) -> f64 {
        self.points
            .iter()
            .zip(self.points.iter().skip(1))
            .map(|(a, b)| distance::haversine(a.pos, b.pos))
            .sum()
    }

    /// The smallest box containing every fix, or `None` if empty.
    #[must_use]
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        BoundingBox::from_points(self.points.iter().map(|p| p.pos))
    }

    /// Splits the trace into trajectories at recording gaps longer than
    /// `max_gap` — the Geolife notion of separate trips.
    ///
    /// # Panics
    ///
    /// Panics if `max_gap` is not positive.
    #[must_use]
    pub fn split_by_gap(&self, max_gap: Seconds) -> Vec<Trace> {
        let max_gap_secs = max_gap.get();
        assert!(max_gap_secs > 0, "gap must be positive, got {max_gap_secs}");
        let mut out = Vec::new();
        let mut current: Vec<TracePoint> = Vec::new();
        for &p in &self.points {
            if let Some(last) = current.last() {
                if p.time - last.time > max_gap_secs {
                    out.push(Trace {
                        points: std::mem::take(&mut current),
                    });
                }
            }
            current.push(p);
        }
        if !current.is_empty() {
            out.push(Trace { points: current });
        }
        out
    }

    /// Consumes the trace and returns its points.
    #[must_use]
    pub fn into_points(self) -> Vec<TracePoint> {
        self.points
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TracePoint;
    type IntoIter = std::slice::Iter<'a, TracePoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TracePoint;
    type IntoIter = std::vec::IntoIter<TracePoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

impl FromIterator<TracePoint> for Trace {
    /// Collects points into a trace, sorting and deduplicating timestamps
    /// (see [`Trace::from_points`]).
    fn from_iter<I: IntoIterator<Item = TracePoint>>(iter: I) -> Self {
        Self::from_points(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap())
    }

    #[test]
    fn push_enforces_order() {
        let mut tr = Trace::new();
        tr.push(pt(0, 39.9, 116.4)).unwrap();
        tr.push(pt(1, 39.9, 116.4)).unwrap();
        let err = tr.push(pt(1, 39.9, 116.4)).unwrap_err();
        assert!(err.to_string().contains("strictly increasing"));
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn from_points_sorts_and_dedups() {
        let tr = Trace::from_points(vec![pt(5, 1.0, 1.0), pt(1, 2.0, 2.0), pt(5, 3.0, 3.0)]);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.first().unwrap().time.as_secs(), 1);
        assert_eq!(tr.last().unwrap().time.as_secs(), 5);
        // first occurrence at t=5 wins after the sort (stable)
        assert_eq!(tr.last().unwrap().pos.lat(), 1.0);
    }

    #[test]
    fn position_at_holds_the_last_fix_and_clamps_at_the_ends() {
        let tr = Trace::from_points(vec![pt(10, 1.0, 1.0), pt(20, 2.0, 2.0)]);
        let lat_at = |t| tr.position_at(Timestamp::from_secs(t)).map(|p| p.lat());
        assert_eq!(lat_at(0), Some(1.0));
        assert_eq!(lat_at(10), Some(1.0));
        assert_eq!(lat_at(19), Some(1.0));
        assert_eq!(lat_at(20), Some(2.0));
        assert_eq!(lat_at(99), Some(2.0));
        assert_eq!(Trace::new().position_at(Timestamp::from_secs(0)), None);
    }

    #[test]
    fn duration_and_empty() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.duration_secs(), 0);
        let tr = Trace::from_points(vec![pt(10, 0.0, 0.0), pt(70, 0.0, 0.0)]);
        assert_eq!(tr.duration_secs(), 60);
    }

    #[test]
    fn path_length_accumulates() {
        // ~111.2 km per degree of latitude
        let tr = Trace::from_points(vec![pt(0, 0.0, 0.0), pt(1, 1.0, 0.0), pt(2, 2.0, 0.0)]);
        let len = tr.path_length_m();
        assert!((len - 2.0 * 111_195.0).abs() < 200.0, "len={len}");
    }

    #[test]
    fn split_by_gap_partitions_all_points() {
        let tr = Trace::from_points(vec![pt(0, 0.0, 0.0), pt(10, 0.0, 0.0), pt(500, 0.0, 0.0), pt(505, 0.0, 0.0)]);
        let parts = tr.split_by_gap(Seconds::new(60));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 2);
        let total: usize = parts.iter().map(Trace::len).sum();
        assert_eq!(total, tr.len());
    }

    #[test]
    fn split_no_gaps_is_identity() {
        let tr = Trace::from_points(vec![pt(0, 0.0, 0.0), pt(1, 0.0, 0.0)]);
        let parts = tr.split_by_gap(Seconds::new(10));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], tr);
    }

    #[test]
    fn bounding_box_covers_points() {
        let tr = Trace::from_points(vec![pt(0, 1.0, 2.0), pt(1, -1.0, 4.0)]);
        let bb = tr.bounding_box().unwrap();
        assert_eq!(bb.min_lat(), -1.0);
        assert_eq!(bb.max_lon(), 4.0);
    }

    #[test]
    fn collect_from_iterator() {
        let tr: Trace = vec![pt(3, 0.0, 0.0), pt(1, 0.0, 0.0)].into_iter().collect();
        assert_eq!(tr.first().unwrap().time.as_secs(), 1);
    }
}
