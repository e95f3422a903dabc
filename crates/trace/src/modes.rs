//! Transportation-mode segmentation (after Zheng et al., *Understanding
//! transportation modes based on GPS data*, cited by the paper as \[36\]).
//!
//! Speed-based classification of a trace into still/walk/bike/vehicle
//! segments. The thresholds follow the Geolife line of work; speeds are
//! smoothed over a rolling time window before classification so single
//! noisy hops do not fragment segments.

use crate::point::Timestamp;
use crate::trajectory::Trace;
use backwatch_geo::distance::Metric;
use backwatch_geo::Seconds;
use std::fmt;

/// A coarse transportation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportMode {
    /// Not moving (dwell).
    Still,
    /// Walking pace.
    Walk,
    /// Cycling pace.
    Bike,
    /// Motorized transport.
    Vehicle,
}

impl TransportMode {
    /// Classifies a smoothed speed in m/s.
    #[must_use]
    pub fn from_speed(speed_mps: f64) -> Self {
        if speed_mps < 0.4 {
            TransportMode::Still
        } else if speed_mps < 2.2 {
            TransportMode::Walk
        } else if speed_mps < 6.5 {
            TransportMode::Bike
        } else {
            TransportMode::Vehicle
        }
    }
}

impl fmt::Display for TransportMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportMode::Still => "still",
            TransportMode::Walk => "walk",
            TransportMode::Bike => "bike",
            TransportMode::Vehicle => "vehicle",
        })
    }
}

/// A maximal run of consecutive fixes classified as one mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSegment {
    /// The segment's mode.
    pub mode: TransportMode,
    /// First fix time.
    pub start: Timestamp,
    /// Last fix time.
    pub end: Timestamp,
    /// Fixes in the segment.
    pub n_points: usize,
    /// Mean smoothed speed over the segment, m/s.
    pub mean_speed_mps: f64,
}

impl ModeSegment {
    /// Segment duration in seconds.
    #[must_use]
    pub fn duration_secs(&self) -> i64 {
        self.end - self.start
    }
}

/// Segments a trace into transport modes.
///
/// Per-hop speeds are averaged over a trailing `smooth` window; each
/// fix is classified from the smoothed speed and consecutive fixes of the
/// same mode merge into segments. Traces with fewer than two fixes yield
/// no segments.
///
/// # Panics
///
/// Panics if `smooth` is shorter than one second.
#[must_use]
pub fn segment_modes(trace: &Trace, smooth: Seconds) -> Vec<ModeSegment> {
    let smooth_secs = smooth.get();
    assert!(smooth_secs >= 1, "smoothing window must be at least 1 s");
    let pts = trace.points();
    if pts.len() < 2 {
        return Vec::new();
    }
    let metric = Metric::Equirectangular;
    // distance and elapsed time of each hop i -> i+1
    let hops: Vec<(f64, i64)> = pts
        .windows(2)
        .map(|w| (metric.distance(w[0].pos, w[1].pos), w[1].time - w[0].time))
        .collect();

    // trailing-window smoothed speed for the fix *ending* each hop
    let mut smoothed: Vec<f64> = Vec::with_capacity(hops.len());
    let mut window_start = 0usize;
    let mut dist_acc = 0.0;
    let mut time_acc = 0i64;
    for (i, &(d, dt)) in hops.iter().enumerate() {
        dist_acc += d;
        time_acc += dt;
        while time_acc > smooth_secs && window_start < i {
            dist_acc -= hops[window_start].0;
            time_acc -= hops[window_start].1;
            window_start += 1;
        }
        smoothed.push(if time_acc > 0 { dist_acc / time_acc as f64 } else { 0.0 });
    }

    // merge consecutive fixes of equal mode
    let mut segments: Vec<ModeSegment> = Vec::new();
    for (i, &speed) in smoothed.iter().enumerate() {
        let mode = TransportMode::from_speed(speed);
        let t = pts[i + 1].time;
        match segments.last_mut() {
            Some(seg) if seg.mode == mode => {
                seg.end = t;
                seg.n_points += 1;
                seg.mean_speed_mps += (speed - seg.mean_speed_mps) / seg.n_points as f64;
            }
            _ => segments.push(ModeSegment {
                mode,
                start: pts[i].time,
                end: t,
                n_points: 2,
                mean_speed_mps: speed,
            }),
        }
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::TracePoint;
    use backwatch_geo::LatLon;

    /// Build a 1 Hz trace moving north at `speed` m/s for `secs`.
    fn moving(t0: i64, secs: i64, lat0: f64, speed: f64) -> Vec<TracePoint> {
        let deg_per_m = 1.0 / 111_195.0;
        (0..secs)
            .map(|i| {
                TracePoint::new(
                    Timestamp::from_secs(t0 + i),
                    LatLon::new(lat0 + i as f64 * speed * deg_per_m, 116.4).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(TransportMode::from_speed(0.0), TransportMode::Still);
        assert_eq!(TransportMode::from_speed(1.4), TransportMode::Walk);
        assert_eq!(TransportMode::from_speed(4.0), TransportMode::Bike);
        assert_eq!(TransportMode::from_speed(15.0), TransportMode::Vehicle);
    }

    #[test]
    fn pure_walk_is_one_segment() {
        let trace = Trace::from_points(moving(0, 300, 39.9, 1.4));
        let segs = segment_modes(&trace, Seconds::new(30));
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].mode, TransportMode::Walk);
        assert_eq!(segs[0].duration_secs(), 299);
        assert!((segs[0].mean_speed_mps - 1.4).abs() < 0.1);
    }

    #[test]
    fn dwell_then_drive_yields_two_segments() {
        let mut pts = moving(0, 300, 39.9, 0.0);
        pts.extend(moving(300, 300, 39.9, 12.0));
        let segs = segment_modes(&Trace::from_points(pts), Seconds::new(30));
        let modes: Vec<TransportMode> = segs.iter().map(|s| s.mode).collect();
        assert!(modes.starts_with(&[TransportMode::Still]));
        assert_eq!(*modes.last().unwrap(), TransportMode::Vehicle);
        // transition may include a brief walk/bike ramp from smoothing
        assert!(segs.len() <= 4, "{segs:?}");
    }

    #[test]
    fn smoothing_suppresses_threshold_jitter() {
        // hop speeds alternating around the walk/bike threshold: without
        // smoothing the classifier flip-flops; a 30 s window sees the
        // stable mean (1.85 m/s = walk)
        let deg_per_m = 1.0 / 111_195.0;
        let mut lat = 39.9;
        let pts: Vec<TracePoint> = (0..200)
            .map(|i| {
                let speed = if i % 2 == 0 { 1.2 } else { 2.5 };
                lat += speed * deg_per_m;
                TracePoint::new(Timestamp::from_secs(i), LatLon::new(lat, 116.4).unwrap())
            })
            .collect();
        let trace = Trace::from_points(pts);
        let rough = segment_modes(&trace, Seconds::new(1));
        let smooth = segment_modes(&trace, Seconds::new(30));
        assert!(rough.len() > 20, "unsmoothed flip-flops: {} segments", rough.len());
        assert!(smooth.len() <= 2, "smoothed: {smooth:?}");
        assert_eq!(smooth.last().unwrap().mode, TransportMode::Walk);
    }

    #[test]
    fn segments_partition_the_trace_in_time() {
        let mut pts = moving(0, 200, 39.9, 1.0);
        pts.extend(moving(200, 200, 39.9 + 0.0018, 5.0));
        pts.extend(moving(400, 200, 39.9 + 0.0108, 0.0));
        let trace = Trace::from_points(pts);
        let segs = segment_modes(&trace, Seconds::new(20));
        assert_eq!(segs.first().unwrap().start, trace.first().unwrap().time);
        assert_eq!(segs.last().unwrap().end, trace.last().unwrap().time);
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments must be contiguous");
        }
    }

    #[test]
    fn tiny_traces_have_no_segments() {
        assert!(segment_modes(&Trace::new(), Seconds::new(30)).is_empty());
        let one = Trace::from_points(moving(0, 1, 39.9, 1.0));
        assert!(segment_modes(&one, Seconds::new(30)).is_empty());
    }
}
