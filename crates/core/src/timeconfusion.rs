//! Time-to-confusion (Hoh et al., CCS 2007 / TMC 2010).
//!
//! An alternative privacy metric the paper surveys: instead of asking
//! what an adversary learns from histograms, ask for how long an
//! adversary can *continuously track* a user through the released stream
//! before another user's presence makes the link ambiguous. A release is
//! "confused" when at least `k` population members (including the target)
//! are plausibly at the released position; tracking time is the elapsed
//! time between confusion points.

use backwatch_geo::distance::Metric;
use backwatch_trace::Trace;

/// Result of a time-to-confusion analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeToConfusion {
    /// Mean uninterrupted tracking duration, seconds.
    pub mean_tracking_secs: f64,
    /// Longest uninterrupted tracking duration, seconds.
    pub max_tracking_secs: i64,
    /// Number of confusion events across the stream.
    pub confusion_events: usize,
    /// Number of released fixes analysed.
    pub fixes: usize,
}

/// Configuration of the tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TtcConfig {
    /// Radius within which another user is considered a plausible owner
    /// of the released fix, meters.
    pub confusion_radius_m: f64,
    /// Minimum number of plausible owners (target included) for a fix to
    /// count as confused. `2` is the classic definition.
    pub k: usize,
    /// Distance metric.
    pub metric: Metric,
}

impl Default for TtcConfig {
    fn default() -> Self {
        Self {
            confusion_radius_m: 250.0,
            k: 2,
            metric: Metric::Equirectangular,
        }
    }
}

/// Computes time-to-confusion for `released` (the target's stream seen by
/// the adversary) against the ground-truth movements of the `population`
/// (the other users the adversary could confuse the target with).
///
/// # Panics
///
/// Panics if `cfg.k == 0` or the radius is not positive.
#[must_use]
pub fn time_to_confusion(released: &Trace, population: &[&Trace], cfg: TtcConfig) -> TimeToConfusion {
    assert!(cfg.k >= 1, "k must be at least 1");
    assert!(
        cfg.confusion_radius_m > 0.0 && cfg.confusion_radius_m.is_finite(),
        "radius must be positive"
    );
    let mut segments: Vec<i64> = Vec::new();
    let mut segment_start: Option<i64> = None;
    let mut confusion_events = 0usize;

    for p in released.iter() {
        let t = p.time.as_secs();
        // the target itself is always a plausible owner
        let mut plausible = 1usize;
        for other in population {
            if let Some(pos) = other.position_at(p.time) {
                if cfg.metric.distance(pos, p.pos) <= cfg.confusion_radius_m {
                    plausible += 1;
                    if plausible >= cfg.k {
                        break;
                    }
                }
            }
        }
        if plausible >= cfg.k {
            // confusion: close the current tracking segment
            if let Some(start) = segment_start.take() {
                segments.push(t - start);
            }
            confusion_events += 1;
        } else if segment_start.is_none() {
            segment_start = Some(t);
        }
    }
    if let (Some(start), Some(last)) = (segment_start, released.last()) {
        segments.push(last.time.as_secs() - start);
    }

    let mean = if segments.is_empty() {
        0.0
    } else {
        segments.iter().sum::<i64>() as f64 / segments.len() as f64
    };
    TimeToConfusion {
        mean_tracking_secs: mean,
        max_tracking_secs: segments.into_iter().max().unwrap_or(0),
        confusion_events,
        fixes: released.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_geo::LatLon;
    use backwatch_trace::{Timestamp, TracePoint};

    fn line_trace(lat0: f64, n: i64) -> Trace {
        Trace::from_points(
            (0..n)
                .map(|i| {
                    TracePoint::new(
                        Timestamp::from_secs(i * 10),
                        LatLon::new(lat0 + i as f64 * 1e-4, 116.4).unwrap(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn lone_user_is_tracked_forever() {
        let target = line_trace(39.9, 100);
        let far = line_trace(39.0, 100); // 100 km away
        let ttc = time_to_confusion(&target, &[&far], TtcConfig::default());
        assert_eq!(ttc.confusion_events, 0);
        assert_eq!(ttc.max_tracking_secs, 99 * 10);
        assert!(ttc.mean_tracking_secs > 0.0);
    }

    #[test]
    fn co_moving_companion_confuses_every_fix() {
        let target = line_trace(39.9, 100);
        let companion = line_trace(39.9, 100); // identical route
        let ttc = time_to_confusion(&target, &[&companion], TtcConfig::default());
        assert_eq!(ttc.confusion_events, 100);
        assert_eq!(ttc.max_tracking_secs, 0);
        assert_eq!(ttc.mean_tracking_secs, 0.0);
    }

    #[test]
    fn crossing_paths_split_the_tracking() {
        // companion crosses the target's path in the middle
        let target = line_trace(39.9, 101);
        // companion sits exactly at the target's midpoint position the
        // whole time
        let mid = LatLon::new(39.9 + 50.0 * 1e-4, 116.4).unwrap();
        let companion = Trace::from_points((0..101).map(|i| TracePoint::new(Timestamp::from_secs(i * 10), mid)).collect());
        let ttc = time_to_confusion(&target, &[&companion], TtcConfig::default());
        assert!(ttc.confusion_events > 0, "paths cross near the midpoint");
        assert!(ttc.max_tracking_secs < 1000, "tracking must be broken by the crossing");
    }

    #[test]
    fn larger_k_requires_more_company() {
        let target = line_trace(39.9, 100);
        let companion = line_trace(39.9, 100);
        let cfg = TtcConfig {
            k: 3, // one companion is no longer enough
            ..TtcConfig::default()
        };
        let ttc = time_to_confusion(&target, &[&companion], cfg);
        assert_eq!(ttc.confusion_events, 0);
    }

    #[test]
    fn empty_release_is_trivially_safe() {
        let ttc = time_to_confusion(&Trace::new(), &[], TtcConfig::default());
        assert_eq!(ttc.fixes, 0);
        assert_eq!(ttc.mean_tracking_secs, 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let cfg = TtcConfig {
            k: 0,
            ..TtcConfig::default()
        };
        let _ = time_to_confusion(&Trace::new(), &[], cfg);
    }
}
