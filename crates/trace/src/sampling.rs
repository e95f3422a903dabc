//! Downsampling a trace to an app's location-access frequency.
//!
//! An app that updates location every `k` seconds observes the subsequence
//! of the true trace obtained by keeping one fix per `k`-second window.
//! [`downsample`] models exactly that; [`prefix_points`] and
//! [`from_random_start`] provide the growing-prefix and random-start views
//! used by the paper's Figure 4(a)/(b).

use crate::point::TracePoint;
use crate::trajectory::Trace;
use backwatch_geo::Seconds;
use rand::Rng;

/// Returns the subsequence of `trace` an app polling every
/// `interval_secs` seconds would collect: the first fix, then each next fix
/// at least `interval_secs` after the previously kept one.
///
/// An interval of `1` (or anything at or below the recording period) keeps
/// every fix.
///
/// # Panics
///
/// Panics if `interval_secs <= 0`.
///
/// # Examples
///
/// ```
/// use backwatch_trace::{sampling, Trace, TracePoint, Timestamp};
/// use backwatch_geo::{LatLon, Seconds};
///
/// let pts: Vec<TracePoint> = (0..10)
///     .map(|i| TracePoint::new(Timestamp::from_secs(i), LatLon::new(39.9, 116.4).unwrap()))
///     .collect();
/// let trace = Trace::from_points(pts);
/// let sampled = sampling::downsample(&trace, Seconds::new(3));
/// let times: Vec<i64> = sampled.iter().map(|p| p.time.as_secs()).collect();
/// assert_eq!(times, vec![0, 3, 6, 9]);
/// ```
#[must_use]
pub fn downsample(trace: &Trace, interval_secs: Seconds) -> Trace {
    let indices = downsample_indices(trace, interval_secs);
    let pts = trace.points();
    Trace::from_points(indices.iter().map(|&i| pts[i as usize]).collect())
}

/// The *indices* of the fixes [`downsample`] would keep — a zero-copy view
/// for callers that sweep many intervals over the same (large) trace and
/// don't want an owned clone per interval.
///
/// `downsample(trace, k)` is exactly `trace.points()[i]` for each returned
/// index `i`, in order.
///
/// # Panics
///
/// Panics if `interval_secs <= 0` or the trace has more than `u32::MAX`
/// fixes.
#[must_use]
pub fn downsample_indices(trace: &Trace, interval_secs: Seconds) -> Vec<u32> {
    downsample_indices_from_times(trace.iter().map(|p| p.time.as_secs()), interval_secs)
}

/// [`downsample_indices`] over any strictly-increasing timestamp sequence.
///
/// # Panics
///
/// Panics if `interval_secs <= 0` or the sequence has more than `u32::MAX`
/// entries.
pub fn downsample_indices_from_times<I>(times: I, interval_secs: Seconds) -> Vec<u32>
where
    I: IntoIterator<Item = i64>,
{
    let interval_secs = interval_secs.get();
    assert!(interval_secs > 0, "interval must be positive, got {interval_secs}");
    let mut kept = Vec::new();
    let mut next_due: Option<i64> = None;
    for (i, t) in times.into_iter().enumerate() {
        let due = match next_due {
            None => true,
            Some(due) => t >= due,
        };
        if due {
            kept.push(u32::try_from(i).expect("trace exceeds u32::MAX fixes"));
            next_due = Some(t + interval_secs);
        }
    }
    crate::obs::register();
    crate::obs::DOWNSAMPLE_CALLS.inc();
    crate::obs::DOWNSAMPLE_KEPT.add(kept.len() as u64);
    kept
}

/// The first `n` fixes of `trace` as a new trace (all of it if `n` exceeds
/// the length).
#[must_use]
pub fn prefix_points(trace: &Trace, n: usize) -> Trace {
    Trace::from_points(trace.points()[..n.min(trace.len())].to_vec())
}

/// The suffix of `trace` starting at fix index `start` (empty if `start`
/// is past the end).
#[must_use]
pub fn suffix_from(trace: &Trace, start: usize) -> Trace {
    if start >= trace.len() {
        return Trace::new();
    }
    Trace::from_points(trace.points()[start..].to_vec())
}

/// The trace re-based at a uniformly random starting fix, wrapping around:
/// `[start..end] ++ [begin..start]` with the wrapped part's timestamps
/// shifted to continue after the end. This models an adversary that begins
/// collecting at an arbitrary moment of the user's life (Figure 4(b)) while
/// preserving the total amount of data.
///
/// Returns a clone of the input for traces with fewer than two fixes.
#[must_use]
pub fn from_random_start<R: Rng + ?Sized>(trace: &Trace, rng: &mut R) -> Trace {
    if trace.len() < 2 {
        return trace.clone();
    }
    rotate_to_start(trace, random_start_index(trace.len(), rng))
}

/// The random start index [`from_random_start`] rotates to: uniform over
/// `0..len`, or `0` (without consuming the RNG) for fewer than two fixes.
/// Exposed so borrowed rotation views (see
/// [`crate::SoaProjectedTrace::rotated_from`]) can reproduce the owned
/// function's draw exactly.
pub fn random_start_index<R: Rng + ?Sized>(len: usize, rng: &mut R) -> usize {
    if len < 2 {
        0
    } else {
        rng.gen_range(0..len)
    }
}

/// Deterministic core of [`from_random_start`]: rotates the trace so
/// collection begins at fix index `start`.
///
/// # Panics
///
/// Panics if `start >= trace.len()` and the trace is non-empty. An empty
/// trace with `start == 0` is not an error: it returns an empty clone, so
/// zero-point inputs flow through the rotation path without panicking
/// (mirroring [`crate::SoaProjectedTrace::rotated_from`]).
#[must_use]
pub fn rotate_to_start(trace: &Trace, start: usize) -> Trace {
    if start == 0 {
        return trace.clone();
    }
    assert!(start < trace.len(), "start {start} out of range for {} points", trace.len());
    let pts = trace.points();
    // The bounds assert above makes an empty slice unreachable here
    // (start > 0 and start < len); losing the rotation beats panicking.
    let Some(last) = pts.last() else {
        return trace.clone();
    };
    let mut out = Vec::with_capacity(pts.len());
    out.extend_from_slice(&pts[start..]);
    // Shift the wrapped head to continue after the tail, preserving its
    // internal spacing and leaving a one-recording-period seam.
    let last_t = last.time.as_secs();
    let head_base = pts[0].time.as_secs();
    let seam = 1;
    for p in &pts[..start] {
        let mut q = *p;
        q.time = crate::point::Timestamp::from_secs(last_t + seam + (p.time.as_secs() - head_base));
        out.push(q);
    }
    Trace::from_points(out)
}

/// Iterator over growing prefixes of a trace in steps of `step` fixes:
/// `step, 2*step, …, len`. The final prefix is always the whole trace.
pub fn growing_prefixes(trace: &Trace, step: usize) -> impl Iterator<Item = Trace> + '_ {
    assert!(step > 0, "step must be positive");
    let len = trace.len();
    let mut sizes: Vec<usize> = (1..).map(|k| k * step).take_while(|&n| n < len).collect();
    sizes.push(len);
    sizes.into_iter().map(move |n| prefix_points(trace, n))
}

/// Models *foreground* collection: the user interacts with the app `n`
/// times at wall-clock moments drawn uniformly over the trace's span, and
/// the app receives one fix per interaction (the device's position at
/// that moment — the last recorded fix at or before it).
///
/// The paper's §III distinction is exactly this: foreground apps see
/// "discrete locations which lack the connection between any two of
/// them", while background apps see the continuous stream that
/// [`downsample`] models.
///
/// Returns at most `n` fixes (interactions in the same second collapse).
pub fn foreground_sessions<R: Rng + ?Sized>(trace: &Trace, n: usize, rng: &mut R) -> Trace {
    if n == 0 {
        return Trace::new();
    }
    let pts = trace.points();
    let (Some(first), Some(last)) = (pts.first(), pts.last()) else {
        return Trace::new(); // empty trace: no positions to deliver
    };
    let t0 = first.time.as_secs();
    let t1 = last.time.as_secs();
    let picked: Vec<TracePoint> = (0..n)
        .map(|_| {
            let t = if t1 > t0 { rng.gen_range(t0..=t1) } else { t0 };
            let idx = pts.partition_point(|p| p.time.as_secs() <= t);
            let pos = if idx == 0 { pts[0].pos } else { pts[idx - 1].pos };
            TracePoint::new(crate::point::Timestamp::from_secs(t), pos)
        })
        .collect();
    Trace::from_points(picked)
}

/// Downsamples exactly like [`downsample`] *and* reports the fraction of
/// the original trace's fixes that were kept, in `[0, 1]` (`0.0` for an
/// empty trace) — convenience for completeness ratios.
#[must_use]
pub fn downsample_with_ratio(trace: &Trace, interval_secs: Seconds) -> (Trace, f64) {
    let sampled = downsample(trace, interval_secs);
    let ratio = if trace.is_empty() {
        0.0
    } else {
        sampled.len() as f64 / trace.len() as f64
    };
    (sampled, ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Timestamp;
    use backwatch_geo::LatLon;

    fn pt(t: i64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(t), LatLon::new(39.9, 116.4).unwrap())
    }

    fn seq(times: &[i64]) -> Trace {
        Trace::from_points(times.iter().map(|&t| pt(t)).collect())
    }

    #[test]
    fn interval_one_keeps_everything() {
        let tr = seq(&[0, 1, 2, 3, 4]);
        assert_eq!(downsample(&tr, Seconds::new(1)).len(), 5);
    }

    #[test]
    fn interval_larger_than_span_keeps_first_only() {
        let tr = seq(&[0, 1, 2]);
        assert_eq!(downsample(&tr, Seconds::new(100)).len(), 1);
    }

    #[test]
    fn irregular_spacing_respects_interval() {
        let tr = seq(&[0, 5, 9, 10, 11, 30]);
        let times: Vec<i64> = downsample(&tr, Seconds::new(10)).iter().map(|p| p.time.as_secs()).collect();
        assert_eq!(times, vec![0, 10, 30]);
    }

    #[test]
    fn gaps_longer_than_interval_sample_immediately() {
        // recording gap of 7200s: the next recorded fix is kept
        let tr = seq(&[0, 1, 7200, 7201]);
        let times: Vec<i64> = downsample(&tr, Seconds::new(60)).iter().map(|p| p.time.as_secs()).collect();
        assert_eq!(times, vec![0, 7200]);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = downsample(&seq(&[0]), Seconds::ZERO);
    }

    #[test]
    fn prefix_and_suffix() {
        let tr = seq(&[0, 1, 2, 3]);
        assert_eq!(prefix_points(&tr, 2).len(), 2);
        assert_eq!(prefix_points(&tr, 99).len(), 4);
        assert_eq!(suffix_from(&tr, 3).len(), 1);
        assert!(suffix_from(&tr, 4).is_empty());
    }

    #[test]
    fn rotation_preserves_length_and_order() {
        let tr = seq(&[0, 10, 20, 30, 40]);
        let rot = rotate_to_start(&tr, 2);
        assert_eq!(rot.len(), 5);
        // starts at the old index-2 timestamp
        assert_eq!(rot.first().unwrap().time.as_secs(), 20);
        // strictly increasing throughout
        let times: Vec<i64> = rot.iter().map(|p| p.time.as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    }

    #[test]
    fn rotation_at_zero_is_identity() {
        let tr = seq(&[0, 1, 2]);
        assert_eq!(rotate_to_start(&tr, 0), tr);
    }

    #[test]
    fn rotation_of_empty_trace_is_empty_not_panic() {
        assert!(rotate_to_start(&Trace::new(), 0).is_empty());
    }

    #[test]
    fn rotation_of_one_point_trace_is_identity() {
        let tr = seq(&[7]);
        assert_eq!(rotate_to_start(&tr, 0), tr);
    }

    #[test]
    fn random_start_on_empty_and_singleton_clones() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        assert!(from_random_start(&Trace::new(), &mut rng).is_empty());
        let one = seq(&[3]);
        assert_eq!(from_random_start(&one, &mut rng), one);
    }

    #[test]
    fn random_start_deterministic_with_seed() {
        use rand::{rngs::StdRng, SeedableRng};
        let tr = seq(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let a = from_random_start(&tr, &mut StdRng::seed_from_u64(9));
        let b = from_random_start(&tr, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        assert_eq!(a.len(), tr.len());
    }

    #[test]
    fn growing_prefixes_end_with_full_trace() {
        let tr = seq(&[0, 1, 2, 3, 4, 5, 6]);
        let prefixes: Vec<Trace> = growing_prefixes(&tr, 3).collect();
        let sizes: Vec<usize> = prefixes.iter().map(Trace::len).collect();
        assert_eq!(sizes, vec![3, 6, 7]);
    }

    #[test]
    fn foreground_sessions_use_recorded_positions() {
        use rand::{rngs::StdRng, SeedableRng};
        let tr = seq(&[0, 10, 20, 30, 40]);
        let mut rng = StdRng::seed_from_u64(1);
        let fg = foreground_sessions(&tr, 5, &mut rng);
        assert!(fg.len() <= 5);
        assert!(!fg.is_empty());
        // every delivered position is one the device actually recorded
        for p in fg.iter() {
            assert!(tr.iter().any(|q| q.pos == p.pos));
            let t = p.time.as_secs();
            assert!((0..=40).contains(&t));
        }
    }

    #[test]
    fn foreground_sessions_edge_cases() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        assert!(foreground_sessions(&Trace::new(), 5, &mut rng).is_empty());
        assert!(foreground_sessions(&seq(&[0, 1]), 0, &mut rng).is_empty());
        // asking for more sessions than fixes caps at the trace length
        let fg = foreground_sessions(&seq(&[0, 1]), 100, &mut rng);
        assert!(fg.len() <= 2);
    }

    #[test]
    fn downsample_ratio() {
        let tr = seq(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let (s, r) = downsample_with_ratio(&tr, Seconds::new(5));
        assert_eq!(s.len(), 2);
        assert!((r - 0.2).abs() < 1e-12);
    }
}
