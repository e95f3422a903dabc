//! Frequency-impact measurement: the `PoI_total` / `PoI_sensitive`
//! metrics as functions of an app's access interval (Figure 3).

use crate::poi::{cluster_stays, match_against_truth, sensitive_counts, ExtractorParams, SpatioTemporalExtractor, Stay};
use backwatch_geo::Seconds;
use backwatch_trace::sampling;
use backwatch_trace::synth::UserTrace;
use backwatch_trace::SoaProjectedTrace;

/// The access intervals (seconds) swept by the paper's Figure 3/4/5
/// frequency axes.
pub const PAPER_INTERVALS: [i64; 10] = [1, 5, 10, 30, 60, 300, 600, 1800, 3600, 7200];

/// What one user's trace yields at one access interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyImpact {
    /// The app's polling interval, seconds.
    pub interval_s: i64,
    /// Fixes the app collected.
    pub collected_points: usize,
    /// PoI visits (stays) extracted from the collected fixes.
    pub stays: usize,
    /// Distinct places the stays cluster into.
    pub places: usize,
    /// Sensitive places at the paper's thresholds `[≤1, ≤2, ≤3]` visits.
    pub sensitive: [usize; 3],
    /// Recall against the user's ground-truth visits.
    pub recall: f64,
    /// Whether every eligible ground-truth visit was recovered.
    pub complete: bool,
}

/// Radius used to merge stays into places and to match stays against
/// ground truth, relative to the extraction radius.
const MATCH_RADIUS_FACTOR: f64 = 3.0;

/// Downsamples `user`'s trace to `interval`, extracts PoIs, and scores
/// them.
///
/// # Panics
///
/// Panics if `interval` is not positive.
#[must_use]
pub fn measure_at_interval(user: &UserTrace, interval: Seconds, params: ExtractorParams) -> FrequencyImpact {
    measure_projected(user, &SoaProjectedTrace::project(&user.trace), interval, params)
}

/// [`measure_at_interval`] on a trace that was already projected once —
/// the per-interval sweeps project each user a single time and reuse the
/// planar coordinates for every interval. `projected` must be the
/// projection of `user.trace`; results are identical to
/// [`measure_at_interval`].
#[must_use]
pub fn measure_projected(
    user: &UserTrace,
    projected: &SoaProjectedTrace,
    interval: Seconds,
    params: ExtractorParams,
) -> FrequencyImpact {
    let indices = sampling::downsample_indices_from_times(projected.times().iter().copied(), interval);
    let stays = SpatioTemporalExtractor::new(params).extract_sampled_soa(projected, &indices);
    impact_from_stays(user, interval, indices.len(), &stays, params)
}

/// Scores already-extracted stays: the clustering/matching half of
/// [`measure_at_interval`], for callers that computed the stays themselves
/// (the experiment pipeline extracts once per interval and reuses the
/// result here instead of extracting twice).
#[must_use]
pub fn impact_from_stays(
    user: &UserTrace,
    interval: Seconds,
    collected_points: usize,
    stays: &[Stay],
    params: ExtractorParams,
) -> FrequencyImpact {
    let match_radius = params.radius_m * MATCH_RADIUS_FACTOR;
    let places = cluster_stays(stays, match_radius, params.metric);
    let report = match_against_truth(stays, user, params.min_visit_secs, match_radius, params.metric);
    FrequencyImpact {
        interval_s: interval.get(),
        collected_points,
        stays: stays.len(),
        places: places.len(),
        sensitive: sensitive_counts(&places),
        recall: report.recall(),
        complete: report.complete(),
    }
}

/// Sweeps [`PAPER_INTERVALS`] for one user, projecting the trace once.
#[must_use]
pub fn sweep_intervals(user: &UserTrace, params: ExtractorParams) -> Vec<FrequencyImpact> {
    let projected = SoaProjectedTrace::project(&user.trace);
    PAPER_INTERVALS
        .iter()
        .map(|&i| measure_projected(user, &projected, Seconds::new(i), params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_trace::synth::{generate_user, SynthConfig};

    #[test]
    fn one_second_interval_collects_everything() {
        let user = generate_user(&SynthConfig::small(), 0);
        let m = measure_at_interval(&user, Seconds::new(1), ExtractorParams::paper_set1());
        assert_eq!(m.collected_points, user.trace.len());
        assert!(m.stays > 0);
        assert!(m.recall > 0.8, "recall {}", m.recall);
    }

    #[test]
    fn coarser_intervals_collect_fewer_points() {
        let user = generate_user(&SynthConfig::small(), 1);
        let sweep = sweep_intervals(&user, ExtractorParams::paper_set1());
        for w in sweep.windows(2) {
            assert!(w[1].collected_points <= w[0].collected_points);
        }
    }

    #[test]
    fn recall_degrades_from_first_to_last_interval() {
        let user = generate_user(&SynthConfig::small(), 2);
        let sweep = sweep_intervals(&user, ExtractorParams::paper_set1());
        let first = sweep.first().unwrap();
        let last = sweep.last().unwrap();
        assert!(first.recall > last.recall, "1 s {} vs 7200 s {}", first.recall, last.recall);
    }

    #[test]
    fn sensitive_counts_are_monotone_in_threshold() {
        let user = generate_user(&SynthConfig::small(), 3);
        let m = measure_at_interval(&user, Seconds::new(1), ExtractorParams::paper_set1());
        assert!(m.sensitive[0] <= m.sensitive[1]);
        assert!(m.sensitive[1] <= m.sensitive[2]);
        assert!(m.sensitive[2] <= m.places);
    }

    #[test]
    fn paper_intervals_are_sorted_and_span_the_paper_range() {
        assert!(PAPER_INTERVALS.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(PAPER_INTERVALS[0], 1);
        assert_eq!(*PAPER_INTERVALS.last().unwrap(), 7200);
    }
}
