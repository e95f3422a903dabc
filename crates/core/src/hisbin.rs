//! The `His_bin` metric: does the histogram built from collected data fit
//! the user's profile?
//!
//! The paper compares the two histograms with a Pearson chi-square
//! goodness-of-fit test at p = 0.05 (§IV-B Formula 1, §IV-C). The printed
//! formula is not usable verbatim (it is unsquared and tests a tail that
//! degenerates for partial data — see DESIGN.md), so this module provides
//! two rules:
//!
//! - [`MatchRule::ScaledUpperTail`] (default reconstruction): the observed
//!   counts are scaled up to the profile's total and compared cell-wise to
//!   the raw profile counts; the histograms *match* when the statistic
//!   stays below the upper-tail critical value at α. Early in a
//!   collection, the scaled-up histogram deviates wildly (whole regions of
//!   the profile unseen) and no match is declared; as coverage grows the
//!   statistic collapses and the match fires — the dynamics of Figure 4.
//! - [`MatchRule::PaperLowerTail`]: the literal reading (raw expected
//!   counts, match when the statistic clears the lower-tail critical
//!   value), kept for comparison.
//!
//! `His_bin = 1` ("the release is unsecure") when the histograms match.

use crate::pattern::Profile;
use backwatch_stats::chi2;
use std::cell::RefCell;
use std::collections::HashMap;

/// The binary histogram-fit metric of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HisBin {
    /// `His_bin = 0`: collected data does not reveal the profile.
    Safe,
    /// `His_bin = 1`: collected data fits the profile — privacy leak.
    Leaky,
}

impl HisBin {
    /// The paper's 0/1 encoding.
    #[must_use]
    pub fn as_bit(&self) -> u8 {
        match self {
            HisBin::Safe => 0,
            HisBin::Leaky => 1,
        }
    }

    /// Whether this is the leaky outcome.
    #[must_use]
    pub fn is_leaky(&self) -> bool {
        *self == HisBin::Leaky
    }
}

/// How the chi-square comparison is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatchRule {
    /// Reconstruction (default): scale observed counts to the profile
    /// total; match when the upper-tail test *fails to reject*.
    #[default]
    ScaledUpperTail,
    /// Literal paper text: raw profile counts as expected values; match
    /// when the statistic exceeds the lower-tail critical value at α.
    PaperLowerTail,
}

/// Outcome of one His_bin comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchOutcome {
    /// The binary metric.
    pub his_bin: HisBin,
    /// The chi-square statistic.
    pub statistic: f64,
    /// Degrees of freedom used.
    pub df: f64,
}

/// A configured His_bin matcher.
///
/// # Examples
///
/// ```
/// use backwatch_core::hisbin::Matcher;
/// use backwatch_core::pattern::{PatternKind, Profile};
///
/// let matcher = Matcher::paper();
/// let empty = Profile::new(PatternKind::RegionVisits);
/// // nothing collected, nothing leaked
/// assert!(!matcher.compare(&empty, &empty).his_bin.is_leaky());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matcher {
    alpha: f64,
    rule: MatchRule,
    /// Expected-count floor substituted for categories the profile lacks.
    floor: f64,
}

impl Default for Matcher {
    fn default() -> Self {
        Self::paper()
    }
}

impl Matcher {
    /// The paper's configuration: α = 0.05 with the default reconstruction
    /// rule.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(0.05, MatchRule::ScaledUpperTail)
    }

    /// A matcher with explicit significance level and rule.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1)`.
    #[must_use]
    pub fn new(alpha: f64, rule: MatchRule) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1), got {alpha}");
        crate::obs::register();
        Self { alpha, rule, floor: 0.5 }
    }

    /// The configured significance level.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The configured rule.
    #[must_use]
    pub fn rule(&self) -> MatchRule {
        self.rule
    }

    /// Compares the histogram built from collected data (`observed`)
    /// against the user's `profile`.
    ///
    /// Degenerate cases: an empty observation or an empty profile is
    /// always [`HisBin::Safe`]; a single shared category with data on both
    /// sides is trivially [`HisBin::Leaky`].
    ///
    /// # Panics
    ///
    /// Panics if the two profiles are of different [`crate::pattern::PatternKind`]s —
    /// comparing region histograms to transition histograms is a logic
    /// error.
    #[must_use]
    pub fn compare(&self, observed: &Profile, profile: &Profile) -> MatchOutcome {
        assert_eq!(
            observed.kind(),
            profile.kind(),
            "cannot compare profiles of different pattern kinds"
        );
        crate::obs::HISBIN_COMPARES.inc();
        let n_obs = observed.histogram().total();
        let n_prof = profile.histogram().total();
        if n_obs == 0 || n_prof == 0 {
            return MatchOutcome {
                his_bin: HisBin::Safe,
                statistic: f64::INFINITY,
                df: 0.0,
            };
        }
        // One merge pass over the key union finds the shared support, the
        // category count and the Pearson sum. The reconstruction scales the
        // observed counts up to the profile total; the literal rule compares
        // raw counts (a scale of exactly 1, so `o * scale` is `o`).
        let scale = match self.rule {
            MatchRule::ScaledUpperTail => n_prof as f64 / n_obs as f64,
            MatchRule::PaperLowerTail => 1.0,
        };
        let mut shares_support = false;
        let mut categories = 0usize;
        let mut statistic = 0.0;
        for (o, e) in observed.histogram().union_counts(profile.histogram()) {
            shares_support |= o > 0 && e > 0;
            categories += 1;
            let e = (e as f64).max(self.floor);
            let d = o as f64 * scale - e;
            statistic += d * d / e;
        }
        // Zero shared support can never indicate the profile, however the
        // chi-square arithmetic works out for tiny histograms.
        if !shares_support {
            return MatchOutcome {
                his_bin: HisBin::Safe,
                statistic: f64::INFINITY,
                df: 0.0,
            };
        }
        if categories < 2 {
            // one shared category with observations on both sides: the
            // trivial profile is trivially revealed
            return MatchOutcome {
                his_bin: HisBin::Leaky,
                statistic: 0.0,
                df: 0.0,
            };
        }
        let df = (categories - 1) as f64;
        let matches = match self.rule {
            MatchRule::ScaledUpperTail => statistic <= critical_value(1.0 - self.alpha, df),
            MatchRule::PaperLowerTail => statistic >= critical_value(self.alpha, df),
        };
        MatchOutcome {
            his_bin: if matches { HisBin::Leaky } else { HisBin::Safe },
            statistic,
            df,
        }
    }
}

/// `chi2::inverse_cdf(p, df)`, memoized per thread.
///
/// The quantile is a bisection over the incomplete gamma function, while a
/// run needs only a few hundred distinct (p, df) pairs across millions of
/// comparisons. Each entry is the function's own result for the same bit
/// patterns, so a hit returns exactly what a fresh call would. The table
/// is per thread, so workers never contend for it.
fn critical_value(p: f64, df: f64) -> f64 {
    thread_local! {
        static TABLE: RefCell<HashMap<(u64, u64), f64>> = RefCell::new(HashMap::new());
    }
    TABLE.with(|table| {
        *table.borrow_mut().entry((p.to_bits(), df.to_bits())).or_insert_with(|| {
            crate::obs::HISBIN_CRITICAL_EVALS.inc();
            chi2::inverse_cdf(p, df)
        })
    })
}

/// Result of the incremental detector: how much collected data the
/// adversary needed before `His_bin` flipped to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Fraction of the collected trace's fixes that had been seen when the
    /// match fired (the x-axis of Figure 4(a)/(b)).
    pub fraction_of_points: f64,
    /// Absolute number of fixes seen.
    pub points_needed: usize,
    /// Number of extracted stays seen.
    pub stays_needed: usize,
}

/// Replays `stays` (extracted from a trace of `trace_len` fixes) in
/// chronological order, growing the observed histogram one stay at a time,
/// and reports the first moment the matcher declares a leak against
/// `profile`.
///
/// Returns `None` if the match never fires over the full collection.
///
/// # Panics
///
/// Panics if `trace_len == 0` while `stays` is non-empty.
#[must_use]
pub fn detect_incremental(
    stays: &[crate::poi::Stay],
    trace_len: usize,
    grid: &backwatch_geo::Grid,
    kind: crate::pattern::PatternKind,
    matcher: &Matcher,
    profile: &Profile,
) -> Option<Detection> {
    if !stays.is_empty() {
        assert!(trace_len > 0, "a non-empty stay list implies a non-empty trace");
    }
    let mut observed = Profile::new(kind);
    for (i, stay) in stays.iter().enumerate() {
        observed.observe_stay(stay, grid);
        if matcher.compare(&observed, profile).his_bin.is_leaky() {
            let points = (stay.end_index + 1).min(trace_len);
            return Some(Detection {
                fraction_of_points: points as f64 / trace_len as f64,
                points_needed: points,
                stays_needed: i + 1,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use crate::poi::Stay;
    use backwatch_geo::{Grid, LatLon};
    use backwatch_trace::Timestamp;

    fn grid() -> Grid {
        Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(250.0))
    }

    fn stay(lat: f64, lon: f64, t: i64, end_index: usize) -> Stay {
        Stay {
            centroid: LatLon::new(lat, lon).unwrap(),
            enter: Timestamp::from_secs(t),
            leave: Timestamp::from_secs(t + 900),
            n_points: 900,
            end_index,
        }
    }

    /// A routine of `days` days: home, work, and an occasional third place.
    fn routine(days: i64) -> Vec<Stay> {
        let mut out = Vec::new();
        let mut idx = 0;
        for d in 0..days {
            let t0 = d * 86_400;
            out.push(stay(39.90, 116.40, t0, idx * 1000 + 999));
            idx += 1;
            out.push(stay(39.95, 116.45, t0 + 30_000, idx * 1000 + 999));
            idx += 1;
            if d % 3 == 0 {
                out.push(stay(39.92, 116.48, t0 + 60_000, idx * 1000 + 999));
                idx += 1;
            }
            out.push(stay(39.90, 116.40, t0 + 70_000, idx * 1000 + 999));
            idx += 1;
        }
        out
    }

    #[test]
    fn identical_full_histograms_match() {
        let g = grid();
        let stays = routine(10);
        for kind in [PatternKind::RegionVisits, PatternKind::MovementPattern] {
            let profile = Profile::from_stays(kind, &stays, &g);
            let outcome = Matcher::paper().compare(&profile, &profile);
            assert!(outcome.his_bin.is_leaky(), "{kind}: full data must match itself");
        }
    }

    #[test]
    fn single_stay_does_not_match_a_rich_profile() {
        let g = grid();
        let stays = routine(10);
        let profile = Profile::from_stays(PatternKind::RegionVisits, &stays, &g);
        let observed = Profile::from_stays(PatternKind::RegionVisits, &stays[..1], &g);
        let outcome = Matcher::paper().compare(&observed, &profile);
        assert!(!outcome.his_bin.is_leaky(), "one stay cannot reveal a 10-day profile");
    }

    #[test]
    fn anothers_profile_does_not_match() {
        let g = grid();
        let mine = routine(10);
        // a user with entirely different places
        let theirs: Vec<Stay> = routine(10)
            .into_iter()
            .map(|mut s| {
                s.centroid = LatLon::new(s.centroid.lat() - 0.3, s.centroid.lon() + 0.3).unwrap();
                s
            })
            .collect();
        for kind in [PatternKind::RegionVisits, PatternKind::MovementPattern] {
            let my_profile = Profile::from_stays(kind, &mine, &g);
            let their_data = Profile::from_stays(kind, &theirs, &g);
            let outcome = Matcher::paper().compare(&their_data, &my_profile);
            assert!(!outcome.his_bin.is_leaky(), "{kind}: disjoint lives must not match");
        }
    }

    #[test]
    fn empty_observation_is_safe() {
        let g = grid();
        let profile = Profile::from_stays(PatternKind::RegionVisits, &routine(5), &g);
        let empty = Profile::new(PatternKind::RegionVisits);
        assert!(!Matcher::paper().compare(&empty, &profile).his_bin.is_leaky());
        assert!(!Matcher::paper().compare(&profile, &empty).his_bin.is_leaky());
    }

    #[test]
    #[should_panic(expected = "different pattern kinds")]
    fn kind_mismatch_panics() {
        let a = Profile::new(PatternKind::RegionVisits);
        let b = Profile::new(PatternKind::MovementPattern);
        let _ = Matcher::paper().compare(&a, &b);
    }

    #[test]
    fn incremental_detection_fires_before_full_data() {
        let g = grid();
        let stays = routine(20);
        let trace_len = 100_000;
        for kind in [PatternKind::RegionVisits, PatternKind::MovementPattern] {
            let profile = Profile::from_stays(kind, &stays, &g);
            let det = detect_incremental(&stays, trace_len, &g, kind, &Matcher::paper(), &profile)
                .unwrap_or_else(|| panic!("{kind}: full replay must eventually match"));
            assert!(det.fraction_of_points <= 1.0);
            assert!(det.stays_needed <= stays.len());
            assert!(det.stays_needed > 1, "{kind}: must not fire on the first stay");
        }
    }

    #[test]
    fn detection_monotone_in_detail() {
        // the detector needs fewer stays against a 5-day profile than the
        // stay count of the full 5 days
        let g = grid();
        let stays = routine(5);
        let profile = Profile::from_stays(PatternKind::MovementPattern, &stays, &g);
        let det = detect_incremental(&stays, 50_000, &g, PatternKind::MovementPattern, &Matcher::paper(), &profile)
            .expect("must match");
        assert!(det.stays_needed < stays.len());
    }

    #[test]
    fn paper_lower_tail_rule_is_available() {
        let g = grid();
        let stays = routine(10);
        let profile = Profile::from_stays(PatternKind::RegionVisits, &stays, &g);
        let m = Matcher::new(0.05, MatchRule::PaperLowerTail);
        // the literal rule degenerates to an early match (documented), but
        // it must at least run and be deterministic
        let o1 = m.compare(&profile, &profile);
        let o2 = m.compare(&profile, &profile);
        assert_eq!(o1, o2);
        assert_eq!(m.rule(), MatchRule::PaperLowerTail);
    }

    #[test]
    fn memoized_critical_values_follow_alpha_and_tail() {
        // The tail probabilities of α = 0.05 and 0.01 under both rules,
        // interleaved on one thread: a memo keyed by df alone would hand
        // one configuration another's quantile.
        let tails = [0.95, 0.99, 0.05, 0.01];
        for round in 0..2 {
            for df in 1..=512u32 {
                let df = f64::from(df);
                for p in tails {
                    assert_eq!(
                        critical_value(p, df).to_bits(),
                        chi2::inverse_cdf(p, df).to_bits(),
                        "round {round}, p {p}, df {df}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_detection_when_profiles_disjoint() {
        let g = grid();
        let mine = routine(10);
        let theirs: Vec<Stay> = mine
            .iter()
            .map(|s| Stay {
                centroid: LatLon::new(s.centroid.lat() - 0.3, s.centroid.lon() + 0.3).unwrap(),
                ..*s
            })
            .collect();
        let profile = Profile::from_stays(PatternKind::RegionVisits, &mine, &g);
        let det = detect_incremental(&theirs, 100_000, &g, PatternKind::RegionVisits, &Matcher::paper(), &profile);
        assert!(det.is_none());
    }
}
