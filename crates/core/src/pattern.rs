//! Profile representations: pattern 1 (region visits) and pattern 2
//! (movement patterns).
//!
//! Both profiles are count histograms over discrete keys derived from a
//! user's extracted stays, quantized on a shared [`Grid`] so that profiles
//! built from different observations of the same user (full trace vs an
//! app's collected subset) — and profiles of *different* users — are
//! directly comparable:
//!
//! - **Pattern 1** ⟨region, visited times⟩: one count per stay, keyed by
//!   the grid cell of the stay centroid. This is the representation prior
//!   work used.
//! - **Pattern 2** ⟨PoIᵢ → PoIⱼ, happen times⟩: one count per *transition*
//!   between consecutive stays in different cells. The paper argues this
//!   captures the habituation of movement and identifies users faster.

use crate::poi::Stay;
use backwatch_geo::{CellId, Grid};
use backwatch_stats::CountHistogram;
use std::fmt;

/// Which profile representation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Pattern 1: ⟨region, visited times⟩, weighted by occupancy — each
    /// stay contributes its dwell in half-hour blocks. This follows the
    /// region profiles of the prior work the paper compares against
    /// (Fawaz et al.), where how *long* a user is observed in a region is
    /// what the histogram captures. The heavy counts make the chi-square
    /// comparison statistically powerful: small proportional deviations
    /// keep rejecting the fit, so pattern 1 needs extensive data to match.
    RegionVisits,
    /// Pattern 1 ablation: one count per visit regardless of dwell.
    RegionVisitCounts,
    /// Pattern 2: ⟨movement pattern, happen times⟩ — one count per
    /// transition between consecutive stays in different regions.
    MovementPattern,
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PatternKind::RegionVisits => "pattern 1 (region visits)",
            PatternKind::RegionVisitCounts => "pattern 1 ablation (unweighted visits)",
            PatternKind::MovementPattern => "pattern 2 (movement patterns)",
        })
    }
}

/// A histogram key: a region or a directed region transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PatternKey {
    /// A visited region (pattern 1).
    Region(CellId),
    /// A movement from one region to another (pattern 2).
    Move(CellId, CellId),
}

/// A user profile: a count histogram over [`PatternKey`]s, built
/// incrementally from stays.
///
/// # Examples
///
/// ```
/// use backwatch_core::pattern::{PatternKind, Profile};
/// use backwatch_core::poi::Stay;
/// use backwatch_geo::{Grid, LatLon};
/// use backwatch_trace::Timestamp;
///
/// let grid = Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(250.0));
/// let stay = |lat: f64, t: i64| Stay {
///     centroid: LatLon::new(lat, 116.4).unwrap(),
///     enter: Timestamp::from_secs(t),
///     leave: Timestamp::from_secs(t + 900),
///     n_points: 900,
///     end_index: 0,
/// };
/// let mut p = Profile::new(PatternKind::MovementPattern);
/// p.observe_stay(&stay(39.90, 0), &grid);      // first stay: no transition yet
/// p.observe_stay(&stay(39.95, 10_000), &grid); // home -> elsewhere
/// assert_eq!(p.histogram().total(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    kind: PatternKind,
    hist: CountHistogram<PatternKey>,
    last_cell: Option<CellId>,
}

impl Profile {
    /// Creates an empty profile of the given kind.
    #[must_use]
    pub fn new(kind: PatternKind) -> Self {
        Self {
            kind,
            hist: CountHistogram::new(),
            last_cell: None,
        }
    }

    /// Builds a profile from a chronological stay sequence.
    #[must_use]
    pub fn from_stays(kind: PatternKind, stays: &[Stay], grid: &Grid) -> Self {
        let mut p = Self::new(kind);
        for s in stays {
            p.observe_stay(s, grid);
        }
        p
    }

    /// Feeds the next chronological stay into the profile.
    ///
    /// Pattern 1 adds the stay's dwell (in half-hour blocks, at least one)
    /// to its region; the unweighted ablation adds one count. Pattern 2
    /// counts the transition from the previous stay's region when the
    /// region changed; same-region consecutive stays (an extraction
    /// artifact of one long visit) are not self-transitions.
    pub fn observe_stay(&mut self, stay: &Stay, grid: &Grid) {
        let cell = grid.cell_of(stay.centroid);
        match self.kind {
            PatternKind::RegionVisits => {
                let blocks = (stay.dwell_secs().max(0) as u64 / 1800).max(1);
                self.hist.add_n(PatternKey::Region(cell), blocks);
            }
            PatternKind::RegionVisitCounts => {
                self.hist.add(PatternKey::Region(cell));
            }
            PatternKind::MovementPattern => {
                if let Some(prev) = self.last_cell {
                    if prev != cell {
                        self.hist.add(PatternKey::Move(prev, cell));
                    }
                }
            }
        }
        self.last_cell = Some(cell);
    }

    /// The profile's kind.
    #[must_use]
    pub fn kind(&self) -> PatternKind {
        self.hist_kind()
    }

    fn hist_kind(&self) -> PatternKind {
        self.kind
    }

    /// The underlying histogram.
    #[must_use]
    pub fn histogram(&self) -> &CountHistogram<PatternKey> {
        &self.hist
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hist.len()
    }

    /// Whether no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_geo::LatLon;
    use backwatch_trace::Timestamp;

    fn grid() -> Grid {
        Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(250.0))
    }

    fn stay(lat: f64, lon: f64, t: i64) -> Stay {
        Stay {
            centroid: LatLon::new(lat, lon).unwrap(),
            enter: Timestamp::from_secs(t),
            leave: Timestamp::from_secs(t + 900),
            n_points: 900,
            end_index: 0,
        }
    }

    #[test]
    fn pattern1_counts_every_stay() {
        let g = grid();
        let stays = vec![
            stay(39.90, 116.40, 0),
            stay(39.95, 116.45, 10_000),
            stay(39.90, 116.40, 20_000),
        ];
        let p = Profile::from_stays(PatternKind::RegionVisits, &stays, &g);
        assert_eq!(p.histogram().total(), 3);
        assert_eq!(p.len(), 2, "two distinct regions");
    }

    #[test]
    fn pattern2_counts_transitions_only() {
        let g = grid();
        let stays = vec![
            stay(39.90, 116.40, 0),
            stay(39.95, 116.45, 10_000),
            stay(39.90, 116.40, 20_000),
        ];
        let p = Profile::from_stays(PatternKind::MovementPattern, &stays, &g);
        // A -> B, B -> A
        assert_eq!(p.histogram().total(), 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn pattern2_transitions_are_directed() {
        let g = grid();
        let a = stay(39.90, 116.40, 0);
        let b = stay(39.95, 116.45, 10_000);
        let mut p = Profile::new(PatternKind::MovementPattern);
        p.observe_stay(&a, &g);
        p.observe_stay(&b, &g);
        let cell_a = g.cell_of(a.centroid);
        let cell_b = g.cell_of(b.centroid);
        assert_eq!(p.histogram().count(&PatternKey::Move(cell_a, cell_b)), 1);
        assert_eq!(p.histogram().count(&PatternKey::Move(cell_b, cell_a)), 0);
    }

    #[test]
    fn pattern2_skips_self_transitions() {
        let g = grid();
        // two stays in the same cell (a fragmented long visit)
        let stays = vec![stay(39.9000, 116.4000, 0), stay(39.9001, 116.4001, 10_000)];
        let p = Profile::from_stays(PatternKind::MovementPattern, &stays, &g);
        assert!(p.is_empty());
    }

    #[test]
    fn repeated_commute_accumulates_counts() {
        let g = grid();
        let mut stays = Vec::new();
        for day in 0..5i64 {
            stays.push(stay(39.90, 116.40, day * 86_400));
            stays.push(stay(39.95, 116.45, day * 86_400 + 30_000));
        }
        let p = Profile::from_stays(PatternKind::MovementPattern, &stays, &g);
        let home = g.cell_of(LatLon::new(39.90, 116.40).unwrap());
        let work = g.cell_of(LatLon::new(39.95, 116.45).unwrap());
        assert_eq!(p.histogram().count(&PatternKey::Move(home, work)), 5);
        assert_eq!(p.histogram().count(&PatternKey::Move(work, home)), 4);
    }

    #[test]
    fn incremental_equals_batch() {
        let g = grid();
        let stays: Vec<Stay> = (0..10)
            .map(|i| stay(39.90 + (i % 3) as f64 * 0.05, 116.40, i64::from(i) * 10_000))
            .collect();
        for kind in [PatternKind::RegionVisits, PatternKind::MovementPattern] {
            let batch = Profile::from_stays(kind, &stays, &g);
            let mut inc = Profile::new(kind);
            for s in &stays {
                inc.observe_stay(s, &g);
            }
            assert_eq!(batch, inc);
        }
    }

    #[test]
    fn empty_profile_reports_kind() {
        let p = Profile::new(PatternKind::RegionVisits);
        assert!(p.is_empty());
        assert_eq!(p.kind(), PatternKind::RegionVisits);
        assert_eq!(PatternKind::MovementPattern.to_string(), "pattern 2 (movement patterns)");
    }
}
