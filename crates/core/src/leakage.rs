//! Traffic-leakage observation channel: coordinates exfiltrated at
//! reduced precision.
//!
//! Network traffic often carries a *degraded* copy of the location
//! stream — coordinates truncated to d decimal digits, reported every i
//! seconds (arXiv 1812.04829 direction). This module models that channel
//! from the adversary's side: [`observe`] is the lossy channel itself
//! (sample, then truncate), and [`LeakageAdversary`] is a containment
//! attacker whose candidate sets are *provably* monotone in both knobs.
//!
//! # Monotone containment model
//!
//! Decimal truncation at precision d is exactly the projection of a
//! coordinate onto the grid cell `floor(x·10^d)`. The adversary stores,
//! per enrolled user, the set of cells the user's full trace covers at
//! the finest precision ([`MAX_DECIMALS`]); coarser precisions are
//! derived by *integer division*, so the projection chain
//! `cells(d) = cells(d+1) div 10` holds exactly — no floating-point
//! re-rounding. Enrollment builds every level of that chain once; a
//! user is a candidate for an observed fix set iff their cell set at
//! the channel's precision contains every observed cell.
//!
//! Monotonicity then holds by construction:
//!
//! - **Precision**: projection preserves containment (`A ⊇ B` implies
//!   `π(A) ⊇ π(B)`), so coarsening can only *add* candidates — the
//!   degree of anonymity is non-increasing as d grows.
//! - **Interval**: sampling at interval i keeps the fixes at residue-0
//!   instants `t0 + m·i`, so for `i' = c·i` the i'-sample is a subset of
//!   the i-sample; observing fewer fixes can only add candidates — the
//!   degree is non-increasing as i shrinks (along divisor chains).
//! - The true user is always a candidate: the observed fixes come from
//!   their own trace, so the observed cells are a subset of their set.
//!
//! The last point needs the floor taken on the decimal lattice as floats
//! represent it: the cell of `x` at d decimals is the largest `k` with
//! `k / 10^d <= x` (division as computed), not `floor(x·10^d)`, whose
//! product can round across an integer (`39.98·100` is
//! `3997.9999999999995`). So a truncated coordinate is a fixed point of
//! truncation, and its cells at every precision are the ones the
//! original fix had.
//!
//! At d=0 every fix in a city-sized area collapses to one whole-degree
//! cell and the candidate set is the whole population (degree 1); with
//! [`Precision::Lossless`] and interval 1 the channel is the identity and
//! the downstream pipeline is bit-identical to the baseline.

use backwatch_geo::{LatLon, Seconds};
use backwatch_trace::{Trace, TracePoint};

/// Finest decimal precision the containment adversary distinguishes.
///
/// 4 decimal digits ≈ 11 m cells — below the extractor's 50 m PoI
/// radius, so nothing coarser than the baseline pipeline resolves is
/// lost, while per-user cell sets stay small enough to hold for a whole
/// population.
pub const MAX_DECIMALS: u8 = 4;

/// Coordinate precision carried by the leaked traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Coordinates truncated to this many decimal digits (0 ≤ d ≤ 9).
    Decimals(u8),
    /// Full-precision coordinates: the identity channel.
    Lossless,
}

impl Precision {
    /// The decimal-digit count, `None` for the lossless channel.
    #[must_use]
    pub fn decimals(self) -> Option<u8> {
        match self {
            Self::Decimals(d) => Some(d),
            Self::Lossless => None,
        }
    }

    /// The precision the containment adversary compares at: lossless
    /// traffic still resolves no finer than [`MAX_DECIMALS`] cells.
    #[must_use]
    pub fn containment_decimals(self) -> u8 {
        match self {
            Self::Decimals(d) => d.min(MAX_DECIMALS),
            Self::Lossless => MAX_DECIMALS,
        }
    }
}

/// Truncates one coordinate to `d` decimal digits (toward -∞, so the
/// result is the lower-left corner of the coordinate's decimal cell —
/// the same convention as [`CoordSet`]'s integer cells).
///
/// The result is never above `x`, and truncating it again returns it
/// unchanged.
#[must_use]
pub fn truncate_deg(x: f64, d: u8) -> f64 {
    assert!(d <= 9, "decimal truncation beyond 9 digits is meaningless for degrees");
    let scale = 10f64.powi(i32::from(d));
    lattice_floor(x, scale) / scale
}

/// The largest integer `k` with `k / scale <= x`, the division as
/// floats compute it: `floor(x * scale)` corrected by one step where the
/// product rounded across an integer.
fn lattice_floor(x: f64, scale: f64) -> f64 {
    let k = (x * scale).floor();
    if (k + 1.0) / scale <= x {
        k + 1.0
    } else if k / scale > x {
        k - 1.0
    } else {
        k
    }
}

/// Indices the channel samples from a trace with the given fix `times`:
/// the fixes at instants `t0 + m·interval` (t0 = first fix). For
/// `i' = c·i` the i'-sample is a subset of the i-sample — the nesting
/// the monotonicity proof relies on.
#[must_use]
pub fn sample_indices(times: &[i64], interval: Seconds) -> Vec<u32> {
    crate::pooling::phase_indices(times, interval, Seconds::new(0))
}

/// Applies the lossy channel: sample every `interval` seconds, then
/// truncate each coordinate to the given precision.
///
/// Sampling uses the workspace's polling model
/// ([`backwatch_trace::sampling::downsample_indices`]: keep the next fix
/// at or after each due instant, re-anchoring on what was kept) rather
/// than [`sample_indices`]' exact-residue scheme — a real poller does not
/// lose a fix because a trace gap shifted its phase, and the re-anchored
/// stream keeps stay-boundary phase comparable with the rest of the
/// experiments. The containment adversary deliberately stays on the
/// residue scheme, whose exact set-nesting its monotonicity proof needs.
///
/// With `Precision::Lossless` and a 1-second interval on a 1 Hz trace this
/// is the identity — the d=∞ fixed point of the leakage sweep.
#[must_use]
pub fn observe(trace: &Trace, interval: Seconds, precision: Precision) -> Trace {
    crate::obs::register();
    crate::obs::LEAK_OBSERVATIONS.inc();
    let kept = backwatch_trace::sampling::downsample_indices(trace, interval);
    crate::obs::LEAK_FIXES.add(kept.len() as u64);
    let points: Vec<TracePoint> = kept
        .into_iter()
        .map(|i| {
            let p = trace.points()[i as usize];
            match precision {
                Precision::Lossless => p,
                Precision::Decimals(d) => {
                    let (lat, lon) = (truncate_deg(p.pos.lat(), d), truncate_deg(p.pos.lon(), d));
                    // truncating an in-range coordinate stays in range, and
                    // `clamped`'s longitude wrap would move it off the lattice
                    TracePoint::new(p.time, LatLon::new(lat, lon).unwrap_or_else(|_| LatLon::clamped(lat, lon)))
                }
            }
        })
        .collect();
    Trace::from_points(points)
}

/// The set of decimal cells a fix collection covers, held at
/// [`MAX_DECIMALS`] and projected to coarser precisions by exact integer
/// division.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoordSet {
    /// Sorted unique `(lat_cell, lon_cell)` pairs at [`MAX_DECIMALS`].
    cells: Vec<(i32, i32)>,
}

fn cell_at_max(pos: LatLon) -> (i32, i32) {
    let scale = 10f64.powi(i32::from(MAX_DECIMALS));
    (lattice_floor(pos.lat(), scale) as i32, lattice_floor(pos.lon(), scale) as i32)
}

fn projection_divisor(d: u8) -> i32 {
    10i32.pow(u32::from(MAX_DECIMALS - d))
}

/// Sorted unique `cells` divided cell-wise by `div`: the same set
/// `log10(div)` decimals coarser, sorted unique.
fn divide_cells(cells: &[(i32, i32)], div: i32) -> Vec<(i32, i32)> {
    let mut out: Vec<(i32, i32)> = cells
        .iter()
        .map(|&(la, lo)| (la.div_euclid(div), lo.div_euclid(div)))
        .collect();
    // component-wise division is monotone but does not preserve the
    // lexicographic pair order, so re-sort before deduplicating
    out.sort_unstable();
    out.dedup();
    out
}

impl CoordSet {
    /// The cells covered by every fix of `trace`.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_positions(trace.points().iter().map(|p| p.pos))
    }

    /// The cells covered by the fixes of `trace` selected by `indices`.
    #[must_use]
    pub fn from_sampled(trace: &Trace, indices: &[u32]) -> Self {
        Self::from_positions(indices.iter().map(|&i| trace.points()[i as usize].pos))
    }

    fn from_positions(positions: impl Iterator<Item = LatLon>) -> Self {
        let mut cells: Vec<(i32, i32)> = Vec::new();
        // consecutive fixes usually share a cell (dwells dominate a
        // routine): pre-deduplicate adjacently before the sort
        for cell in positions.map(cell_at_max) {
            if cells.last() != Some(&cell) {
                cells.push(cell);
            }
        }
        cells.sort_unstable();
        cells.dedup();
        Self { cells }
    }

    /// Distinct cells at the finest precision.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no fix was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell set projected to precision `d` (sorted unique).
    ///
    /// Exact by construction: integer `div_euclid`, no float re-rounding,
    /// so `project(d)` equals `project(d+1)` divided cell-wise by 10.
    #[must_use]
    pub fn project(&self, d: u8) -> Vec<(i32, i32)> {
        assert!(d <= MAX_DECIMALS, "containment cells exist up to MAX_DECIMALS only");
        divide_cells(&self.cells, projection_divisor(d))
    }
}

/// The containment attacker: enrolled full-trace cell sets, queried with
/// an observed (sampled) cell set at a given precision.
///
/// Each enrolled set is held at every precision up to [`MAX_DECIMALS`],
/// built once at enrollment, so a query projects only the observation.
#[derive(Debug, Clone, Default)]
pub struct LeakageAdversary {
    users: Vec<u32>,
    /// `levels[k][d]`: the k-th enrolled user's cells at `d` decimals
    /// (sorted unique), for every `d <= MAX_DECIMALS`.
    levels: Vec<Vec<Vec<(i32, i32)>>>,
}

impl LeakageAdversary {
    /// An adversary with no enrolled users.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enrolls a user's full-trace cell set.
    pub fn insert(&mut self, user: u32, set: CoordSet) {
        // finest level first, each next one the exact `div 10` image of
        // the one before; reversed so that level d sits at index d
        let mut levels = Vec::with_capacity(usize::from(MAX_DECIMALS) + 1);
        let mut cells = set.cells;
        for _ in 0..MAX_DECIMALS {
            let mut coarser = divide_cells(&cells, 10);
            // collected at the finer level's length, kept at a fraction
            coarser.shrink_to_fit();
            levels.push(cells);
            cells = coarser;
        }
        levels.push(cells);
        levels.reverse();
        self.users.push(user);
        self.levels.push(levels);
    }

    /// Enrolled population size.
    #[must_use]
    pub fn population(&self) -> usize {
        self.users.len()
    }

    /// Users whose cell set at the channel precision contains every
    /// observed cell.
    #[must_use]
    pub fn candidates(&self, observed: &CoordSet, precision: Precision) -> Vec<u32> {
        crate::obs::register();
        crate::obs::LEAK_CANDIDATE_SETS.inc();
        let d = precision.containment_decimals();
        let obs = observed.project(d);
        let mut out = Vec::new();
        for (user, levels) in self.users.iter().zip(&self.levels) {
            let cand = &levels[usize::from(d)];
            if obs.iter().all(|c| cand.binary_search(c).is_ok()) {
                out.push(*user);
            }
        }
        crate::obs::LEAK_CANDIDATES.add(out.len() as u64);
        out
    }

    /// Degree of anonymity of the observation: the entropy of a uniform
    /// posterior over the candidate set, normalized by `log₂ N`
    /// (Formula 5 with uniform weights). `None` when nothing matches
    /// (impossible when the observed user is enrolled), `Some(0.0)` for a
    /// population of one.
    #[must_use]
    pub fn degree(&self, observed: &CoordSet, precision: Precision) -> Option<f64> {
        let c = self.candidates(observed, precision).len();
        if c == 0 {
            return None;
        }
        let n = self.users.len();
        if n <= 1 {
            return Some(0.0);
        }
        Some(((c as f64).log2() / (n as f64).log2()).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_trace::Timestamp;

    fn trace_of(coords: &[(f64, f64)]) -> Trace {
        Trace::from_points(
            coords
                .iter()
                .enumerate()
                .map(|(i, &(la, lo))| TracePoint::new(Timestamp::from_secs(i as i64), LatLon::clamped(la, lo)))
                .collect(),
        )
    }

    #[test]
    fn truncate_deg_floors_toward_negative_infinity() {
        assert_eq!(truncate_deg(39.9876, 2), 39.98);
        assert_eq!(truncate_deg(-39.9876, 2), -39.99);
        assert_eq!(truncate_deg(116.4, 0), 116.0);
    }

    #[test]
    fn truncation_is_idempotent_on_the_decimal_lattice() {
        // the product 39.98 * 100 rounds to 3997.9999999999995
        assert_eq!(truncate_deg(39.98, 2), 39.98);
        assert_eq!(truncate_deg(truncate_deg(39.98765, 2), 2), 39.98);
        assert_eq!(cell_at_max(LatLon::new(39.98, 116.4).unwrap()), (399_800, 1_164_000));
        // and -127.80000000000001 * 10 rounds up to exactly -1278
        assert_eq!(truncate_deg((-127.8f64).next_down(), 1), -127.9);
        for d in 1..=4u8 {
            let scale = 10f64.powi(i32::from(d));
            let per_degree = 10i64.pow(u32::from(d));
            for (lo, hi) in [(39, 41), (115, 118), (-41, -39), (-118, -115)] {
                for k in lo * per_degree..hi * per_degree {
                    let x = k as f64 / scale;
                    assert_eq!(truncate_deg(x, d), x, "lattice value {x} moved at d={d}");
                    assert_eq!(truncate_deg(x.next_down(), d), (k - 1) as f64 / scale, "{x} - 1 ulp at d={d}");
                }
            }
        }
    }

    #[test]
    fn true_user_is_a_candidate_of_every_leaked_observation() {
        let t = trace_of(&[
            (39.98, 116.4),
            (39.987_65, 116.399_99),
            ((-33.8f64).next_down(), (-127.8f64).next_down()),
            (-0.000_05, -179.999_95),
        ]);
        let mut adv = LeakageAdversary::new();
        adv.insert(7, CoordSet::from_trace(&t));
        adv.insert(8, CoordSet::from_trace(&trace_of(&[(39.97, 116.3)])));
        let precisions = (0..=9).map(Precision::Decimals).chain([Precision::Lossless]);
        for precision in precisions {
            let observed = CoordSet::from_trace(&observe(&t, Seconds::new(1), precision));
            assert!(
                adv.candidates(&observed, precision).contains(&7),
                "true user dropped out at {precision:?}"
            );
        }
    }

    #[test]
    fn lossless_unit_interval_is_the_identity() {
        let t = trace_of(&[(39.9, 116.4), (39.91, 116.41), (39.92, 116.42)]);
        assert_eq!(observe(&t, Seconds::new(1), Precision::Lossless), t);
    }

    #[test]
    fn sampling_nests_along_divisor_chains() {
        let times: Vec<i64> = (0..1000).collect();
        let fine = sample_indices(&times, Seconds::new(10));
        let coarse = sample_indices(&times, Seconds::new(50));
        assert!(coarse.iter().all(|i| fine.binary_search(i).is_ok()));
    }

    #[test]
    fn projection_chain_is_exact_integer_division() {
        let set = CoordSet::from_trace(&trace_of(&[(39.9876, 116.4499), (-0.0001, -0.0001), (39.45, 116.91)]));
        for d in 0..MAX_DECIMALS {
            let via_finer: Vec<(i32, i32)> = {
                let mut v: Vec<(i32, i32)> = set
                    .project(d + 1)
                    .into_iter()
                    .map(|(a, b)| (a.div_euclid(10), b.div_euclid(10)))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            assert_eq!(set.project(d), via_finer, "chain broke at d={d}");
        }
    }

    #[test]
    fn true_user_is_always_a_candidate() {
        let t = trace_of(&[(39.9, 116.4), (39.95, 116.45), (39.91, 116.42)]);
        let mut adv = LeakageAdversary::new();
        adv.insert(7, CoordSet::from_trace(&t));
        let observed = CoordSet::from_sampled(&t, &[0, 2]);
        for d in 0..=MAX_DECIMALS {
            assert!(adv.candidates(&observed, Precision::Decimals(d)).contains(&7));
        }
    }

    #[test]
    fn zero_decimals_collapse_a_city_population() {
        // three users inside one whole-degree cell: at d=0 everyone is a
        // candidate for everyone, degree 1 — no re-identification
        let pop = [
            trace_of(&[(39.90, 116.40), (39.95, 116.45)]),
            trace_of(&[(39.91, 116.41), (39.96, 116.46)]),
            trace_of(&[(39.92, 116.42), (39.97, 116.47)]),
        ];
        let mut adv = LeakageAdversary::new();
        for (u, t) in pop.iter().enumerate() {
            adv.insert(u as u32, CoordSet::from_trace(t));
        }
        for t in &pop {
            let obs = CoordSet::from_trace(t);
            assert_eq!(adv.candidates(&obs, Precision::Decimals(0)).len(), 3);
            assert_eq!(adv.degree(&obs, Precision::Decimals(0)), Some(1.0));
        }
    }

    #[test]
    fn finer_precision_separates_what_coarse_cannot() {
        let a = trace_of(&[(39.90, 116.40)]);
        let b = trace_of(&[(39.95, 116.45)]);
        let mut adv = LeakageAdversary::new();
        adv.insert(0, CoordSet::from_trace(&a));
        adv.insert(1, CoordSet::from_trace(&b));
        let obs = CoordSet::from_trace(&a);
        assert_eq!(adv.candidates(&obs, Precision::Decimals(0)).len(), 2);
        assert_eq!(adv.candidates(&obs, Precision::Decimals(2)), vec![0]);
        assert_eq!(adv.degree(&obs, Precision::Decimals(2)), Some(0.0));
    }

    #[test]
    fn degree_edge_cases() {
        let t = trace_of(&[(39.9, 116.4)]);
        // empty adversary: no candidates, None
        let empty = LeakageAdversary::new();
        assert_eq!(empty.degree(&CoordSet::from_trace(&t), Precision::Lossless), None);
        // single enrolled user: identified, 0.0
        let mut one = LeakageAdversary::new();
        one.insert(0, CoordSet::from_trace(&t));
        assert_eq!(one.degree(&CoordSet::from_trace(&t), Precision::Lossless), Some(0.0));
    }

    #[test]
    fn empty_coordset_matches_everyone() {
        let mut adv = LeakageAdversary::new();
        adv.insert(0, CoordSet::from_trace(&trace_of(&[(39.9, 116.4)])));
        adv.insert(1, CoordSet::from_trace(&trace_of(&[(40.9, 117.4)])));
        // an empty observation constrains nothing
        let got = adv.candidates(&CoordSet::default(), Precision::Decimals(2));
        assert_eq!(got, vec![0, 1]);
    }
}
