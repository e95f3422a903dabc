//! Spatial cloaking under k-anonymity (Gruteser & Grunwald 2003;
//! Gedik & Liu 2005).
//!
//! Each released fix is replaced by the center of the smallest grid cell
//! — from a hierarchy of cells doubling in size — that contains the
//! anchor points (homes) of at least `k` users of the population. Dense
//! downtown fixes stay precise-ish; fixes in sparse suburbs blur until
//! enough neighbours share the cell.

use crate::Lppm;
use backwatch_geo::{CellId, Grid, LatLon, Meters};
use backwatch_trace::{Trace, TracePoint};
use rand::RngCore;
use std::collections::HashMap;

/// k-anonymous hierarchical cloaking.
#[derive(Debug, Clone)]
pub struct KAnonymousCloaking {
    k: usize,
    /// Every level but the coarsest, finest first, each with the number
    /// of anchors in each of its cells (cells without anchors are absent).
    finer: Vec<(Grid, HashMap<CellId, usize>)>,
    /// The coarsest level, where a fix is released when no finer cell
    /// holds `k` anchors, whatever its own occupancy.
    coarsest: Grid,
}

impl KAnonymousCloaking {
    /// Builds the mechanism from the population's anchor points.
    ///
    /// `base_cell` is the finest cell size; the hierarchy doubles it
    /// `levels` times. A fix that cannot be k-anonymized even at the
    /// coarsest level is released at that coarsest level anyway (the
    /// alternative — suppression — is what [`crate::suppression`]
    /// provides).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `levels == 0`, `base_cell` is not positive, or
    /// `anchors` is empty.
    #[must_use]
    pub fn new(origin: LatLon, base_cell: Meters, levels: usize, k: usize, anchors: Vec<LatLon>) -> Self {
        let base_cell_m = base_cell.get();
        assert!(k >= 1, "k must be at least 1");
        assert!(levels >= 1, "need at least one level");
        assert!(base_cell_m > 0.0, "cell size must be positive");
        assert!(!anchors.is_empty(), "population anchors must be non-empty");
        let level = |i: usize| Grid::new(origin, Meters::new(base_cell_m * f64::powi(2.0, i as i32)));
        // Count the anchors per cell once, so a fix costs one lookup per
        // level instead of a rescan of the whole population.
        let finer = (0..levels - 1)
            .map(|i| {
                let grid = level(i);
                let mut occupancy = HashMap::new();
                for a in &anchors {
                    *occupancy.entry(grid.cell_of(*a)).or_insert(0) += 1;
                }
                (grid, occupancy)
            })
            .collect();
        Self {
            k,
            finer,
            coarsest: level(levels - 1),
        }
    }

    /// The anonymity parameter.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The released position for a true position: the center of the
    /// smallest cell holding at least `k` anchors (coarsest level as the
    /// fallback).
    #[must_use]
    pub fn cloak(&self, pos: LatLon) -> LatLon {
        for (grid, occupancy) in &self.finer {
            if occupancy.get(&grid.cell_of(pos)).is_some_and(|&n| n >= self.k) {
                return grid.snap(pos);
            }
        }
        self.coarsest.snap(pos)
    }
}

impl Lppm for KAnonymousCloaking {
    fn name(&self) -> &str {
        "k-anonymous-cloaking"
    }

    fn apply(&self, trace: &Trace, _rng: &mut dyn RngCore) -> Trace {
        trace.iter().map(|p| TracePoint::new(p.time, self.cloak(p.pos))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_geo::distance::haversine;

    fn origin() -> LatLon {
        LatLon::new(39.9, 116.4).unwrap()
    }

    /// 10 anchors huddled downtown, 1 anchor in the suburb.
    fn anchors() -> Vec<LatLon> {
        let mut v: Vec<LatLon> = (0..10)
            .map(|i| LatLon::new(39.9 + f64::from(i) * 1e-4, 116.4).unwrap())
            .collect();
        v.push(LatLon::new(39.98, 116.52).unwrap()); // lone suburbanite
        v
    }

    fn mech(k: usize) -> KAnonymousCloaking {
        KAnonymousCloaking::new(origin(), Meters::new(250.0), 7, k, anchors())
    }

    #[test]
    fn dense_area_is_released_at_fine_level() {
        let m = mech(5);
        let downtown = LatLon::new(39.9002, 116.4001).unwrap();
        let released = m.cloak(downtown);
        // all 10 downtown anchors share the 250 m cell, so the fix moves
        // at most half a fine-cell diagonal
        assert!(haversine(downtown, released) <= 250.0);
    }

    #[test]
    fn sparse_area_is_released_coarse() {
        let m = mech(5);
        let suburb = LatLon::new(39.98, 116.52).unwrap();
        let released = m.cloak(suburb);
        // only 1 anchor nearby: the mechanism must climb the hierarchy,
        // moving the fix much further than the fine cell would
        assert!(haversine(suburb, released) > 250.0, "moved {} m", haversine(suburb, released));
    }

    #[test]
    fn k1_keeps_own_cell_when_anchor_present() {
        let m = mech(1);
        let suburb = LatLon::new(39.98, 116.52).unwrap();
        // with k = 1, the suburbanite's own anchor suffices at the finest
        // level
        assert!(haversine(suburb, m.cloak(suburb)) <= 250.0);
    }

    #[test]
    fn larger_k_never_decreases_displacement() {
        let pos = LatLon::new(39.9002, 116.4001).unwrap();
        let d5 = haversine(pos, mech(5).cloak(pos));
        let d11 = haversine(pos, mech(11).cloak(pos));
        assert!(d11 >= d5);
    }

    #[test]
    fn apply_preserves_timestamps() {
        use backwatch_trace::Timestamp;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let trace = Trace::from_points(
            (0..5)
                .map(|i| TracePoint::new(Timestamp::from_secs(i), LatLon::new(39.9, 116.4).unwrap()))
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let out = mech(5).apply(&trace, &mut rng);
        assert_eq!(out.len(), 5);
        for (a, b) in trace.iter().zip(out.iter()) {
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let _ = KAnonymousCloaking::new(origin(), Meters::new(250.0), 3, 0, anchors());
    }
}
