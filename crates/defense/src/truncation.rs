//! Location truncation (Micinski et al., MoST 2013; LP-Guardian).
//!
//! Every released fix is quantized to the center of a grid cell, so apps
//! keep working ("find restaurants near me") while dwell positions lose
//! the precision PoI extraction needs.

use crate::Lppm;
use backwatch_geo::Grid;
use backwatch_trace::{coarsen, Trace};
use rand::RngCore;

/// Snap-to-grid truncation.
#[derive(Debug, Clone, Copy)]
pub struct GridTruncation {
    grid: Grid,
    name: &'static str,
}

impl GridTruncation {
    /// Truncates to the given grid.
    #[must_use]
    pub fn new(grid: Grid) -> Self {
        Self {
            grid,
            name: "grid-truncation",
        }
    }

    /// The truncation grid.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }
}

impl Lppm for GridTruncation {
    fn name(&self) -> &str {
        self.name
    }

    fn apply(&self, trace: &Trace, _rng: &mut dyn RngCore) -> Trace {
        coarsen::snap_to_grid(trace, &self.grid)
    }
}

/// Decimal-digit truncation: every released coordinate keeps only `d`
/// decimal digits.
///
/// This is the same lossy transform [`backwatch_core::leakage`] models as
/// an adversary-side *observation channel* (truncated coordinates leaking
/// through network traffic); deployed deliberately on the release path it
/// doubles as a defense. Sharing the transform keeps the X11 sweep and
/// the defense ablation measuring the same channel.
#[derive(Debug, Clone, Copy)]
pub struct DecimalTruncation {
    decimals: u8,
    name: &'static str,
}

impl DecimalTruncation {
    /// Truncates to `decimals` decimal digits (0 ≤ d ≤ 9).
    #[must_use]
    pub fn new(decimals: u8) -> Self {
        assert!(decimals <= 9, "decimal truncation beyond 9 digits is meaningless");
        Self {
            decimals,
            name: "decimal-truncation",
        }
    }

    /// The retained decimal digits.
    #[must_use]
    pub fn decimals(&self) -> u8 {
        self.decimals
    }
}

impl Lppm for DecimalTruncation {
    fn name(&self) -> &str {
        self.name
    }

    fn apply(&self, trace: &Trace, _rng: &mut dyn RngCore) -> Trace {
        backwatch_core::leakage::observe(
            trace,
            backwatch_geo::Seconds::new(1),
            backwatch_core::leakage::Precision::Decimals(self.decimals),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_core::leakage::truncate_deg;
    use backwatch_geo::{distance::haversine, LatLon};
    use backwatch_trace::{Timestamp, TracePoint};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace() -> Trace {
        Trace::from_points(
            (0..100)
                .map(|i| TracePoint::new(Timestamp::from_secs(i), LatLon::new(39.9 + i as f64 * 1e-5, 116.4).unwrap()))
                .collect(),
        )
    }

    #[test]
    fn preserves_length_and_times() {
        let g = Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(500.0));
        let mut rng = StdRng::seed_from_u64(0);
        let out = GridTruncation::new(g).apply(&trace(), &mut rng);
        assert_eq!(out.len(), 100);
        for (a, b) in trace().iter().zip(out.iter()) {
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn displacement_bounded_by_cell_diagonal() {
        let g = Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(500.0));
        let mut rng = StdRng::seed_from_u64(0);
        let out = GridTruncation::new(g).apply(&trace(), &mut rng);
        for (a, b) in trace().iter().zip(out.iter()) {
            assert!(haversine(a.pos, b.pos) <= 500.0 * std::f64::consts::SQRT_2 / 2.0 * 1.02);
        }
    }

    #[test]
    fn quantizes_nearby_fixes_together() {
        let g = Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(2000.0));
        let mut rng = StdRng::seed_from_u64(0);
        let out = GridTruncation::new(g).apply(&trace(), &mut rng);
        let first = out.points()[0].pos;
        assert!(out.iter().all(|p| p.pos == first));
    }

    #[test]
    fn decimal_truncation_keeps_length_times_and_digit_budget() {
        let mut rng = StdRng::seed_from_u64(0);
        let out = DecimalTruncation::new(2).apply(&trace(), &mut rng);
        assert_eq!(out.len(), 100);
        for (a, b) in trace().iter().zip(out.iter()) {
            assert_eq!(a.time, b.time);
            // truncation never moves a coordinate by a full cell
            assert!((a.pos.lat() - b.pos.lat()).abs() < 0.01);
            assert!((a.pos.lon() - b.pos.lon()).abs() < 0.01);
            // and the result sits exactly on the 0.01-degree lattice
            assert_eq!(truncate_deg(b.pos.lat(), 2), b.pos.lat());
            assert_eq!(truncate_deg(b.pos.lon(), 2), b.pos.lon());
        }
    }

    #[test]
    fn coarse_decimal_truncation_collapses_the_routine() {
        let mut rng = StdRng::seed_from_u64(0);
        let out = DecimalTruncation::new(0).apply(&trace(), &mut rng);
        let first = out.points()[0].pos;
        assert!(out.iter().all(|p| p.pos == first));
    }
}
