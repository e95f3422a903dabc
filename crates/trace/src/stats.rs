//! Classic mobility statistics over a trace.
//!
//! The measures the human-mobility literature uses to characterize users
//! (and that privacy work uses to argue identifiability): the radius of
//! gyration, the entropy of the location distribution over grid cells,
//! and simple coverage counts. Montjoye et al.'s "Unique in the Crowd" —
//! cited by the paper — frames exactly these quantities.

use crate::trajectory::Trace;
use backwatch_geo::enu::Frame;
use backwatch_geo::Grid;
use std::collections::HashMap;

/// Summary mobility statistics of one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityStats {
    /// Number of fixes.
    pub fixes: usize,
    /// Radius of gyration in meters: RMS distance of fixes from their
    /// center of mass.
    pub radius_of_gyration_m: f64,
    /// Distinct grid cells visited.
    pub distinct_cells: usize,
    /// Shannon entropy (bits) of the distribution of fixes over cells —
    /// the "random entropy" of the mobility literature.
    pub location_entropy_bits: f64,
    /// Fraction of fixes in the most-visited cell (home, usually).
    pub top_cell_share: f64,
}

/// Computes [`MobilityStats`] for `trace` with locations quantized on
/// `grid`.
///
/// Returns `None` for an empty trace.
#[must_use]
pub fn mobility_stats(trace: &Trace, grid: &Grid) -> Option<MobilityStats> {
    let pts = trace.points();
    let first = pts.first()?;
    let frame = Frame::new(first.pos);

    // center of mass in the local plane
    let planar: Vec<(f64, f64)> = pts.iter().map(|p| frame.to_enu(p.pos)).collect();
    let n = planar.len() as f64;
    let (cx, cy) = planar.iter().fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x, sy + y));
    let (cx, cy) = (cx / n, cy / n);
    let rog = (planar.iter().map(|&(x, y)| (x - cx).powi(2) + (y - cy).powi(2)).sum::<f64>() / n).sqrt();

    let mut cells: HashMap<backwatch_geo::CellId, usize> = HashMap::new();
    for p in pts {
        *cells.entry(grid.cell_of(p.pos)).or_insert(0) += 1;
    }
    let mut entropy = 0.0;
    let mut top = 0usize;
    for &c in cells.values() {
        let p = c as f64 / n;
        entropy -= p * p.log2();
        top = top.max(c);
    }

    Some(MobilityStats {
        fixes: pts.len(),
        radius_of_gyration_m: rog,
        distinct_cells: cells.len(),
        location_entropy_bits: entropy.max(0.0),
        top_cell_share: top as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Timestamp, TracePoint};
    use backwatch_geo::LatLon;

    fn grid() -> Grid {
        Grid::new(LatLon::new(39.9, 116.4).unwrap(), backwatch_geo::Meters::new(250.0))
    }

    fn pt(t: i64, lat: f64, lon: f64) -> TracePoint {
        TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap())
    }

    #[test]
    fn stationary_trace_has_zero_gyration_and_entropy() {
        let trace = Trace::from_points((0..100).map(|i| pt(i, 39.9, 116.4)).collect());
        let s = mobility_stats(&trace, &grid()).unwrap();
        assert!(s.radius_of_gyration_m < 0.01);
        assert_eq!(s.distinct_cells, 1);
        assert_eq!(s.location_entropy_bits, 0.0);
        assert_eq!(s.top_cell_share, 1.0);
    }

    #[test]
    fn two_equal_poles_give_one_bit() {
        // half the fixes at A, half at B ~5.5 km away
        let mut pts: Vec<TracePoint> = (0..50).map(|i| pt(i, 39.90, 116.40)).collect();
        pts.extend((50..100).map(|i| pt(i, 39.95, 116.40)));
        let s = mobility_stats(&Trace::from_points(pts), &grid()).unwrap();
        assert_eq!(s.distinct_cells, 2);
        assert!((s.location_entropy_bits - 1.0).abs() < 1e-9);
        assert!((s.top_cell_share - 0.5).abs() < 1e-9);
        // RoG of two equal poles is half the separation (~2.78 km)
        assert!((s.radius_of_gyration_m - 2_780.0).abs() < 50.0, "{}", s.radius_of_gyration_m);
    }

    #[test]
    fn wider_roaming_increases_gyration() {
        let near: Vec<TracePoint> = (0..100).map(|i| pt(i, 39.9 + (i % 10) as f64 * 1e-4, 116.4)).collect();
        let far: Vec<TracePoint> = (0..100).map(|i| pt(i, 39.9 + (i % 10) as f64 * 1e-2, 116.4)).collect();
        let g = grid();
        let s_near = mobility_stats(&Trace::from_points(near), &g).unwrap();
        let s_far = mobility_stats(&Trace::from_points(far), &g).unwrap();
        assert!(s_far.radius_of_gyration_m > s_near.radius_of_gyration_m * 10.0);
        assert!(s_far.distinct_cells >= s_near.distinct_cells);
    }

    #[test]
    fn empty_trace_yields_none() {
        assert!(mobility_stats(&Trace::new(), &grid()).is_none());
    }

    #[test]
    fn synthetic_user_stats_are_plausible() {
        use crate::synth::{generate_user, SynthConfig};
        let user = generate_user(&SynthConfig::small(), 0);
        let s = mobility_stats(&user.trace, &grid()).unwrap();
        // a city dweller: kilometers of gyration, home-dominated
        assert!(s.radius_of_gyration_m > 300.0, "{}", s.radius_of_gyration_m);
        assert!(s.radius_of_gyration_m < 30_000.0);
        assert!(s.top_cell_share > 0.1, "{}", s.top_cell_share);
        assert!(s.location_entropy_bits > 1.0);
    }
}
