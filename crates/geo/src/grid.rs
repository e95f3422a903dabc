//! Quantization of coordinates into square region cells.
//!
//! The paper's "pattern 1" profile counts the times a user is observed in a
//! *region*. A [`Grid`] turns continuous coordinates into discrete
//! [`CellId`]s of approximately uniform metric size, anchored at an origin
//! so that nearby coordinates map deterministically to the same cell.

use crate::units::Meters;
use crate::{LatLon, EARTH_RADIUS_M};

/// Identifier of a grid cell: integer (row, column) offsets from the grid
/// origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Row index (latitude direction).
    pub row: i64,
    /// Column index (longitude direction).
    pub col: i64,
}

/// A square grid over the local tangent plane around an origin.
///
/// Cell edges are `cell_size_m` meters. Longitude degrees are scaled by
/// `cos(origin latitude)` so that cells are approximately square in meters
/// at city scale.
///
/// # Examples
///
/// ```
/// use backwatch_geo::{Grid, LatLon, Meters};
///
/// let origin = LatLon::new(39.9, 116.4)?;
/// let grid = Grid::new(origin, Meters::new(100.0));
/// let here = grid.cell_of(origin);
/// // Moving ~100m east lands in the adjacent column.
/// let east = grid.cell_of(LatLon::new(39.9, 116.4 + grid.lon_step_deg())?);
/// assert_eq!(east.row, here.row);
/// assert_eq!(east.col, here.col + 1);
/// # Ok::<(), backwatch_geo::LatLonError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    origin: LatLon,
    cell_size_m: f64,
    lat_step_deg: f64,
    lon_step_deg: f64,
}

impl Grid {
    /// Creates a grid anchored at `origin` with square cells of edge
    /// length `cell_size`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite, or if
    /// the origin latitude is within 0.1° of a pole (the longitude scale
    /// degenerates there).
    #[must_use]
    pub fn new(origin: LatLon, cell_size: Meters) -> Self {
        let cell_size_m = cell_size.get();
        assert!(cell_size_m.is_finite() && cell_size_m > 0.0, "cell size must be positive");
        assert!(origin.lat().abs() < 89.9, "grid origin too close to a pole");
        let meters_per_deg_lat = EARTH_RADIUS_M.to_radians();
        let meters_per_deg_lon = meters_per_deg_lat * origin.lat_rad().cos();
        Self {
            origin,
            cell_size_m,
            lat_step_deg: cell_size_m / meters_per_deg_lat,
            lon_step_deg: cell_size_m / meters_per_deg_lon,
        }
    }

    /// The grid's anchor coordinate.
    #[must_use]
    pub fn origin(&self) -> LatLon {
        self.origin
    }

    /// Edge length of a cell in meters.
    #[must_use]
    pub fn cell_size_m(&self) -> f64 {
        self.cell_size_m
    }

    /// Latitude extent of one cell, in degrees.
    #[must_use]
    pub fn lat_step_deg(&self) -> f64 {
        self.lat_step_deg
    }

    /// Longitude extent of one cell, in degrees.
    #[must_use]
    pub fn lon_step_deg(&self) -> f64 {
        self.lon_step_deg
    }

    /// Maps a coordinate to the cell containing it.
    #[must_use]
    pub fn cell_of(&self, p: LatLon) -> CellId {
        CellId {
            row: ((p.lat() - self.origin.lat()) / self.lat_step_deg).floor() as i64,
            col: ((p.lon() - self.origin.lon()) / self.lon_step_deg).floor() as i64,
        }
    }

    /// The center coordinate of a cell.
    #[must_use]
    pub fn cell_center(&self, cell: CellId) -> LatLon {
        LatLon::clamped(
            self.origin.lat() + (cell.row as f64 + 0.5) * self.lat_step_deg,
            self.origin.lon() + (cell.col as f64 + 0.5) * self.lon_step_deg,
        )
    }

    /// Snaps a coordinate to the center of its cell — the "coarsening"
    /// primitive used to model coarse location providers.
    #[must_use]
    pub fn snap(&self, p: LatLon) -> LatLon {
        self.cell_center(self.cell_of(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::haversine;

    fn ll(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    #[test]
    fn origin_is_in_cell_zero() {
        let g = Grid::new(ll(39.9, 116.4), Meters::new(100.0));
        assert_eq!(g.cell_of(g.origin()), CellId { row: 0, col: 0 });
    }

    #[test]
    fn points_in_same_cell_share_id() {
        let g = Grid::new(ll(39.9, 116.4), Meters::new(1000.0));
        let a = ll(39.9001, 116.4001);
        let b = ll(39.9002, 116.4003);
        assert_eq!(g.cell_of(a), g.cell_of(b));
    }

    #[test]
    fn distinct_cells_for_distant_points() {
        let g = Grid::new(ll(39.9, 116.4), Meters::new(100.0));
        let a = ll(39.9, 116.4);
        let b = ll(39.92, 116.4); // ~2.2 km north
        assert_ne!(g.cell_of(a), g.cell_of(b));
    }

    #[test]
    fn negative_indices_south_west_of_origin() {
        let g = Grid::new(ll(39.9, 116.4), Meters::new(100.0));
        let c = g.cell_of(ll(39.89, 116.39));
        assert!(c.row < 0);
        assert!(c.col < 0);
    }

    #[test]
    fn snap_moves_at_most_half_diagonal() {
        let g = Grid::new(ll(39.9, 116.4), Meters::new(100.0));
        for (dlat, dlon) in [(0.0001, 0.0002), (0.0007, -0.0005), (-0.0003, 0.0009)] {
            let p = ll(39.9 + dlat, 116.4 + dlon);
            let s = g.snap(p);
            let d = haversine(p, s);
            // half the diagonal of a 100 m cell is ~70.7 m
            assert!(d <= 71.0, "snapped {d} m away");
        }
    }

    #[test]
    fn snap_is_idempotent() {
        let g = Grid::new(ll(39.9, 116.4), Meters::new(250.0));
        let p = ll(39.9123, 116.4321);
        let s = g.snap(p);
        assert_eq!(g.snap(s), s);
    }

    #[test]
    fn cell_metric_size_is_approximately_requested() {
        let g = Grid::new(ll(39.9, 116.4), Meters::new(100.0));
        let a = g.cell_center(CellId { row: 0, col: 0 });
        let east = g.cell_center(CellId { row: 0, col: 1 });
        let north = g.cell_center(CellId { row: 1, col: 0 });
        assert!((haversine(a, east) - 100.0).abs() < 1.0);
        assert!((haversine(a, north) - 100.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        let _ = Grid::new(ll(0.0, 0.0), Meters::ZERO);
    }
}
