//! The planar point type and the projection envelope shared by the
//! projected trace layout ([`crate::soa::SoaProjectedTrace`]).
//!
//! The per-interval experiment sweep extracts PoIs from the same trace at
//! ten access frequencies, plus a rotated variant — and every extraction
//! used to re-derive geometry from raw lat/lon per distance. Projecting a
//! trace pays the trigonometry exactly once: each fix is projected into
//! (east, north) meters on a [`LocalProjection`] anchored at the trace's
//! first fix, and all downstream views (interval index views, rotations)
//! reuse those planar coordinates.
//!
//! Alongside the points, the projection records the trace's latitude band,
//! from which consumers obtain a *certified* bound on the planar-vs-
//! equirectangular distance error (see
//! [`LocalProjection::equirectangular_error_bound_m`]). Degenerate inputs —
//! an anchor within 1° of a pole, or a longitude extent that could straddle
//! the antimeridian — make [`envelope`] return [`Envelope::Degenerate`],
//! whose `+inf` slack tells consumers to treat every planar decision as
//! ambiguous and fall back to exact spherical math.

use crate::point::{Timestamp, TracePoint};
use backwatch_geo::projection::LocalProjection;
use backwatch_geo::{Degrees, LatLon};

/// A fix with both its geographic position and its planar projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedPoint {
    /// When the fix was recorded.
    pub time: Timestamp,
    /// The geographic position (kept so exact-path computations and
    /// reported centroids stay bit-identical to the unprojected pipeline).
    pub pos: LatLon,
    /// East offset from the projection anchor, meters.
    pub x: f64,
    /// North offset from the projection anchor, meters.
    pub y: f64,
}

/// The one-shot envelope analysis behind
/// [`crate::soa::SoaProjectedTrace::project`]: whether the trace can take
/// the certified planar path, and with which projection and slack.
pub(crate) enum Envelope {
    /// Inside the fast path's envelope: project on `projection` and certify
    /// with `slack_per_east_meter`.
    Planar {
        /// Tangent projection anchored at the trace's first fix.
        projection: LocalProjection,
        /// Certified |planar − equirectangular| error slope.
        slack_per_east_meter: f64,
    },
    /// Outside the envelope (polar anchor or antimeridian span): planar
    /// coordinates are all-zero and every decision must refine.
    Degenerate {
        /// Placeholder projection (polar anchors are clamped to the equator
        /// so the frame stays well-defined).
        projection: LocalProjection,
    },
}

/// Classifies `pts` against the fast path's envelope (see the module docs).
pub(crate) fn envelope(pts: &[TracePoint]) -> Envelope {
    let anchor = pts.first().map_or_else(|| LatLon::clamped(0.0, 0.0), |p| p.pos);

    // Near a pole the tangent frame degenerates; past 90° of longitude
    // from the anchor the unwrapped planar x no longer agrees with the
    // wrapped equirectangular distance. Both are far outside the
    // city-scale envelope this fast path serves, so mark the whole
    // trace ambiguous and let consumers take the exact spherical path.
    if anchor.lat().abs() >= 89.0 {
        return Envelope::Degenerate {
            projection: LocalProjection::new(LatLon::clamped(0.0, anchor.lon())),
        };
    }
    let mut lat_band_deg = 0.0f64;
    let mut lon_span_deg = 0.0f64;
    for p in pts {
        lat_band_deg = lat_band_deg.max((p.pos.lat() - anchor.lat()).abs());
        lon_span_deg = lon_span_deg.max((p.pos.lon() - anchor.lon()).abs());
    }
    if lon_span_deg > 90.0 {
        return Envelope::Degenerate {
            projection: LocalProjection::new(anchor),
        };
    }
    let projection = LocalProjection::new(anchor);
    Envelope::Planar {
        slack_per_east_meter: projection.error_per_east_meter(Degrees::new(lat_band_deg)),
        projection,
    }
}
