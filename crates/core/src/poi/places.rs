//! Clustering stays into places with visit counts.
//!
//! A *stay* is one visit episode; a *place* is the durable location behind
//! repeated stays. The paper counts "visited times" per place to decide
//! sensitivity and to build pattern-1 profiles.

use super::extractor::Stay;
use backwatch_geo::distance::Metric;
use backwatch_geo::{LatLon, Meters};

/// A clustered place: the centroid of its member stays and their indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// Stable index within the owning [`PlaceSet`].
    pub id: usize,
    /// Running centroid of member-stay centroids.
    pub centroid: LatLon,
    /// Indices into the stay list this place was clustered from.
    pub stay_indices: Vec<usize>,
}

impl Place {
    /// Number of visits (member stays).
    #[must_use]
    pub fn visit_count(&self) -> usize {
        self.stay_indices.len()
    }
}

/// The result of clustering a stay list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlaceSet {
    places: Vec<Place>,
    /// `assignment[i]` is the place id of stay `i`.
    assignment: Vec<usize>,
}

impl PlaceSet {
    /// The clustered places.
    #[must_use]
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// Number of places.
    #[must_use]
    pub fn len(&self) -> usize {
        self.places.len()
    }

    /// Whether no places were formed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    /// The place id each stay was assigned to, in stay order.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The place a given stay belongs to.
    #[must_use]
    pub fn place_of_stay(&self, stay_index: usize) -> Option<&Place> {
        self.assignment.get(stay_index).map(|&id| &self.places[id])
    }
}

/// Greedy chronological clustering: each stay joins the first existing
/// place whose centroid is within `merge_radius`, else founds a new one.
/// Place centroids are running means of their member-stay centroids.
///
/// # Panics
///
/// Panics if `merge_radius` is not strictly positive.
#[must_use]
pub fn cluster_stays(stays: &[Stay], merge_radius: Meters, metric: Metric) -> PlaceSet {
    let merge_radius_m = merge_radius.get();
    assert!(
        merge_radius_m > 0.0 && merge_radius_m.is_finite(),
        "merge radius must be positive, got {merge_radius_m}"
    );
    let mut places: Vec<Place> = Vec::new();
    let mut sums: Vec<(f64, f64)> = Vec::new();
    let mut assignment = Vec::with_capacity(stays.len());
    for (i, stay) in stays.iter().enumerate() {
        let found = places
            .iter()
            .position(|pl| metric.distance(stay.centroid, pl.centroid) <= merge_radius_m);
        match found {
            Some(id) => {
                places[id].stay_indices.push(i);
                let (slat, slon) = &mut sums[id];
                *slat += stay.centroid.lat();
                *slon += stay.centroid.lon();
                let n = places[id].stay_indices.len() as f64;
                places[id].centroid = LatLon::clamped(*slat / n, *slon / n);
                assignment.push(id);
            }
            None => {
                let id = places.len();
                places.push(Place {
                    id,
                    centroid: stay.centroid,
                    stay_indices: vec![i],
                });
                sums.push((stay.centroid.lat(), stay.centroid.lon()));
                assignment.push(id);
            }
        }
    }
    PlaceSet { places, assignment }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_trace::Timestamp;

    fn stay(lat: f64, lon: f64, t0: i64) -> Stay {
        Stay {
            centroid: LatLon::new(lat, lon).unwrap(),
            enter: Timestamp::from_secs(t0),
            leave: Timestamp::from_secs(t0 + 900),
            n_points: 900,
            end_index: 0,
        }
    }

    #[test]
    fn repeat_visits_merge_into_one_place() {
        let stays = vec![
            stay(39.9000, 116.4000, 0),
            stay(39.9001, 116.4001, 10_000), // ~14 m away
            stay(39.9000, 116.4000, 20_000),
        ];
        let ps = cluster_stays(&stays, Meters::new(100.0), Metric::Equirectangular);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.places()[0].visit_count(), 3);
        assert_eq!(ps.assignment(), &[0, 0, 0]);
    }

    #[test]
    fn distant_stays_form_distinct_places() {
        let stays = vec![stay(39.90, 116.40, 0), stay(39.95, 116.45, 10_000)];
        let ps = cluster_stays(&stays, Meters::new(100.0), Metric::Equirectangular);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.places()[0].visit_count(), 1);
        assert_eq!(ps.place_of_stay(1).unwrap().id, 1);
    }

    #[test]
    fn centroid_is_mean_of_members() {
        let stays = vec![stay(39.9000, 116.4000, 0), stay(39.9004, 116.4000, 10_000)];
        let ps = cluster_stays(&stays, Meters::new(200.0), Metric::Equirectangular);
        assert_eq!(ps.len(), 1);
        let c = ps.places()[0].centroid;
        assert!((c.lat() - 39.9002).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let ps = cluster_stays(&[], Meters::new(100.0), Metric::Equirectangular);
        assert!(ps.is_empty());
        assert!(ps.assignment().is_empty());
        assert!(ps.place_of_stay(0).is_none());
    }

    #[test]
    fn assignment_covers_every_stay() {
        let stays: Vec<Stay> = (0..20)
            .map(|i| stay(39.9 + (i % 4) as f64 * 0.01, 116.4, i64::from(i) * 10_000))
            .collect();
        let ps = cluster_stays(&stays, Meters::new(100.0), Metric::Equirectangular);
        assert_eq!(ps.assignment().len(), stays.len());
        let total: usize = ps.places().iter().map(Place::visit_count).sum();
        assert_eq!(total, stays.len());
        assert_eq!(ps.len(), 4);
    }

    #[test]
    #[should_panic(expected = "merge radius")]
    fn zero_radius_panics() {
        let _ = cluster_stays(&[], Meters::ZERO, Metric::Equirectangular);
    }
}
