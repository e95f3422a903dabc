//! The adversary's diary: a human-readable day-by-day reconstruction of a
//! user's life from extracted stays.
//!
//! This is the artifact that makes the abstract privacy metrics concrete:
//! given what a background app collected, print what its backend can say
//! about the user's week. Used by the privacy-dashboard style examples.

use crate::poi::{cluster_stays, PlaceSet, Stay};
use backwatch_geo::distance::Metric;
use backwatch_geo::Meters;
use std::fmt::Write as _;

/// One diary entry: a visit to a known place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiaryEntry {
    /// Day index of the arrival.
    pub day: i64,
    /// Second-of-day of the arrival.
    pub arrive_sod: i64,
    /// Dwell duration, seconds.
    pub dwell_secs: i64,
    /// Place id within the diary's [`PlaceSet`].
    pub place: usize,
    /// How many times the place is visited over the whole diary.
    pub place_visits: usize,
}

/// A reconstructed diary.
#[derive(Debug, Clone, PartialEq)]
pub struct Diary {
    /// Chronological entries.
    pub entries: Vec<DiaryEntry>,
    /// The clustered places behind the entries.
    pub places: PlaceSet,
}

impl Diary {
    /// Builds the diary from extracted stays.
    ///
    /// `merge_radius` controls place clustering (use ~3× the extraction
    /// radius).
    ///
    /// # Panics
    ///
    /// Panics if `merge_radius` is not strictly positive.
    #[must_use]
    pub fn from_stays(stays: &[Stay], merge_radius: Meters, metric: Metric) -> Self {
        let places = cluster_stays(stays, merge_radius, metric);
        let entries = stays
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let place = places.assignment()[i];
                DiaryEntry {
                    day: s.enter.day(),
                    arrive_sod: s.enter.second_of_day(),
                    dwell_secs: s.dwell_secs(),
                    place,
                    place_visits: places.places()[place].visit_count(),
                }
            })
            .collect();
        Self { entries, places }
    }

    /// Number of days covered (distinct arrival days).
    #[must_use]
    pub fn days_covered(&self) -> usize {
        let mut days: Vec<i64> = self.entries.iter().map(|e| e.day).collect();
        days.sort_unstable();
        days.dedup();
        days.len()
    }

    /// The place visited most often — almost always home.
    #[must_use]
    pub fn anchor_place(&self) -> Option<usize> {
        self.places.places().iter().max_by_key(|p| p.visit_count()).map(|p| p.id)
    }

    /// Renders the diary as indented text, one line per visit.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let anchor = self.anchor_place();
        let _ = writeln!(
            s,
            "diary: {} visits to {} places over {} days",
            self.entries.len(),
            self.places.len(),
            self.days_covered()
        );
        let mut last_day = i64::MIN;
        for e in &self.entries {
            if e.day != last_day {
                let _ = writeln!(s, "  day {}", e.day);
                last_day = e.day;
            }
            let tag = if Some(e.place) == anchor {
                " (anchor/home)"
            } else if e.place_visits <= 3 {
                " (rare - sensitive?)"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {:02}:{:02}  place {:<3} for {:>4} min{tag}",
                e.arrive_sod / 3600,
                (e.arrive_sod % 3600) / 60,
                e.place,
                e.dwell_secs / 60
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poi::{ExtractorParams, SpatioTemporalExtractor};
    use backwatch_geo::LatLon;
    use backwatch_trace::synth::{generate_user, SynthConfig};
    use backwatch_trace::Timestamp;

    fn stay(lat: f64, day: i64, hour: i64, dwell_min: i64) -> Stay {
        let t = day * 86_400 + hour * 3_600;
        Stay {
            centroid: LatLon::new(lat, 116.4).unwrap(),
            enter: Timestamp::from_secs(t),
            leave: Timestamp::from_secs(t + dwell_min * 60),
            n_points: 100,
            end_index: 0,
        }
    }

    #[test]
    fn diary_reflects_the_stay_sequence() {
        let stays = vec![
            stay(39.90, 0, 8, 60),   // home-ish
            stay(39.95, 0, 10, 480), // work
            stay(39.90, 0, 19, 600), // home
            stay(39.90, 1, 8, 60),
            stay(39.95, 1, 10, 480),
        ];
        let diary = Diary::from_stays(&stays, Meters::new(200.0), Metric::Equirectangular);
        assert_eq!(diary.entries.len(), 5);
        assert_eq!(diary.places.len(), 2);
        assert_eq!(diary.days_covered(), 2);
        // home (3 visits) is the anchor
        let anchor = diary.anchor_place().unwrap();
        assert_eq!(diary.places.places()[anchor].visit_count(), 3);
    }

    #[test]
    fn render_marks_rare_places() {
        let mut stays = vec![stay(39.90, 0, 8, 600); 5];
        for (i, s) in stays.iter_mut().enumerate() {
            s.enter = Timestamp::from_secs(i as i64 * 86_400);
            s.leave = s.enter + 600 * 60;
        }
        stays.push(stay(39.99, 2, 14, 45)); // one-off visit: sensitive
        let diary = Diary::from_stays(&stays, Meters::new(200.0), Metric::Equirectangular);
        let text = diary.render();
        assert!(text.contains("(anchor/home)"));
        assert!(text.contains("(rare - sensitive?)"));
        assert!(text.contains("day 2"));
    }

    #[test]
    fn empty_diary_is_well_formed() {
        let diary = Diary::from_stays(&[], Meters::new(200.0), Metric::Equirectangular);
        assert!(diary.entries.is_empty());
        assert_eq!(diary.days_covered(), 0);
        assert_eq!(diary.anchor_place(), None);
        assert!(diary.render().contains("0 visits"));
    }

    #[test]
    fn synthetic_user_diary_covers_the_simulation() {
        let cfg = SynthConfig::small();
        let user = generate_user(&cfg, 0);
        let params = ExtractorParams::paper_set1();
        let stays = SpatioTemporalExtractor::new(params).extract(&user.trace);
        let diary = Diary::from_stays(&stays, params.radius_m * 3.0, params.metric);
        assert!(diary.days_covered() >= cfg.days as usize - 1);
        assert!(diary.anchor_place().is_some());
        // the anchor is visited at least daily
        let anchor = &diary.places.places()[diary.anchor_place().unwrap()];
        assert!(anchor.visit_count() >= cfg.days as usize - 1);
    }
}
