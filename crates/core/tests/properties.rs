//! Property-based tests for the privacy model.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_core::hisbin::{HisBin, MatchOutcome, MatchRule, Matcher};
use backwatch_core::pattern::{PatternKey, PatternKind, Profile};
use backwatch_core::poi::{cluster_stays, ExtractorParams, SpatioTemporalExtractor, Stay};
use backwatch_geo::distance::Metric;
use backwatch_geo::{CellId, Grid, LatLon, Meters, Seconds};
use backwatch_stats::chi2;
use backwatch_trace::{Timestamp, Trace, TracePoint};
use proptest::prelude::*;

/// A synthetic trace made of dwell and move segments around Beijing.
/// Returns the trace plus the number of "long" dwells (>= 15 min) that
/// are separated by real displacement.
fn arb_day() -> impl Strategy<Value = (Trace, usize)> {
    // each segment: (is_dwell, duration_minutes, dx_km, dy_km)
    prop::collection::vec((any::<bool>(), 3u32..40, -2i32..=2, -2i32..=2), 1..12).prop_map(|segments| {
        let mut pts = Vec::new();
        let mut t = 0i64;
        let (mut x, mut y) = (0.0f64, 0.0f64); // km offsets
        let frame = backwatch_geo::enu::Frame::new(LatLon::new(39.9, 116.4).unwrap());
        let mut long_dwells = 0usize;
        for (is_dwell, minutes, dx, dy) in segments {
            let secs = i64::from(minutes) * 60;
            if is_dwell {
                if minutes >= 15 && (f64::from(dx).abs() + f64::from(dy).abs()) >= 1.0 {
                    long_dwells += 1;
                }
                for s in 0..secs {
                    pts.push(TracePoint::new(
                        Timestamp::from_secs(t + s),
                        frame.to_latlon(Meters::new(x * 1000.0), Meters::new(y * 1000.0)),
                    ));
                }
                t += secs;
                // displacement after the dwell
                x += f64::from(dx);
                y += f64::from(dy);
            } else {
                // move steadily to the next offset over `secs`
                let (nx, ny) = (x + f64::from(dx), y + f64::from(dy));
                for s in 0..secs {
                    let f = s as f64 / secs as f64;
                    pts.push(TracePoint::new(
                        Timestamp::from_secs(t + s),
                        frame.to_latlon(
                            Meters::new((x + (nx - x) * f) * 1000.0),
                            Meters::new((y + (ny - y) * f) * 1000.0),
                        ),
                    ));
                }
                t += secs;
                x = nx;
                y = ny;
            }
        }
        (Trace::from_points(pts), long_dwells)
    })
}

/// The grid every histogram test quantizes on.
fn test_grid() -> Grid {
    Grid::new(LatLon::new(39.9, 116.4).unwrap(), Meters::new(250.0))
}

/// Chronological stays at the centers of `(row, col)` cells, the i-th
/// dwelling `blocks` half-hours (pattern 1 weights a region by them).
fn stays_in(grid: &Grid, cells: &[(i64, i64, i64)]) -> Vec<Stay> {
    cells
        .iter()
        .enumerate()
        .map(|(i, &(row, col, blocks))| {
            let t = i as i64 * 100_000;
            Stay {
                centroid: grid.cell_center(CellId { row, col }),
                enter: Timestamp::from_secs(t),
                leave: Timestamp::from_secs(t + blocks * 1800),
                n_points: 2,
                end_index: i,
            }
        })
        .collect()
}

/// Random cell visits on a 4 x 4 block of cells, so two draws overlap
/// partly, fully or not at all.
fn arb_visits(max: usize) -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((0i64..4, 0i64..4, 1i64..5), 0..max)
}

/// The matchers the differential tests cover: both rules at two levels.
fn arb_matcher() -> impl Strategy<Value = Matcher> {
    (any::<bool>(), any::<bool>()).prop_map(|(strict, upper)| {
        let rule = if upper {
            MatchRule::ScaledUpperTail
        } else {
            MatchRule::PaperLowerTail
        };
        Matcher::new(if strict { 0.01 } else { 0.05 }, rule)
    })
}

/// `Matcher::compare` as three separate passes: sort and dedup the key
/// union, fill observed/expected vectors by lookup, sum the Pearson
/// statistic, and compute the critical value afresh on every call. The
/// fused single-pass comparison must reproduce it bit for bit.
fn reference_compare(m: &Matcher, observed: &Profile, profile: &Profile) -> MatchOutcome {
    const FLOOR: f64 = 0.5;
    let safe = MatchOutcome {
        his_bin: HisBin::Safe,
        statistic: f64::INFINITY,
        df: 0.0,
    };
    let (ho, hp) = (observed.histogram(), profile.histogram());
    let (n_obs, n_prof) = (ho.total(), hp.total());
    if n_obs == 0 || n_prof == 0 {
        return safe;
    }
    if !ho.keys().any(|k| hp.count(k) > 0) {
        return safe;
    }
    let mut keys: Vec<&PatternKey> = ho.keys().chain(hp.keys()).collect();
    keys.sort();
    keys.dedup();
    let obs: Vec<f64> = keys.iter().map(|k| ho.count(*k) as f64).collect();
    let exp: Vec<f64> = keys.iter().map(|k| hp.count(*k) as f64).collect();
    if obs.len() < 2 {
        return MatchOutcome {
            his_bin: HisBin::Leaky,
            statistic: 0.0,
            df: 0.0,
        };
    }
    let df = (obs.len() - 1) as f64;
    let mut statistic = 0.0;
    let matches = match m.rule() {
        MatchRule::ScaledUpperTail => {
            let scale = n_prof as f64 / n_obs as f64;
            for (&o, &e) in obs.iter().zip(&exp) {
                let e = e.max(FLOOR);
                let d = o * scale - e;
                statistic += d * d / e;
            }
            statistic <= chi2::inverse_cdf(1.0 - m.alpha(), df)
        }
        MatchRule::PaperLowerTail => {
            for (&o, &e) in obs.iter().zip(&exp) {
                let e = e.max(FLOOR);
                let d = o - e;
                statistic += d * d / e;
            }
            statistic >= chi2::inverse_cdf(m.alpha(), df)
        }
    };
    MatchOutcome {
        his_bin: if matches { HisBin::Leaky } else { HisBin::Safe },
        statistic,
        df,
    }
}

/// Asserts the fused comparison equals the reference bit for bit, in both
/// directions.
fn assert_matches_reference(m: &Matcher, a: &Profile, b: &Profile) -> Result<(), TestCaseError> {
    for (observed, profile) in [(a, b), (b, a)] {
        let got = m.compare(observed, profile);
        let want = reference_compare(m, observed, profile);
        prop_assert_eq!(
            got.statistic.to_bits(),
            want.statistic.to_bits(),
            "statistic {:?} vs {:?}",
            got,
            want
        );
        prop_assert_eq!(got.df.to_bits(), want.df.to_bits());
        prop_assert_eq!(got.his_bin, want.his_bin);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_compare_equals_reference_on_random_histograms(
        obs in arb_visits(10),
        prof in arb_visits(24),
        kind in 0usize..3,
        m in arb_matcher(),
    ) {
        let grid = test_grid();
        let kind = [PatternKind::RegionVisits, PatternKind::RegionVisitCounts, PatternKind::MovementPattern][kind];
        let a = Profile::from_stays(kind, &stays_in(&grid, &obs), &grid);
        let b = Profile::from_stays(kind, &stays_in(&grid, &prof), &grid);
        assert_matches_reference(&m, &a, &b)?;
        // against itself: full shared support
        assert_matches_reference(&m, &b, &b)?;
    }

    #[test]
    fn fused_compare_equals_reference_on_edge_supports(
        mine in arb_visits(8),
        theirs in arb_visits(8),
        shared in (0i64..4, 0i64..4, 1i64..5),
        m in arb_matcher(),
    ) {
        // `theirs` moves 100 rows away, so its support is disjoint from
        // `mine`; `shared` is the one cell both sides may also visit.
        let grid = test_grid();
        let kind = PatternKind::RegionVisits;
        let far: Vec<(i64, i64, i64)> = theirs.iter().map(|&(r, c, b)| (r + 100, c, b)).collect();
        let empty = Profile::new(kind);
        let a = Profile::from_stays(kind, &stays_in(&grid, &mine), &grid);
        let b = Profile::from_stays(kind, &stays_in(&grid, &far), &grid);
        // an empty side
        assert_matches_reference(&m, &a, &empty)?;
        assert_matches_reference(&m, &empty, &empty)?;
        // disjoint support
        let disjoint = m.compare(&a, &b);
        prop_assert!(!disjoint.his_bin.is_leaky());
        assert_matches_reference(&m, &a, &b)?;
        // exactly one shared key: `shared` plus each side's private cells
        let with_far: Vec<(i64, i64, i64)> = far.iter().copied().chain([shared]).collect();
        let only_shared = Profile::from_stays(kind, &stays_in(&grid, &[shared]), &grid);
        let b_shared = Profile::from_stays(kind, &stays_in(&grid, &with_far), &grid);
        let a_private: Vec<(i64, i64, i64)> = mine.iter().map(|&(r, c, b)| (r + 200, c, b)).chain([shared]).collect();
        let a_shared = Profile::from_stays(kind, &stays_in(&grid, &a_private), &grid);
        assert_matches_reference(&m, &a_shared, &b_shared)?;
        assert_matches_reference(&m, &only_shared, &b_shared)?;
        // a single shared category and nothing else is trivially revealed
        prop_assert!(m.compare(&only_shared, &only_shared).his_bin.is_leaky());
        assert_matches_reference(&m, &only_shared, &only_shared)?;
    }

    #[test]
    fn stays_meet_visiting_time_and_are_ordered((trace, _) in arb_day()) {
        let params = ExtractorParams::paper_set1();
        let stays = SpatioTemporalExtractor::new(params).extract(&trace);
        for s in &stays {
            prop_assert!(s.dwell_secs() >= params.min_visit_secs.get());
            prop_assert!(s.n_points >= 2);
            prop_assert!(s.end_index < trace.len());
        }
        for w in stays.windows(2) {
            prop_assert!(w[0].leave <= w[1].enter, "stays overlap");
            prop_assert!(w[0].end_index < w[1].end_index);
        }
    }

    #[test]
    fn stay_centroid_lies_inside_trace_bbox((trace, _) in arb_day()) {
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        if let Some(bb) = trace.bounding_box() {
            for s in &stays {
                // allow a meter of numerical slack
                prop_assert!(s.centroid.lat() >= bb.min_lat() - 1e-5);
                prop_assert!(s.centroid.lat() <= bb.max_lat() + 1e-5);
                prop_assert!(s.centroid.lon() >= bb.min_lon() - 1e-5);
                prop_assert!(s.centroid.lon() <= bb.max_lon() + 1e-5);
            }
        }
    }

    #[test]
    fn downsampling_never_invents_stays((trace, _) in arb_day(), interval in 2i64..600) {
        // Every stay found in the downsampled trace overlaps some stay of
        // the full extraction or is subsumed by a longer dwell: weaker but
        // robust invariant — downsampled extraction never finds more stays
        // than the trace has dwell segments.
        let params = ExtractorParams::paper_set1();
        let full = SpatioTemporalExtractor::new(params).extract(&trace);
        let sampled = backwatch_trace::sampling::downsample(&trace, Seconds::new(interval));
        let coarse = SpatioTemporalExtractor::new(params).extract(&sampled);
        prop_assert!(coarse.len() <= full.len() + 1, "coarse {} vs full {}", coarse.len(), full.len());
    }

    #[test]
    fn clustering_assignment_is_total((trace, _) in arb_day(), radius in 50.0f64..500.0) {
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        let places = cluster_stays(&stays, Meters::new(radius), Metric::Equirectangular);
        prop_assert_eq!(places.assignment().len(), stays.len());
        let total: usize = places.places().iter().map(|p| p.visit_count()).sum();
        prop_assert_eq!(total, stays.len());
        // every member stay is within ~2x the merge radius of its place
        for (i, s) in stays.iter().enumerate() {
            let place = places.place_of_stay(i).unwrap();
            let d = Metric::Equirectangular.distance(s.centroid, place.centroid);
            prop_assert!(d <= radius * 2.0 + 1.0, "stay {i} is {d} m from its place");
        }
    }

    #[test]
    fn profiles_are_prefix_monotone((trace, _) in arb_day(), cut in 0.1f64..0.9) {
        let grid = Grid::new(LatLon::new(39.9, 116.4).unwrap(), Meters::new(250.0));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        let k = ((stays.len() as f64) * cut) as usize;
        for kind in [PatternKind::RegionVisits, PatternKind::RegionVisitCounts, PatternKind::MovementPattern] {
            let partial = Profile::from_stays(kind, &stays[..k], &grid);
            let full = Profile::from_stays(kind, &stays, &grid);
            prop_assert!(partial.histogram().total() <= full.histogram().total());
            for (key, count) in partial.histogram().iter() {
                prop_assert!(full.histogram().count(key) >= count, "prefix count exceeds full count");
            }
        }
    }

    #[test]
    fn matcher_is_symmetric_in_safety_for_disjoint((trace, _) in arb_day(), shift in 1i32..5) {
        // shift a copy of the stays far away: neither direction matches
        let grid = Grid::new(LatLon::new(39.9, 116.4).unwrap(), Meters::new(250.0));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        if stays.len() >= 3 {
            let moved: Vec<Stay> = stays
                .iter()
                .map(|s| Stay {
                    centroid: LatLon::clamped(s.centroid.lat() - f64::from(shift) * 0.5, s.centroid.lon()),
                    ..*s
                })
                .collect();
            let a = Profile::from_stays(PatternKind::RegionVisits, &stays, &grid);
            let b = Profile::from_stays(PatternKind::RegionVisits, &moved, &grid);
            let m = Matcher::paper();
            prop_assert!(!m.compare(&a, &b).his_bin.is_leaky());
            prop_assert!(!m.compare(&b, &a).his_bin.is_leaky());
        }
    }

    #[test]
    fn self_match_always_leaks((trace, _) in arb_day()) {
        let grid = Grid::new(LatLon::new(39.9, 116.4).unwrap(), Meters::new(250.0));
        let stays = SpatioTemporalExtractor::new(ExtractorParams::paper_set1()).extract(&trace);
        for kind in [PatternKind::RegionVisits, PatternKind::MovementPattern] {
            let p = Profile::from_stays(kind, &stays, &grid);
            if !p.is_empty() {
                prop_assert!(Matcher::paper().compare(&p, &p).his_bin.is_leaky());
            }
        }
    }
}
