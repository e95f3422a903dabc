//! Property-based tests for the LPPM mechanisms.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_defense::cloaking::KAnonymousCloaking;
use backwatch_defense::decoy::{FixedDecoy, SyntheticDecoy};
use backwatch_defense::geoind::GeoIndistinguishability;
use backwatch_defense::perturbation::GaussianPerturbation;
use backwatch_defense::suppression::{SensitiveZone, ZoneSuppression};
use backwatch_defense::throttle::ReleaseThrottle;
use backwatch_defense::truncation::GridTruncation;
use backwatch_defense::{Lppm, NoDefense};
use backwatch_geo::{Grid, LatLon, Meters, Seconds};
use backwatch_trace::{Timestamp, Trace, TracePoint};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((1i64..300, -50i32..50, -50i32..50), 0..80).prop_map(|steps| {
        let mut t = 0i64;
        let (mut lat, mut lon) = (39.9f64, 116.4f64);
        let mut pts = Vec::new();
        for (dt, dlat, dlon) in steps {
            t += dt;
            lat = (lat + f64::from(dlat) * 1e-4).clamp(39.0, 40.8);
            lon = (lon + f64::from(dlon) * 1e-4).clamp(115.5, 117.3);
            pts.push(TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap()));
        }
        Trace::from_points(pts)
    })
}

fn origin() -> LatLon {
    LatLon::new(39.9, 116.4).unwrap()
}

/// Every non-suppressing mechanism in one object-safe list.
fn shape_preserving() -> Vec<Box<dyn Lppm>> {
    vec![
        Box::new(NoDefense),
        Box::new(GaussianPerturbation::new(Meters::new(30.0))),
        Box::new(GeoIndistinguishability::new(0.01)),
        Box::new(GridTruncation::new(Grid::new(origin(), Meters::new(500.0)))),
        Box::new(KAnonymousCloaking::new(origin(), Meters::new(250.0), 6, 2, vec![origin()])),
        Box::new(FixedDecoy::new(origin())),
        Box::new(SyntheticDecoy::new(origin(), Meters::new(15.0), Meters::new(400.0))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shape_preserving_mechanisms_keep_length_and_times(trace in arb_trace(), seed in 0u64..1000) {
        for mech in shape_preserving() {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = mech.apply(&trace, &mut rng);
            prop_assert_eq!(out.len(), trace.len(), "{} changed the fix count", mech.name());
            for (a, b) in trace.iter().zip(out.iter()) {
                prop_assert_eq!(a.time, b.time, "{} changed timestamps", mech.name());
            }
        }
    }

    #[test]
    fn all_mechanisms_are_deterministic_per_seed(trace in arb_trace(), seed in 0u64..1000) {
        let mut all = shape_preserving();
        all.push(Box::new(ReleaseThrottle::new(Seconds::new(60))));
        all.push(Box::new(ZoneSuppression::new(vec![SensitiveZone::new(origin(), Meters::new(500.0))])));
        for mech in all {
            let a = mech.apply(&trace, &mut StdRng::seed_from_u64(seed));
            let b = mech.apply(&trace, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(a, b, "{} is not deterministic", mech.name());
        }
    }

    #[test]
    fn throttle_output_is_a_time_subset(trace in arb_trace(), interval in 1i64..600) {
        let mut rng = StdRng::seed_from_u64(0);
        let out = ReleaseThrottle::new(Seconds::new(interval)).apply(&trace, &mut rng);
        prop_assert!(out.len() <= trace.len());
        for w in out.points().windows(2) {
            prop_assert!(w[1].time - w[0].time >= interval);
        }
        // every released fix is an original fix
        for p in out.iter() {
            prop_assert!(trace.iter().any(|q| q == p));
        }
    }

    #[test]
    fn suppression_never_releases_zone_fixes(trace in arb_trace(), radius in 100.0f64..5000.0) {
        let zone = SensitiveZone::new(origin(), Meters::new(radius));
        let mech = ZoneSuppression::new(vec![zone]);
        let mut rng = StdRng::seed_from_u64(0);
        let out = mech.apply(&trace, &mut rng);
        use backwatch_geo::distance::Metric;
        for p in out.iter() {
            prop_assert!(!zone.contains(p.pos, Metric::Equirectangular));
        }
        prop_assert!(out.len() <= trace.len());
    }

    #[test]
    fn truncation_is_idempotent(trace in arb_trace()) {
        let grid = Grid::new(origin(), Meters::new(750.0));
        let mech = GridTruncation::new(grid);
        let mut rng = StdRng::seed_from_u64(0);
        let once = mech.apply(&trace, &mut rng);
        let twice = mech.apply(&once, &mut rng);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn decoys_never_release_true_positions(trace in arb_trace()) {
        // the decoy anchor is far outside the generated envelope
        let anchor = LatLon::new(38.0, 114.0).unwrap();
        for mech in [
            Box::new(FixedDecoy::new(anchor)) as Box<dyn Lppm>,
            Box::new(SyntheticDecoy::new(anchor, Meters::new(15.0), Meters::new(400.0))),
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            let out = mech.apply(&trace, &mut rng);
            use backwatch_geo::distance::haversine;
            for p in out.iter() {
                prop_assert!(haversine(p.pos, anchor) < 1_000.0, "{} leaked a real fix", mech.name());
            }
        }
    }

    #[test]
    fn cloak_equals_brute_force_anchor_rescan(
        anchors in prop::collection::vec((-60i32..60, -60i32..60), 1..40),
        positions in prop::collection::vec((-80i32..80, -80i32..80), 1..40),
        k in 1usize..12,
        levels in 1usize..8,
    ) {
        // 1e-3 degree steps (~100 m): anchors crowd some 250 m cells and
        // leave others empty, so every level of the hierarchy gets used
        let at = |(dlat, dlon): (i32, i32)| {
            LatLon::new(39.9 + f64::from(dlat) * 1e-3, 116.4 + f64::from(dlon) * 1e-3).unwrap()
        };
        let anchors: Vec<LatLon> = anchors.into_iter().map(at).collect();
        let mech = KAnonymousCloaking::new(origin(), Meters::new(250.0), levels, k, anchors.clone());
        let grids: Vec<Grid> = (0..levels)
            .map(|i| Grid::new(origin(), Meters::new(250.0 * f64::powi(2.0, i as i32))))
            .collect();
        for pos in positions.into_iter().map(at) {
            // reference: rescan every anchor at each level, finest first
            let brute = grids
                .iter()
                .find(|g| anchors.iter().filter(|a| g.cell_of(**a) == g.cell_of(pos)).count() >= k)
                .unwrap_or(&grids[levels - 1])
                .snap(pos);
            let got = mech.cloak(pos);
            prop_assert_eq!(got.lat().to_bits(), brute.lat().to_bits());
            prop_assert_eq!(got.lon().to_bits(), brute.lon().to_bits());
        }
    }
}
