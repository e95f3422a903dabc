//! Property-based tests for the trajectory substrate.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_geo::{LatLon, Seconds};
use backwatch_trace::{sampling, synth, SoaProjectedTrace, Timestamp, Trace, TracePoint};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = Trace> {
    // Random strictly-increasing gaps and small coordinate walks.
    prop::collection::vec((1i64..400, -5i32..5, -5i32..5), 0..120).prop_map(|steps| {
        let mut t = 0i64;
        let (mut lat, mut lon) = (39.9f64, 116.4f64);
        let mut pts = Vec::new();
        for (dt, dlat, dlon) in steps {
            t += dt;
            lat += f64::from(dlat) * 1e-4;
            lon += f64::from(dlon) * 1e-4;
            pts.push(TracePoint::new(Timestamp::from_secs(t), LatLon::new(lat, lon).unwrap()));
        }
        Trace::from_points(pts)
    })
}

proptest! {
    #[test]
    fn downsample_never_grows(trace in arb_trace(), interval in 1i64..5000) {
        let s = sampling::downsample(&trace, Seconds::new(interval));
        prop_assert!(s.len() <= trace.len());
    }

    #[test]
    fn downsample_is_subsequence(trace in arb_trace(), interval in 1i64..5000) {
        let s = sampling::downsample(&trace, Seconds::new(interval));
        let mut orig = trace.iter();
        for p in s.iter() {
            prop_assert!(orig.any(|q| q == p), "sampled point not in original order");
        }
    }

    #[test]
    fn downsample_spacing_respects_interval(trace in arb_trace(), interval in 1i64..5000) {
        let s = sampling::downsample(&trace, Seconds::new(interval));
        for w in s.points().windows(2) {
            prop_assert!(w[1].time - w[0].time >= interval);
        }
    }

    #[test]
    fn downsample_keeps_first_point(trace in arb_trace(), interval in 1i64..5000) {
        let s = sampling::downsample(&trace, Seconds::new(interval));
        prop_assert_eq!(s.first(), trace.first());
    }

    #[test]
    fn downsample_idempotent(trace in arb_trace(), interval in 1i64..5000) {
        let once = sampling::downsample(&trace, Seconds::new(interval));
        let twice = sampling::downsample(&once, Seconds::new(interval));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn coarser_interval_keeps_fewer(trace in arb_trace(), a in 1i64..1000, b in 1i64..1000) {
        let (small, large) = (a.min(b), a.max(b));
        let fine = sampling::downsample(&trace, Seconds::new(small));
        let coarse = sampling::downsample(&trace, Seconds::new(large));
        prop_assert!(coarse.len() <= fine.len());
    }

    #[test]
    fn rotation_preserves_multiset_of_positions(trace in arb_trace(), start_frac in 0.0f64..1.0) {
        if trace.len() >= 2 {
            let start = ((trace.len() - 1) as f64 * start_frac) as usize;
            let rot = sampling::rotate_to_start(&trace, start);
            prop_assert_eq!(rot.len(), trace.len());
            let mut a: Vec<u64> = trace.iter().map(|p| p.pos.lat().to_bits() ^ p.pos.lon().to_bits()).collect();
            let mut b: Vec<u64> = rot.iter().map(|p| p.pos.lat().to_bits() ^ p.pos.lon().to_bits()).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn split_by_gap_is_partition(trace in arb_trace(), gap in 1i64..600) {
        let parts = trace.split_by_gap(Seconds::new(gap));
        let total: usize = parts.iter().map(Trace::len).sum();
        prop_assert_eq!(total, trace.len());
        for part in &parts {
            for w in part.points().windows(2) {
                prop_assert!(w[1].time - w[0].time <= gap);
            }
        }
    }

    #[test]
    fn downsample_indices_select_the_owned_downsample(trace in arb_trace(), interval in 1i64..5000) {
        let owned = sampling::downsample(&trace, Seconds::new(interval));
        let indices = sampling::downsample_indices(&trace, Seconds::new(interval));
        prop_assert_eq!(owned.len(), indices.len());
        for (p, &i) in owned.iter().zip(&indices) {
            prop_assert_eq!(*p, trace.points()[i as usize]);
        }
    }

    #[test]
    fn borrowed_sampled_view_equals_owned_downsample(trace in arb_trace(), pick in 0usize..3) {
        // The paper's interval sweep endpoints plus the identity interval:
        // a borrowed index view over the projection must walk exactly the
        // points the owned downsample materializes (empty and single-point
        // traces included — arb_trace generates 0..120 points).
        let interval = [1i64, 60, 7200][pick];
        let owned = sampling::downsample(&trace, Seconds::new(interval));
        let projected = SoaProjectedTrace::project(&trace);
        let indices = sampling::downsample_indices(&trace, Seconds::new(interval));
        let view: Vec<_> = projected.sampled(&indices).collect();
        prop_assert_eq!(view.len(), owned.len());
        for (v, p) in view.iter().zip(owned.iter()) {
            prop_assert_eq!(v.time, p.time);
            prop_assert_eq!(v.pos, p.pos);
        }
    }

    #[test]
    fn rotated_view_equals_owned_rotation(trace in arb_trace(), start_frac in 0.0f64..1.0) {
        let start = if trace.len() < 2 { 0 } else { ((trace.len() - 1) as f64 * start_frac) as usize };
        let owned = sampling::rotate_to_start(&trace, start);
        let projected = SoaProjectedTrace::project(&trace);
        let view: Vec<_> = projected.rotated_from(start).collect();
        prop_assert_eq!(view.len(), owned.len());
        for (v, p) in view.iter().zip(owned.iter()) {
            prop_assert_eq!(v.time, p.time);
            prop_assert_eq!(v.pos, p.pos);
        }
    }

    #[test]
    fn synth_user_invariants(seed in 0u64..1000, user in 0u32..3) {
        let mut cfg = synth::SynthConfig::small();
        cfg.seed = seed;
        cfg.n_users = 3;
        cfg.days = 2;
        let u = synth::generate_user(&cfg, user);
        // strictly ordered trace
        prop_assert!(u.trace.points().windows(2).all(|w| w[0].time < w[1].time));
        // chronological non-overlapping visits
        prop_assert!(u.true_visits.windows(2).all(|w| w[1].arrive >= w[0].depart));
        // all visits reference valid places
        prop_assert!(u.true_visits.iter().all(|v| v.place < u.places.len()));
        // home bookends: first and last visit are home
        prop_assert_eq!(u.true_visits.first().unwrap().place, 0);
        prop_assert_eq!(u.true_visits.last().unwrap().place, 0);
    }
}
