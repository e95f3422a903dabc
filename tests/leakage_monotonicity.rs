//! Monotonicity proofs for the traffic-leakage observation channel:
//! Deg_anonymity under the containment adversary is monotone
//! non-increasing as truncation precision d grows (more digits → smaller
//! candidate sets) and as the reporting interval i shrinks along a
//! divisor chain (more samples → smaller candidate sets). The exact
//! fixed points are pinned too: a lossless 1 Hz observation is the
//! identity channel, and d=0 collapses the whole synthetic city into one
//! cell — full anonymity, no re-identification. A differential property
//! pins the adversary's enrollment-time precision levels to projecting
//! every enrolled set per query.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch::model::leakage::{observe, sample_indices, CoordSet, LeakageAdversary, Precision, MAX_DECIMALS};
use backwatch::model::poi::{ExtractorParams, SpatioTemporalExtractor};
use backwatch::prelude::{LatLon, Seconds, SynthConfig, Timestamp, Trace, TracePoint};
use backwatch::trace::synth::generate_user;
use proptest::prelude::*;

/// Intervals forming a divisor chain: each entry divides the previous,
/// so the sampled fix sets nest and containment is provably monotone.
const CHAIN: [i64; 7] = [7200, 3600, 600, 60, 30, 5, 1];

const N_USERS: u32 = 5;

fn population() -> (SynthConfig, LeakageAdversary, Vec<backwatch::trace::Trace>) {
    let mut cfg = SynthConfig::small();
    cfg.n_users = N_USERS;
    let mut adversary = LeakageAdversary::new();
    let mut traces = Vec::new();
    for u in 0..cfg.n_users {
        let trace = generate_user(&cfg, u).trace;
        adversary.insert(u, CoordSet::from_trace(&trace));
        traces.push(trace);
    }
    (cfg, adversary, traces)
}

fn times_of(trace: &backwatch::trace::Trace) -> Vec<i64> {
    trace.points().iter().map(|p| p.time.as_secs()).collect()
}

/// A fix near a seam where cell indices change sign or wrap: the
/// equator / prime-meridian corner, or either side of the antimeridian.
fn fix_near_a_seam() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        (-0.05f64..0.05, -0.05f64..0.05),
        (-0.05f64..0.05, 179.95f64..=180.0),
        (-0.05f64..0.05, -180.0f64..-179.95),
    ]
}

fn trace_from(fixes: &[(f64, f64)]) -> Trace {
    Trace::from_points(
        fixes
            .iter()
            .enumerate()
            .map(|(i, &(lat, lon))| TracePoint::new(Timestamp::from_secs(i as i64), LatLon::new(lat, lon).unwrap()))
            .collect(),
    )
}

/// The containment test without precomputed levels: project every
/// enrolled set to the channel precision on each query.
fn reference_candidates(enrolled: &[(u32, CoordSet)], observed: &CoordSet, precision: Precision) -> Vec<u32> {
    let d = precision.containment_decimals();
    let obs = observed.project(d);
    enrolled
        .iter()
        .filter(|(_, set)| {
            let cand = set.project(d);
            obs.iter().all(|c| cand.binary_search(c).is_ok())
        })
        .map(|&(user, _)| user)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Axis 1: at a fixed reporting interval, revealing more decimal
    /// digits can only shrink the candidate set — Deg_anonymity is
    /// monotone non-increasing in d, and the true user never drops out.
    #[test]
    fn degree_is_monotone_in_precision(user in 0u32..N_USERS, interval_idx in 0usize..CHAIN.len()) {
        let (_, adversary, traces) = population();
        let interval = CHAIN[interval_idx];
        let observed = CoordSet::from_sampled(
            &traces[user as usize],
            &sample_indices(&times_of(&traces[user as usize]), Seconds::new(interval)),
        );
        let mut prev_degree = f64::INFINITY;
        let mut prev_candidates = usize::MAX;
        for d in 0..=MAX_DECIMALS {
            let candidates = adversary.candidates(&observed, Precision::Decimals(d));
            prop_assert!(
                candidates.contains(&user),
                "true user {user} dropped out of the candidate set at d={d}"
            );
            prop_assert!(candidates.len() <= prev_candidates, "candidate set grew at d={d}");
            let degree = adversary.degree(&observed, Precision::Decimals(d)).unwrap();
            prop_assert!(degree <= prev_degree + 1e-12, "degree rose at d={d}");
            prev_degree = degree;
            prev_candidates = candidates.len();
        }
        // Lossless ≡ Decimals(MAX_DECIMALS): the channel stores cells at
        // that resolution, so the last chain link is an exact tie
        let lossless = adversary.candidates(&observed, Precision::Lossless);
        prop_assert_eq!(lossless.len(), prev_candidates);
    }

    /// Axis 2: at fixed precision, shortening the reporting interval
    /// along a divisor chain only adds observed fixes — the candidate
    /// set shrinks and Deg_anonymity is monotone non-increasing.
    #[test]
    fn degree_is_monotone_in_interval(user in 0u32..N_USERS, d in 0u8..=MAX_DECIMALS) {
        let (_, adversary, traces) = population();
        let trace = &traces[user as usize];
        let times = times_of(trace);
        let mut prev_degree = f64::INFINITY;
        let mut prev_len = 0usize;
        for &interval in &CHAIN {
            let indices = sample_indices(&times, Seconds::new(interval));
            prop_assert!(indices.len() >= prev_len, "divisor chain lost samples at i={interval}");
            prev_len = indices.len();
            let observed = CoordSet::from_sampled(trace, &indices);
            let candidates = adversary.candidates(&observed, Precision::Decimals(d));
            prop_assert!(candidates.contains(&user));
            let degree = adversary.degree(&observed, Precision::Decimals(d)).unwrap();
            prop_assert!(
                degree <= prev_degree + 1e-12,
                "degree rose as the interval shrank to {interval}s at d={d}"
            );
            prev_degree = degree;
        }
    }

    /// Exact fixed point: a lossless 1 Hz observation IS the trace, and
    /// the full PoI pipeline on it reproduces the baseline stays.
    #[test]
    fn lossless_full_rate_observation_is_the_identity(user in 0u32..N_USERS) {
        let (_, _, traces) = population();
        let trace = &traces[user as usize];
        let leaked = observe(trace, Seconds::new(1), Precision::Lossless);
        prop_assert_eq!(&leaked, trace);
        let extractor = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
        prop_assert_eq!(extractor.extract(&leaked), extractor.extract(trace));
    }

    /// Exact fixed point: d=0 collapses the synthetic city (one whole
    /// degree of extent) into a single cell — every user matches every
    /// observation, the degree saturates at 1, nobody is identified.
    #[test]
    fn zero_decimals_collapse_to_full_anonymity(user in 0u32..N_USERS, interval_idx in 0usize..CHAIN.len()) {
        let (_, adversary, traces) = population();
        let trace = &traces[user as usize];
        let observed = CoordSet::from_sampled(trace, &sample_indices(&times_of(trace), Seconds::new(CHAIN[interval_idx])));
        let candidates = adversary.candidates(&observed, Precision::Decimals(0));
        prop_assert_eq!(candidates.len(), N_USERS as usize, "d=0 must match the whole population");
        let degree = adversary.degree(&observed, Precision::Decimals(0)).unwrap();
        prop_assert!((degree - 1.0).abs() < 1e-12, "d=0 degree must saturate at 1, got {degree}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The levels built once at enrollment answer every query exactly as
    /// per-query projection does: on cells of both signs (`div_euclid`
    /// rounds negative cells down), at both ends of the longitude range,
    /// for empty traces and a user enrolled twice, at every precision.
    #[test]
    fn candidates_equal_per_query_projection(
        traces in prop::collection::vec(prop::collection::vec(fix_near_a_seam(), 0..24), 1..6),
        stray in prop::collection::vec(fix_near_a_seam(), 1..8),
        stride in 1usize..4,
    ) {
        let mut enrolled: Vec<(u32, CoordSet)> = traces
            .iter()
            .enumerate()
            .map(|(u, fixes)| (u as u32, CoordSet::from_trace(&trace_from(fixes))))
            .collect();
        // the first user enrolls again under a fresh id
        enrolled.push((traces.len() as u32, enrolled[0].1.clone()));
        let mut adversary = LeakageAdversary::new();
        for (user, set) in &enrolled {
            adversary.insert(*user, set.clone());
        }
        // each user's strided sample, fixes nobody need have covered, and
        // the empty observation
        let mut observations = vec![CoordSet::default(), CoordSet::from_trace(&trace_from(&stray))];
        for fixes in &traces {
            let trace = trace_from(fixes);
            let indices: Vec<u32> = (0..trace.points().len() as u32).step_by(stride).collect();
            observations.push(CoordSet::from_sampled(&trace, &indices));
        }
        for precision in (0..=9).map(Precision::Decimals).chain([Precision::Lossless]) {
            for observed in &observations {
                prop_assert_eq!(
                    adversary.candidates(observed, precision),
                    reference_candidates(&enrolled, observed, precision),
                    "candidate sets differ at {:?} for {:?}",
                    precision,
                    observed
                );
            }
        }
    }
}

#[test]
fn empty_observation_matches_everyone_with_no_degree() {
    let (_, adversary, _) = population();
    let empty = CoordSet::from_sampled(&backwatch::trace::Trace::new(), &[]);
    let candidates = adversary.candidates(&empty, Precision::Lossless);
    assert_eq!(
        candidates.len(),
        N_USERS as usize,
        "the empty set is contained in every trace"
    );
}

#[test]
fn observed_stays_never_exceed_information_of_the_baseline_degree() {
    // the weakest channel (coarsest d, longest i) can never beat the
    // strongest (lossless, 1 Hz) on the same user
    let (_, adversary, traces) = population();
    let trace = &traces[0];
    let times = times_of(trace);
    let weakest = CoordSet::from_sampled(trace, &sample_indices(&times, Seconds::new(CHAIN[0])));
    let strongest = CoordSet::from_sampled(trace, &sample_indices(&times, Seconds::new(1)));
    let weak = adversary.degree(&weakest, Precision::Decimals(0)).unwrap();
    let strong = adversary.degree(&strongest, Precision::Lossless).unwrap();
    assert!(
        strong <= weak + 1e-12,
        "strongest channel degree {strong} above weakest {weak}"
    );
}
