//! Property-based tests for the statistics substrate.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_stats::{chi2, entropy, gamma, summary::Ecdf, CountHistogram};
use proptest::prelude::*;

proptest! {
    #[test]
    fn ln_gamma_recurrence(x in 0.1f64..50.0) {
        // Γ(x+1) = x Γ(x)  =>  lnΓ(x+1) = ln x + lnΓ(x)
        let lhs = gamma::ln_gamma(x + 1.0);
        let rhs = x.ln() + gamma::ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9, "x={x} lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn incomplete_gamma_complementary(a in 0.1f64..100.0, x in 0.0f64..200.0) {
        let p = gamma::reg_lower_gamma(a, x);
        let q = gamma::reg_upper_gamma(a, x);
        prop_assert!((p + q - 1.0).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn chi2_cdf_bounds_and_monotonicity(df in 0.5f64..200.0, x in 0.0f64..500.0, dx in 0.0f64..50.0) {
        let c1 = chi2::cdf(x, df);
        let c2 = chi2::cdf(x + dx, df);
        prop_assert!((0.0..=1.0).contains(&c1));
        prop_assert!(c2 >= c1 - 1e-12);
    }

    #[test]
    fn chi2_inverse_round_trip(df in 0.5f64..150.0, p in 0.001f64..0.999) {
        let x = chi2::inverse_cdf(p, df);
        prop_assert!((chi2::cdf(x, df) - p).abs() < 1e-8, "df={df} p={p} x={x}");
    }

    #[test]
    fn gof_statistic_zero_iff_equal(counts in prop::collection::vec(1.0f64..1000.0, 2..30)) {
        let out = chi2::GofTest::new(0.05, chi2::Tail::Upper).run(&counts, &counts).unwrap();
        prop_assert_eq!(out.statistic, 0.0);
        prop_assert!(!out.rejected);
    }

    #[test]
    fn gof_statistic_nonnegative(
        observed in prop::collection::vec(0.0f64..1000.0, 5),
        expected in prop::collection::vec(0.1f64..1000.0, 5),
    ) {
        let out = chi2::GofTest::new(0.05, chi2::Tail::Upper).run(&observed, &expected).unwrap();
        prop_assert!(out.statistic >= 0.0);
        prop_assert!((0.0..=1.0).contains(&out.p_value));
    }

    #[test]
    fn histogram_total_conserved(keys in prop::collection::vec(0u32..50, 0..200)) {
        let h: CountHistogram<u32> = keys.iter().copied().collect();
        prop_assert_eq!(h.total() as usize, keys.len());
        let recount: u64 = h.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(recount, h.total());
    }

    #[test]
    fn histogram_align_preserves_counts(
        a in prop::collection::vec(0u32..20, 1..100),
        b in prop::collection::vec(0u32..20, 1..100),
    ) {
        let ha: CountHistogram<u32> = a.iter().copied().collect();
        let hb: CountHistogram<u32> = b.iter().copied().collect();
        let (obs, exp) = ha.align(&hb);
        prop_assert_eq!(obs.len(), exp.len());
        prop_assert_eq!(obs.iter().sum::<f64>() as u64, ha.total());
        prop_assert_eq!(exp.iter().sum::<f64>() as u64, hb.total());
    }

    #[test]
    fn union_counts_equals_sorted_key_lookup(
        a in prop::collection::vec(0u32..20, 0..100),
        b in prop::collection::vec(0u32..20, 0..100),
    ) {
        // reference: collect both key sets, sort, dedup, look each up
        let ha: CountHistogram<u32> = a.iter().copied().collect();
        let hb: CountHistogram<u32> = b.iter().copied().collect();
        let mut keys: Vec<u32> = ha.keys().chain(hb.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let reference: Vec<(u64, u64)> = keys.iter().map(|k| (ha.count(k), hb.count(k))).collect();
        let merged: Vec<(u64, u64)> = ha.union_counts(&hb).collect();
        prop_assert_eq!(merged, reference);
    }

    #[test]
    fn entropy_bounded_by_log_n(weights in prop::collection::vec(0.001f64..100.0, 1..64)) {
        let probs = entropy::normalize(&weights).unwrap();
        let h = entropy::shannon_bits(&probs);
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (weights.len() as f64).log2() + 1e-9);
    }

    #[test]
    fn degree_of_anonymity_in_unit_interval(weights in prop::collection::vec(0.0f64..100.0, 1..64)) {
        if let Some(d) = entropy::degree_of_anonymity(&weights) {
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn ecdf_monotone(sample in prop::collection::vec(-1000.0f64..1000.0, 1..200), a in -1000.0f64..1000.0, b in 0.0f64..500.0) {
        let e = Ecdf::new(sample);
        prop_assert!(e.fraction_at_or_below(a) <= e.fraction_at_or_below(a + b) + 1e-12);
        prop_assert_eq!(e.fraction_at_or_below(f64::from(2000)), 1.0);
    }
}
