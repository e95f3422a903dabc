//! Descriptive statistics and empirical CDFs for measurement reports.
//!
//! [`quantile`] and [`Ecdf`] are fed by long report pipelines where a
//! single NaN (e.g. a 0/0 ratio) used to take the whole run down with a
//! sort-comparator panic. They now *drop* non-finite values instead, and
//! every drop is counted in the `stats.summary.nonfinite_dropped_total`
//! telemetry counter so silent data loss stays visible.

/// Keeps only the finite values of `xs`, counting dropped NaN/±∞ in the
/// `stats.summary.nonfinite_dropped_total` telemetry counter.
fn finite_only(xs: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut out = Vec::new();
    let mut dropped: u64 = 0;
    for x in xs {
        if x.is_finite() {
            out.push(x);
        } else {
            dropped += 1;
        }
    }
    if dropped > 0 {
        crate::obs::register();
        crate::obs::SUMMARY_NONFINITE_DROPPED.add(dropped);
    }
    out
}

/// Arithmetic mean; `None` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation; `None` for an empty slice.
#[must_use]
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some((xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt())
}

/// Quantile by linear interpolation between order statistics
/// (the common "type 7" definition); `None` for an empty slice.
///
/// Non-finite values (NaN, ±∞) are dropped before the order statistics
/// are taken — each drop is counted in telemetry — and a slice with no
/// finite value yields `None`.
///
/// # Panics
///
/// Panics if `q ∉ [0, 1]`.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1], got {q}");
    let mut sorted = finite_only(xs.iter().copied());
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// An empirical cumulative distribution function over a sample.
///
/// # Examples
///
/// ```
/// use backwatch_stats::summary::Ecdf;
///
/// let ecdf = Ecdf::new(vec![1.0, 2.0, 2.0, 10.0]);
/// assert_eq!(ecdf.fraction_at_or_below(2.0), 0.75);
/// assert_eq!(ecdf.fraction_at_or_below(0.5), 0.0);
/// assert_eq!(ecdf.fraction_at_or_below(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from a sample, taking ownership and sorting it.
    ///
    /// Non-finite values (NaN, ±∞) are dropped rather than panicking; each
    /// drop is counted in the `stats.summary.nonfinite_dropped_total`
    /// telemetry counter.
    #[must_use]
    pub fn new(sample: Vec<f64>) -> Self {
        let mut sorted = finite_only(sample.into_iter());
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x`; `0.0` for an empty sample.
    #[must_use]
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The largest observation, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The smallest observation, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Evaluates the ECDF at each of `points`, producing `(x, F(x))` pairs —
    /// the series plotted in the paper's Figure 1.
    #[must_use]
    pub fn series(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.fraction_at_or_below(x))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert_eq!(std_dev(&xs), Some(2.0));
    }

    #[test]
    fn empty_stats_are_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_endpoints() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(3.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), Some(2.5));
    }

    #[test]
    fn ecdf_step_behaviour() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0, 3.0]);
        assert_eq!(e.fraction_at_or_below(0.0), 0.0);
        assert_eq!(e.fraction_at_or_below(1.0), 0.25);
        assert_eq!(e.fraction_at_or_below(2.9), 0.25);
        assert_eq!(e.fraction_at_or_below(3.0), 0.75);
        assert_eq!(e.fraction_at_or_below(100.0), 1.0);
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(5.0));
    }

    #[test]
    fn ecdf_series_matches_pointwise() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let s = e.series(&[0.5, 1.5, 3.5]);
        assert_eq!(s, vec![(0.5, 0.0), (1.5, 1.0 / 3.0), (3.5, 1.0)]);
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(Vec::new());
        assert!(e.is_empty());
        assert_eq!(e.fraction_at_or_below(1.0), 0.0);
        assert_eq!(e.max(), None);
    }

    #[test]
    fn quantile_drops_nonfinite_and_counts_them() {
        crate::obs::register();
        let before = crate::obs::SUMMARY_NONFINITE_DROPPED.get();
        let xs = [f64::NAN, 3.0, f64::INFINITY, 1.0, f64::NEG_INFINITY, 2.0];
        assert_eq!(quantile(&xs, 0.5), Some(2.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(3.0));
        let dropped = crate::obs::SUMMARY_NONFINITE_DROPPED.get() - before;
        // three calls, three non-finite values each
        assert_eq!(dropped, 9, "unexpected drop count {dropped}");
    }

    #[test]
    fn quantile_of_only_nonfinite_is_none() {
        assert_eq!(quantile(&[f64::NAN], 0.5), None);
        assert_eq!(quantile(&[f64::INFINITY, f64::NEG_INFINITY], 0.5), None);
    }

    #[test]
    fn ecdf_drops_nonfinite() {
        let e = Ecdf::new(vec![f64::NAN, 1.0, f64::INFINITY, 2.0]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.max(), Some(2.0));
        assert_eq!(e.fraction_at_or_below(1.5), 0.5);
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        fn messy_f64() -> impl Strategy<Value = f64> {
            prop_oneof![
                -1.0e9..1.0e9f64,
                -1.0e9..1.0e9f64,
                -1.0e9..1.0e9f64,
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ]
        }

        proptest! {
            #[test]
            fn quantile_never_panics_and_matches_finite_subset(
                xs in prop::collection::vec(messy_f64(), 0..40),
                q in 0.0..=1.0f64,
            ) {
                let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
                let got = quantile(&xs, q);
                let want = quantile(&finite, q);
                prop_assert_eq!(got.is_some(), !finite.is_empty());
                if let (Some(g), Some(w)) = (got, want) {
                    prop_assert!((g - w).abs() <= 1e-12 * w.abs().max(1.0));
                }
            }

            #[test]
            fn ecdf_never_panics_and_keeps_only_finite(
                xs in prop::collection::vec(messy_f64(), 0..40),
            ) {
                let n_finite = xs.iter().filter(|x| x.is_finite()).count();
                let e = Ecdf::new(xs);
                prop_assert_eq!(e.len(), n_finite);
                // monotone and bounded even after filtering
                prop_assert!(e.fraction_at_or_below(f64::NEG_INFINITY) <= e.fraction_at_or_below(f64::INFINITY));
                if n_finite > 0 {
                    prop_assert_eq!(e.fraction_at_or_below(e.max().unwrap()), 1.0);
                }
            }
        }
    }
}
