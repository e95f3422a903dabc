//! Chi-square distribution and Pearson's goodness-of-fit test.
//!
//! The paper decides whether an adversary's collected histogram "fits" a
//! user's profile with a Pearson chi-square goodness-of-fit test (§IV-B,
//! Formula 1), rejecting the null at p < 0.05 on the *lower* tail: a very
//! small statistic means the observed histogram matches the profile too
//! poorly-scaled to be distinguishable — in the paper's convention, failing
//! to reject means the release is **unsafe** (`His_bin = 1`).

use crate::gamma::{reg_lower_gamma, reg_upper_gamma};

/// Cumulative distribution function of chi-square with `df` degrees of
/// freedom: `Pr[X <= x]`.
///
/// # Panics
///
/// Panics if `df <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// use backwatch_stats::chi2::cdf;
///
/// // median of chi-square(2) is 2 ln 2 ≈ 1.386
/// assert!((cdf(2.0 * 2f64.ln(), 2.0) - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn cdf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");
    assert!(x >= 0.0, "chi-square statistic must be non-negative, got {x}");
    reg_lower_gamma(df / 2.0, x / 2.0)
}

/// Survival function `Pr[X > x] = 1 - cdf(x, df)` — the classic upper-tail
/// p-value.
///
/// # Panics
///
/// Panics if `df <= 0` or `x < 0`.
#[must_use]
pub fn survival(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");
    assert!(x >= 0.0, "chi-square statistic must be non-negative, got {x}");
    reg_upper_gamma(df / 2.0, x / 2.0)
}

/// Inverse CDF (quantile function) by bisection: the `x` with
/// `cdf(x, df) = p`.
///
/// Accurate to ~1e-10 in `x`, which is far tighter than any use in this
/// workspace requires.
///
/// # Panics
///
/// Panics if `df <= 0` or `p ∉ [0, 1)`.
#[must_use]
pub fn inverse_cdf(p: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive, got {df}");
    assert!((0.0..1.0).contains(&p), "probability must be in [0, 1), got {p}");
    if p == 0.0 {
        return 0.0;
    }
    // Bracket the root: mean + 20 sd always covers the needed quantiles.
    let mut lo = 0.0f64;
    let mut hi = df + 20.0 * (2.0 * df).sqrt() + 20.0;
    while cdf(hi, df) < p {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Which tail of the chi-square distribution a goodness-of-fit test
/// examines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tail {
    /// Classic Pearson upper tail: reject when the statistic is large
    /// (observed counts deviate from expectations).
    Upper,
    /// Lower tail, as used by the paper: reject when the statistic is
    /// small. The paper tests the lower tail so that *failing* to reject
    /// means the collected (scaled) histogram is consistent with the
    /// profile.
    #[default]
    Lower,
}

/// Result of a chi-square goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GofOutcome {
    /// The Pearson statistic `Σ (o_i - e_i)² / e_i`.
    pub statistic: f64,
    /// Degrees of freedom used, `k - 1` for `k` categories.
    pub df: f64,
    /// The p-value on the requested tail.
    pub p_value: f64,
    /// Whether the null hypothesis (observations drawn from the expected
    /// distribution) was rejected at the configured significance level.
    pub rejected: bool,
}

/// A configured Pearson chi-square goodness-of-fit test.
///
/// # Examples
///
/// ```
/// use backwatch_stats::{GofTest, chi2::Tail};
///
/// let test = GofTest::new(0.05, Tail::Upper);
/// // A die rolled 120 times, perfectly uniform: cannot reject fairness.
/// let outcome = test.run(&[20.0; 6], &[20.0; 6]).unwrap();
/// assert!(!outcome.rejected);
/// assert_eq!(outcome.statistic, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GofTest {
    alpha: f64,
    tail: Tail,
}

/// Error produced by [`GofTest::run`] on malformed inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GofError {
    /// Observed and expected slices have different lengths.
    LengthMismatch {
        /// Number of observed categories.
        observed: usize,
        /// Number of expected categories.
        expected: usize,
    },
    /// Fewer than two categories — no degrees of freedom.
    TooFewCategories,
    /// An expected count was zero or negative (Pearson's statistic is
    /// undefined there).
    NonPositiveExpected {
        /// Index of the offending category.
        index: usize,
    },
}

impl std::fmt::Display for GofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GofError::LengthMismatch { observed, expected } => {
                write!(f, "observed has {observed} categories but expected has {expected}")
            }
            GofError::TooFewCategories => write!(f, "goodness-of-fit needs at least two categories"),
            GofError::NonPositiveExpected { index } => {
                write!(f, "expected count at index {index} is not positive")
            }
        }
    }
}

impl std::error::Error for GofError {}

impl Default for GofTest {
    fn default() -> Self {
        Self::paper()
    }
}

impl GofTest {
    /// Creates a test with significance level `alpha` on the given tail.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ∉ (0, 1)`.
    #[must_use]
    pub fn new(alpha: f64, tail: Tail) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1), got {alpha}");
        Self { alpha, tail }
    }

    /// The paper's configuration: lower-tail test at α = 0.05 (§IV-C).
    #[must_use]
    pub fn paper() -> Self {
        Self::new(0.05, Tail::Lower)
    }

    /// The configured significance level.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The configured tail.
    #[must_use]
    pub fn tail(&self) -> Tail {
        self.tail
    }

    /// Runs the test of `observed` counts against `expected` counts.
    ///
    /// Degrees of freedom are `k - 1` where `k = observed.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`GofError`] if the slices differ in length, have fewer than
    /// two categories, or any expected count is non-positive.
    pub fn run(&self, observed: &[f64], expected: &[f64]) -> Result<GofOutcome, GofError> {
        if observed.len() != expected.len() {
            return Err(GofError::LengthMismatch {
                observed: observed.len(),
                expected: expected.len(),
            });
        }
        if observed.len() < 2 {
            return Err(GofError::TooFewCategories);
        }
        crate::obs::register();
        crate::obs::CHI2_EVALS.inc();
        let mut statistic = 0.0;
        for (i, (&o, &e)) in observed.iter().zip(expected).enumerate() {
            if e <= 0.0 || e.is_nan() {
                return Err(GofError::NonPositiveExpected { index: i });
            }
            let d = o - e;
            statistic += d * d / e;
        }
        let df = (observed.len() - 1) as f64;
        let p_value = match self.tail {
            Tail::Upper => survival(statistic, df),
            Tail::Lower => cdf(statistic, df),
        };
        Ok(GofOutcome {
            statistic,
            df,
            p_value,
            rejected: p_value < self.alpha,
        })
    }
}

/// Convenience wrapper: Pearson chi-square goodness-of-fit with the paper's
/// configuration (lower tail, α = 0.05).
///
/// # Errors
///
/// Propagates [`GofError`] from [`GofTest::run`].
pub fn chi_square_gof(observed: &[f64], expected: &[f64]) -> Result<GofOutcome, GofError> {
    GofTest::paper().run(observed, expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published chi-square critical values: (df, upper-tail alpha, value).
    const CRITICAL_VALUES: &[(f64, f64, f64)] = &[
        (1.0, 0.05, 3.841),
        (2.0, 0.05, 5.991),
        (3.0, 0.05, 7.815),
        (4.0, 0.05, 9.488),
        (5.0, 0.05, 11.070),
        (10.0, 0.05, 18.307),
        (20.0, 0.05, 31.410),
        (1.0, 0.01, 6.635),
        (5.0, 0.01, 15.086),
        (10.0, 0.01, 23.209),
        (30.0, 0.05, 43.773),
        (100.0, 0.05, 124.342),
    ];

    #[test]
    fn survival_matches_published_tables() {
        for &(df, alpha, crit) in CRITICAL_VALUES {
            let p = survival(crit, df);
            assert!((p - alpha).abs() < 5e-4, "df={df} crit={crit}: p={p} want {alpha}");
        }
    }

    #[test]
    fn inverse_cdf_matches_published_tables() {
        for &(df, alpha, crit) in CRITICAL_VALUES {
            let x = inverse_cdf(1.0 - alpha, df);
            assert!((x - crit).abs() < 5e-3, "df={df}: x={x} want {crit}");
        }
    }

    #[test]
    fn cdf_is_monotone() {
        let mut last = 0.0;
        for i in 0..500 {
            let x = f64::from(i) * 0.1;
            let c = cdf(x, 7.0);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn inverse_round_trip() {
        for df in [1.0, 2.0, 5.0, 17.0, 80.0] {
            for p in [0.01, 0.1, 0.5, 0.9, 0.99] {
                let x = inverse_cdf(p, df);
                assert!((cdf(x, df) - p).abs() < 1e-9, "df={df} p={p}");
            }
        }
    }

    #[test]
    fn gof_rejects_gross_mismatch_upper() {
        let test = GofTest::new(0.05, Tail::Upper);
        let observed = [100.0, 0.0, 0.0, 0.0];
        let expected = [25.0, 25.0, 25.0, 25.0];
        let out = test.run(&observed, &expected).unwrap();
        assert!(out.rejected);
        assert!(out.statistic > 100.0);
    }

    #[test]
    fn gof_accepts_exact_match_upper() {
        let test = GofTest::new(0.05, Tail::Upper);
        let counts = [10.0, 20.0, 30.0];
        let out = test.run(&counts, &counts).unwrap();
        assert!(!out.rejected);
        assert_eq!(out.statistic, 0.0);
        assert!((out.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_lower_tail_rejects_exact_match() {
        // In the paper's lower-tail convention, a statistic of ~0 has
        // p ≈ 0 < 0.05 on the lower tail → null rejected → histograms
        // "match" → the release is unsafe. The rejection flag is true here;
        // His_bin interpretation is layered on in the privacy crate.
        let out = chi_square_gof(&[10.0, 20.0, 30.0], &[10.0, 20.0, 30.0]).unwrap();
        assert!(out.rejected);
        assert!(out.p_value < 1e-6);
    }

    #[test]
    fn gof_error_on_length_mismatch() {
        let err = chi_square_gof(&[1.0, 2.0], &[1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(
            err,
            GofError::LengthMismatch {
                observed: 2,
                expected: 3
            }
        ));
    }

    #[test]
    fn gof_error_on_single_category() {
        let err = chi_square_gof(&[1.0], &[1.0]).unwrap_err();
        assert_eq!(err, GofError::TooFewCategories);
    }

    #[test]
    fn gof_error_on_zero_expected() {
        let err = chi_square_gof(&[1.0, 2.0], &[1.0, 0.0]).unwrap_err();
        assert_eq!(err, GofError::NonPositiveExpected { index: 1 });
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = GofTest::new(1.5, Tail::Upper);
    }

    #[test]
    fn default_is_paper_config() {
        let t = GofTest::default();
        assert_eq!(t.alpha(), 0.05);
        assert_eq!(t.tail(), Tail::Lower);
    }
}
