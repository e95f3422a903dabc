//! Telemetry statics for the stats crate.
//!
//! Counters live here as `static` items so instrumented code pays one
//! relaxed `fetch_add` and never touches the registry; [`register`] is
//! idempotent and called lazily from the instrumentation sites.

use backwatch_obs::Counter;
use std::sync::Once;

/// Pearson chi-square goodness-of-fit evaluations run.
pub static CHI2_EVALS: Counter = Counter::new();
/// Non-finite values (NaN, ±∞) dropped from quantile/ECDF inputs.
pub static SUMMARY_NONFINITE_DROPPED: Counter = Counter::new();

static REGISTER: Once = Once::new();

/// Registers this crate's metrics with the global registry (idempotent).
pub fn register() {
    REGISTER.call_once(|| {
        backwatch_obs::register_counter(
            "stats.chi2.evals_total",
            "Pearson chi-square goodness-of-fit evaluations",
            &CHI2_EVALS,
        );
        backwatch_obs::register_counter(
            "stats.summary.nonfinite_dropped_total",
            "non-finite values dropped from quantile/ECDF inputs",
            &SUMMARY_NONFINITE_DROPPED,
        );
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_is_idempotent() {
        super::register();
        super::register();
        let snap = backwatch_obs::snapshot();
        assert!(snap.counter("stats.chi2.evals_total").is_some());
    }
}
