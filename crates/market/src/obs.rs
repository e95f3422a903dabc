//! Telemetry statics for the market crate.

use backwatch_obs::{Counter, Histogram};
use std::sync::Once;

/// Apps run through the dynamic-analysis protocol.
pub static DYNAMIC_APPS: Counter = Counter::new();
/// Apps observed to keep listeners alive in the background.
pub static DYNAMIC_BACKGROUND_APPS: Counter = Counter::new();
/// Apps classified by the static reachability analyzer.
pub static REACH_APPS_CLASSIFIED: Counter = Counter::new();
/// Apps the analyzer classified background-capable or auto-start.
pub static REACH_BACKGROUND_APPS: Counter = Counter::new();
/// Declared components whose class was absent from the lowered IR.
pub static REACH_MISSING_COMPONENTS: Counter = Counter::new();
/// Lowered programs that failed the IR text round-trip.
pub static REACH_PARSE_FAILURES: Counter = Counter::new();
/// Functional apps whose inferred provider set matches no Table I combo.
pub static REACH_UNKNOWN_COMBO: Counter = Counter::new();
/// Rendered manifests that failed to parse back during static triage.
pub static STATIC_PARSE_FAILURES: Counter = Counter::new();
/// Ratio computations that hit a zero denominator and returned 0.0.
pub static STATIC_ZERO_DENOMINATOR: Counter = Counter::new();
/// Per-class summary lookups served from the content-hash cache.
pub static REACH_CACHE_HITS: Counter = Counter::new();
/// Per-class summary lookups that had to compute a fresh summary.
pub static REACH_CACHE_MISSES: Counter = Counter::new();
/// Apps an *incremental* sweep actually re-analyzed because their
/// app-level digest changed (cold sweeps do not count — they are not
/// re-analyses).
pub static REACH_APPS_REANALYZED: Counter = Counter::new();
/// Apps classified by the interprocedural taint pass.
pub static TAINT_APPS_CLASSIFIED: Counter = Counter::new();
/// Apps the taint pass classified no-access.
pub static TAINT_NO_ACCESS: Counter = Counter::new();
/// Apps that read location but never reach a network sink.
pub static TAINT_ACCESS_ONLY: Counter = Counter::new();
/// Apps in either exfiltration class (sanitized or raw).
pub static TAINT_HITS: Counter = Counter::new();
/// Apps whose every leaking path passed a sanitizer.
pub static TAINT_EXFIL_SANITIZED: Counter = Counter::new();
/// Apps leaking raw, full-precision location.
pub static TAINT_EXFIL_RAW: Counter = Counter::new();

/// Bucket bounds, in wall-clock seconds, for one whole-corpus sweep:
/// sub-second small corpora up to multi-minute million-app sweeps.
static SWEEP_BOUNDS_S: [u64; 9] = [1, 2, 5, 10, 30, 60, 120, 300, 600];

/// Wall-clock seconds one corpus sweep (cold or incremental) took.
pub static REACH_SWEEP_SECONDS: Histogram = Histogram::new(&SWEEP_BOUNDS_S);

static REGISTER: Once = Once::new();

/// Registers this crate's metrics with the global registry (idempotent).
pub fn register() {
    REGISTER.call_once(|| {
        backwatch_obs::register_counter(
            "market.dynamic.apps_analyzed_total",
            "apps run through the dynamic-analysis protocol",
            &DYNAMIC_APPS,
        );
        backwatch_obs::register_counter(
            "market.dynamic.background_apps_total",
            "apps whose listeners survived backgrounding",
            &DYNAMIC_BACKGROUND_APPS,
        );
        backwatch_obs::register_counter(
            "market.reach.apps_classified_total",
            "apps classified by the static reachability analyzer",
            &REACH_APPS_CLASSIFIED,
        );
        backwatch_obs::register_counter(
            "market.reach.background_apps_total",
            "apps the analyzer classified background-capable or auto-start",
            &REACH_BACKGROUND_APPS,
        );
        backwatch_obs::register_counter(
            "market.reach.missing_components_total",
            "declared components whose class was absent from the IR",
            &REACH_MISSING_COMPONENTS,
        );
        backwatch_obs::register_counter(
            "market.reach.parse_failures_total",
            "lowered programs that failed the IR text round-trip",
            &REACH_PARSE_FAILURES,
        );
        backwatch_obs::register_counter(
            "market.reach.unknown_combo_total",
            "functional apps whose provider set matches no Table I combo",
            &REACH_UNKNOWN_COMBO,
        );
        backwatch_obs::register_counter(
            "market.reach.cache_hits_total",
            "per-class summary lookups served from the content-hash cache",
            &REACH_CACHE_HITS,
        );
        backwatch_obs::register_counter(
            "market.reach.cache_misses_total",
            "per-class summary lookups that computed a fresh summary",
            &REACH_CACHE_MISSES,
        );
        backwatch_obs::register_counter(
            "market.reach.apps_reanalyzed_total",
            "apps an incremental sweep re-analyzed after a digest change",
            &REACH_APPS_REANALYZED,
        );
        backwatch_obs::register_histogram(
            "market.reach.sweep_seconds",
            "wall-clock seconds one corpus sweep took",
            &REACH_SWEEP_SECONDS,
        );
        backwatch_obs::register_counter(
            "market.taint.apps_classified_total",
            "apps classified by the interprocedural taint pass",
            &TAINT_APPS_CLASSIFIED,
        );
        backwatch_obs::register_counter(
            "market.taint.no_access_total",
            "apps the taint pass classified no-access",
            &TAINT_NO_ACCESS,
        );
        backwatch_obs::register_counter(
            "market.taint.access_only_total",
            "apps that read location but never reach a network sink",
            &TAINT_ACCESS_ONLY,
        );
        backwatch_obs::register_counter(
            "market.taint.hits_total",
            "apps in either exfiltration class, sanitized or raw",
            &TAINT_HITS,
        );
        backwatch_obs::register_counter(
            "market.taint.exfil_sanitized_total",
            "apps whose every leaking path passed a sanitizer",
            &TAINT_EXFIL_SANITIZED,
        );
        backwatch_obs::register_counter(
            "market.taint.exfil_raw_total",
            "apps leaking raw full-precision location",
            &TAINT_EXFIL_RAW,
        );
        backwatch_obs::register_counter(
            "market.static.parse_failures_total",
            "rendered manifests that failed to parse back during triage",
            &STATIC_PARSE_FAILURES,
        );
        backwatch_obs::register_counter(
            "market.static.zero_denominator_total",
            "ratio computations that hit a zero denominator",
            &STATIC_ZERO_DENOMINATOR,
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
        assert!(snap.counter("market.dynamic.apps_analyzed_total").is_some());
    }
}
