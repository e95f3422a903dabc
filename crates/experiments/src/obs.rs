//! Telemetry statics for the experiments crate, plus the one-stop
//! [`register_all`]/[`snapshot_text`] pair the report binaries use.

use backwatch_obs::{Counter, Gauge, Histogram};
use std::sync::Once;

/// [`crate::pool::map_users`] invocations.
pub static POOL_MAPS: Counter = Counter::new();
/// User indices claimed by pool workers (exactly once each, by contract).
pub static POOL_TASKS_CLAIMED: Counter = Counter::new();
/// Microseconds pool workers spent inside the per-user closure.
pub static POOL_BUSY_US: Counter = Counter::new();
/// Microseconds pool workers spent waiting (wall time minus busy time).
pub static POOL_IDLE_US: Counter = Counter::new();
/// Workers currently running a map pass.
pub static POOL_WORKERS_ACTIVE: Gauge = Gauge::new();
/// Worker count the most recent map pass actually ran after clamping the
/// request to the population size and the host's available parallelism.
pub static POOL_EFFECTIVE_WORKERS: Gauge = Gauge::new();
/// Per-user task latency across all map passes.
pub static POOL_TASK_US: Histogram = Histogram::new(&backwatch_obs::LATENCY_BOUNDS_US);

static REGISTER: Once = Once::new();

/// Registers this crate's metrics with the global registry (idempotent).
pub fn register() {
    REGISTER.call_once(|| {
        backwatch_obs::register_counter("experiments.pool.maps_total", "map_users invocations", &POOL_MAPS);
        backwatch_obs::register_counter(
            "experiments.pool.tasks_claimed_total",
            "user indices claimed by workers",
            &POOL_TASKS_CLAIMED,
        );
        backwatch_obs::register_counter(
            "experiments.pool.busy_us_total",
            "worker time inside the per-user closure",
            &POOL_BUSY_US,
        );
        backwatch_obs::register_counter("experiments.pool.idle_us_total", "worker time spent waiting", &POOL_IDLE_US);
        backwatch_obs::register_gauge(
            "experiments.pool.workers_current",
            "workers currently running a map pass",
            &POOL_WORKERS_ACTIVE,
        );
        backwatch_obs::register_gauge(
            "experiments.pool.effective_workers_current",
            "workers the most recent map pass ran after clamping",
            &POOL_EFFECTIVE_WORKERS,
        );
        backwatch_obs::register_histogram("experiments.pool.task_us", "per-user task latency", &POOL_TASK_US);
    });
}

/// Registers every instrumented crate of the pipeline — call once at the
/// top of a report binary so the snapshot covers metrics whose lazy
/// registration sites never ran.
pub fn register_all() {
    register();
    backwatch_core::obs::register();
    backwatch_trace::obs::register();
    backwatch_stats::obs::register();
    backwatch_android::obs::register();
    backwatch_market::obs::register();
}

/// The snapshot block the report binaries print: human-readable table
/// followed by stable machine-readable `telemetry ...` lines.
#[must_use]
pub fn snapshot_text() -> String {
    let snap = backwatch_obs::snapshot();
    format!("{}\n{}", snap.render_table(), snap.render_machine())
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_all_covers_every_crate() {
        super::register_all();
        let snap = backwatch_obs::snapshot();
        for prefix in ["experiments.pool.", "core.", "trace.", "stats.", "android.", "market."] {
            assert!(
                snap.samples.iter().any(|s| s.name.starts_with(prefix)),
                "no metric registered under {prefix}"
            );
        }
    }

    #[test]
    fn snapshot_text_has_both_renderings() {
        super::register_all();
        let text = super::snapshot_text();
        assert!(text.starts_with("TELEMETRY SNAPSHOT"));
        assert!(text.contains("telemetry counter experiments.pool.maps_total"));
    }
}
