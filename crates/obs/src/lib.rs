//! Runtime telemetry for the backwatch pipeline.
//!
//! The repo's performance and correctness claims are *measured* claims — a
//! certified filter-and-refine band that "almost never" falls back to the
//! exact metric, a 10× extraction speedup, corpus marginals calibrated to
//! the paper. This crate turns those prose claims into counters that a
//! running binary can assert: every hot path increments an atomic, every
//! report renders a snapshot, and integration tests pin the invariants
//! (refine fraction, dropped dumpsys lines, exactly-once pool claims).
//!
//! Design constraints, in order:
//!
//! - **Cheap on the hot path.** A [`Counter`] bump is one relaxed
//!   `fetch_add`; per-pass aggregation uses [`LocalCounter`] (a plain
//!   `Cell`, no atomics at all) flushed once per pass. No locks, no
//!   allocation after registration.
//! - **Statically owned.** Metrics are `static` items in the crate they
//!   instrument; the registry only records `&'static` references, so
//!   instrumented code never touches the registry.
//! - **Runtime switch.** [`set_enabled`] gates per-pass flushes without
//!   recompiling — the overhead guard (`backwatch-core`'s
//!   `tests/obs_overhead.rs`) compares the two settings.
//!
//! # Examples
//!
//! ```
//! use backwatch_obs as obs;
//!
//! static FRAMES: obs::Counter = obs::Counter::new();
//!
//! obs::register_counter("demo.frames_total", "frames processed", &FRAMES);
//! FRAMES.add(3);
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo.frames_total"), Some(3));
//! ```

mod metrics;
mod registry;

pub use metrics::{enabled, set_enabled, Counter, Gauge, Histogram, LocalCounter, Span};
pub use registry::{register_counter, register_gauge, register_histogram, reset_all, snapshot, MetricValue, Sample, Snapshot};

/// Latency bucket bounds in microseconds used by the pipeline's span
/// histograms: roughly powers of four from 1 µs to 16 s.
pub static LATENCY_BOUNDS_US: [u64; 13] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];
