//! The metric primitives: counters, gauges, histograms, span timers.
//!
//! Everything here is `const`-constructible so instrumented crates can
//! declare metrics as plain `static` items, and every mutation is a relaxed
//! atomic operation (or, for [`LocalCounter`], a plain `Cell` update) — the
//! hot path never locks and never allocates.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Maximum number of finite bucket bounds a [`Histogram`] can hold.
pub(crate) const MAX_BUCKETS: usize = 16;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry is currently recording.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry recording on or off at runtime. Individual counter bumps
/// are so cheap they are not gated; instrumented code gates its *per-pass
/// flushes* and span timers on [`enabled`], which is what this toggles.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A monotonically increasing event count: one relaxed `fetch_add` per
/// bump, safe to share across threads as a `static`.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the count to zero (tests and fresh report runs).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A single-threaded accumulation cell for per-pass hot loops: a plain
/// `Cell<u64>` increment (one add instruction, no atomics), flushed into a
/// shared [`Counter`] once the pass ends.
///
/// This is how the PoI extractor counts filter/refine decisions without
/// paying an atomic per decision.
#[derive(Debug, Clone, Default)]
pub struct LocalCounter {
    value: Cell<u64>,
}

impl LocalCounter {
    /// Creates a local counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self { value: Cell::new(0) }
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.value.set(self.value.get() + 1);
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// The accumulated count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Adds the accumulated count to `target` and zeroes this cell.
    /// Gated on [`enabled`] so a runtime-disabled pipeline skips even the
    /// flush.
    pub fn flush_into(&self, target: &Counter) {
        let n = self.value.replace(0);
        if n > 0 && enabled() {
            target.add(n);
        }
    }
}

/// A value that can go up and down (active workers, in-flight passes).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the gauge to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed-bucket histogram: at most [`MAX_BUCKETS`] finite bounds plus an
/// overflow bucket, each a relaxed atomic. Bounds are `'static` and sorted;
/// recording is a short linear scan (the bound lists used here have ≤ 13
/// entries) plus one `fetch_add`.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: [AtomicU64; MAX_BUCKETS + 1],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given ascending bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics (at compile time for `static` items) if more than
    /// [`MAX_BUCKETS`] bounds are given.
    #[must_use]
    pub const fn new(bounds: &'static [u64]) -> Self {
        assert!(bounds.len() <= MAX_BUCKETS, "too many histogram bounds");
        Self {
            bounds,
            buckets: [const { AtomicU64::new(0) }; MAX_BUCKETS + 1],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The configured finite bounds.
    #[must_use]
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records `n` observations of the same value in one shot.
    ///
    /// Batch consumers time a whole batch once and attribute the mean to
    /// every item; this keeps the histogram's sample count equal to the
    /// item count without paying one clock read and three atomic RMWs per
    /// item.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
    }

    /// Starts a scoped timer that records elapsed microseconds into this
    /// histogram when dropped. Returns an inert span when telemetry is
    /// disabled, so nothing is recorded.
    pub fn span(&self) -> Span<'_> {
        Span {
            target: enabled().then_some(self),
            start: Instant::now(),
        }
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts: one entry per finite bound (observations at or
    /// below it, exclusive of earlier buckets) plus the overflow bucket as
    /// `None`.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<(Option<u64>, u64)> {
        let mut out: Vec<(Option<u64>, u64)> = self
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| (Some(b), self.buckets[i].load(Ordering::Relaxed)))
            .collect();
        out.push((None, self.buckets[self.bounds.len()].load(Ordering::Relaxed)));
        out
    }

    /// Resets every bucket, the count, and the sum to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A scoped timer from [`Histogram::span`]: records the elapsed wall time
/// in microseconds when dropped.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span<'a> {
    target: Option<&'a Histogram>,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(h) = self.target {
            let us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
            h.record(us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that read or toggle the global enabled switch must not
    /// interleave (the test harness runs tests on parallel threads).
    static ENABLED_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn local_counter_flushes_once() {
        let local = LocalCounter::new();
        let shared = Counter::new();
        local.add(7);
        local.inc();
        local.flush_into(&shared);
        assert_eq!(shared.get(), 8);
        assert_eq!(local.get(), 0);
        // a second flush adds nothing
        local.flush_into(&shared);
        assert_eq!(shared.get(), 8);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
        g.set(-5);
        assert_eq!(g.get(), -5);
        g.reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_by_bound() {
        static H: Histogram = Histogram::new(&[10, 100]);
        H.reset();
        H.record(5); // <= 10
        H.record(10); // <= 10 (bounds are inclusive)
        H.record(50); // <= 100
        H.record(1000); // overflow
        assert_eq!(H.count(), 4);
        assert_eq!(H.sum(), 1065);
        assert_eq!(H.bucket_counts(), vec![(Some(10), 2), (Some(100), 1), (None, 1)]);
    }

    #[test]
    fn span_records_elapsed_micros() {
        static H: Histogram = Histogram::new(&[1_000_000]);
        let _guard = ENABLED_LOCK.lock().unwrap();
        H.reset();
        {
            let _span = H.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(H.count(), 1);
        assert!(H.sum() >= 2_000, "slept 2 ms, recorded {} us", H.sum());
    }

    #[test]
    fn disabled_runtime_switch_gates_flush_and_spans() {
        static H: Histogram = Histogram::new(&[10]);
        let _guard = ENABLED_LOCK.lock().unwrap();
        H.reset();
        let local = LocalCounter::new();
        let shared = Counter::new();
        set_enabled(false);
        local.inc();
        local.flush_into(&shared);
        let _span = H.span();
        drop(_span);
        set_enabled(true);
        assert_eq!(shared.get(), 0, "flush while disabled must drop the batch");
        assert_eq!(H.count(), 0, "span while disabled must not record");
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        static C: Counter = Counter::new();
        C.reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.get(), 4000);
    }
}
