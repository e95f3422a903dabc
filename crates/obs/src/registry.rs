//! The static metric registry and snapshot rendering.
//!
//! Instrumented crates own their metrics as `static` items and register
//! `&'static` references once (behind a `std::sync::Once` on their side);
//! the registry is only ever touched at registration and snapshot time, so
//! the hot paths never see the lock. Names are dotted lowercase
//! (`crate.subsystem.metric_total`) and must be unique — a duplicate name
//! is ignored, which makes registration idempotent by construction.

use crate::metrics::{Counter, Gauge, Histogram};
use std::fmt::Write as _;
use std::sync::Mutex;

#[derive(Clone, Copy)]
enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Registration {
    name: &'static str,
    help: &'static str,
    metric: MetricRef,
}

static REGISTRY: Mutex<Vec<Registration>> = Mutex::new(Vec::new());

fn register(name: &'static str, help: &'static str, metric: MetricRef) {
    let mut reg = REGISTRY.lock().expect("metric registry never poisoned");
    if reg.iter().any(|r| r.name == name) {
        return;
    }
    reg.push(Registration { name, help, metric });
}

/// Registers a counter under `name`. Idempotent: a name already present is
/// left untouched.
pub fn register_counter(name: &'static str, help: &'static str, counter: &'static Counter) {
    register(name, help, MetricRef::Counter(counter));
}

/// Registers a gauge under `name`. Idempotent.
pub fn register_gauge(name: &'static str, help: &'static str, gauge: &'static Gauge) {
    register(name, help, MetricRef::Gauge(gauge));
}

/// Registers a histogram under `name`. Idempotent.
pub fn register_histogram(name: &'static str, help: &'static str, histogram: &'static Histogram) {
    register(name, help, MetricRef::Histogram(histogram));
}

/// Resets every registered metric to zero — fresh report runs and tests.
pub fn reset_all() {
    for r in REGISTRY.lock().expect("metric registry never poisoned").iter() {
        match r.metric {
            MetricRef::Counter(c) => c.reset(),
            MetricRef::Gauge(g) => g.reset(),
            MetricRef::Histogram(h) => h.reset(),
        }
    }
}

/// A point-in-time value of one registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram count, sum, and per-bucket counts (`None` = overflow).
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// `(bound, count)` per bucket; `None` is the overflow bucket.
        buckets: Vec<(Option<u64>, u64)>,
    },
}

/// One registered metric with its sampled value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Registered dotted name.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
    /// The sampled value.
    pub value: MetricValue,
}

/// A consistent-enough view of every registered metric (values are sampled
/// one relaxed load at a time; perfect cross-metric atomicity is neither
/// needed nor claimed).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Samples in registration order.
    pub samples: Vec<Sample>,
}

/// Samples every registered metric.
#[must_use]
pub fn snapshot() -> Snapshot {
    let reg = REGISTRY.lock().expect("metric registry never poisoned");
    let samples = reg
        .iter()
        .map(|r| Sample {
            name: r.name,
            help: r.help,
            value: match r.metric {
                MetricRef::Counter(c) => MetricValue::Counter(c.get()),
                MetricRef::Gauge(g) => MetricValue::Gauge(g.get()),
                MetricRef::Histogram(h) => MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.bucket_counts(),
                },
            },
        })
        .collect();
    Snapshot { samples }
}

impl Snapshot {
    /// The value of a registered counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.samples.iter().find(|s| s.name == name).and_then(|s| match s.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
    }

    /// The value of a registered gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.samples.iter().find(|s| s.name == name).and_then(|s| match s.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        })
    }

    /// `(count, sum)` of a registered histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<(u64, u64)> {
        self.samples.iter().find(|s| s.name == name).and_then(|s| match s.value {
            MetricValue::Histogram { count, sum, .. } => Some((count, sum)),
            _ => None,
        })
    }

    /// Human-readable table, one metric per line, histograms with a
    /// count/sum/mean summary.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut s = String::from("TELEMETRY SNAPSHOT\n");
        let width = self.samples.iter().map(|e| e.name.len()).max().unwrap_or(0).max(12);
        for e in &self.samples {
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(s, "  {:<width$} {:>12}  {}", e.name, v, e.help);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(s, "  {:<width$} {:>12}  {}", e.name, v, e.help);
                }
                MetricValue::Histogram { count, sum, .. } => {
                    let mean = if *count == 0 { 0.0 } else { *sum as f64 / *count as f64 };
                    let _ = writeln!(
                        s,
                        "  {:<width$} {:>12}  {} (sum {} us, mean {:.1} us)",
                        e.name, count, e.help, sum, mean
                    );
                }
            }
        }
        s
    }

    /// Machine-readable lines, stable and greppable:
    ///
    /// ```text
    /// telemetry counter core.poi.points_total 12345
    /// telemetry gauge experiments.pool.workers_current 0
    /// telemetry histogram_count experiments.pool.task_us 182
    /// telemetry histogram_bucket experiments.pool.task_us le=1024 17
    /// telemetry histogram_bucket experiments.pool.task_us le=+inf 3
    /// ```
    #[must_use]
    pub fn render_machine(&self) -> String {
        let mut s = String::new();
        for e in &self.samples {
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(s, "telemetry counter {} {v}", e.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(s, "telemetry gauge {} {v}", e.name);
                }
                MetricValue::Histogram { count, sum, buckets } => {
                    let _ = writeln!(s, "telemetry histogram_count {} {count}", e.name);
                    let _ = writeln!(s, "telemetry histogram_sum {} {sum}", e.name);
                    for (bound, n) in buckets {
                        match bound {
                            Some(b) => {
                                let _ = writeln!(s, "telemetry histogram_bucket {} le={b} {n}", e.name);
                            }
                            None => {
                                let _ = writeln!(s, "telemetry histogram_bucket {} le=+inf {n}", e.name);
                            }
                        }
                    }
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static C: Counter = Counter::new();
    static G: Gauge = Gauge::new();
    static H: Histogram = Histogram::new(&[100]);

    fn register_fixture() {
        register_counter("test.reg.counter_total", "a counter", &C);
        register_gauge("test.reg.gauge", "a gauge", &G);
        register_histogram("test.reg.hist_us", "a histogram", &H);
    }

    #[test]
    fn registration_is_idempotent_and_snapshot_reads_values() {
        register_fixture();
        register_fixture();
        C.reset();
        C.add(7);
        G.set(-2);
        H.reset();
        H.record(50);
        let snap = snapshot();
        assert_eq!(snap.counter("test.reg.counter_total"), Some(7));
        assert_eq!(snap.gauge("test.reg.gauge"), Some(-2));
        assert_eq!(snap.histogram("test.reg.hist_us"), Some((1, 50)));
        assert_eq!(snap.samples.iter().filter(|e| e.name.starts_with("test.reg.")).count(), 3);
    }

    #[test]
    fn render_formats_contain_every_metric() {
        register_fixture();
        let snap = snapshot();
        let table = snap.render_table();
        let machine = snap.render_machine();
        for name in ["test.reg.counter_total", "test.reg.gauge", "test.reg.hist_us"] {
            assert!(table.contains(name), "table missing {name}");
            assert!(machine.contains(name), "machine lines missing {name}");
        }
        assert!(machine.lines().all(|l| l.starts_with("telemetry ")));
        assert!(machine.contains("histogram_bucket test.reg.hist_us le=+inf"));
    }
}
