//! The metric tables the benchmark emits, and the order statistics they
//! are computed with. `BENCHMARK.json` at the repository root declares the
//! same names and units; the smoke test keeps the two in step.

/// End-to-end metrics, `(name, unit)`, emitted by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("cpu_us_per_item", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, emitted by every traced run. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("trace.synth.busy_s", "s"),
    ("trace.soa.busy_s", "s"),
    ("trace.sampling.busy_s", "s"),
    ("core.poi.busy_s", "s"),
    ("core.poi.points", "count"),
    ("core.poi.stays", "count"),
    ("core.poi.ns_per_point", "ns"),
    ("core.poi.refine_ratio", "ratio"),
    ("core.metrics.busy_s", "s"),
    ("core.pattern.busy_s", "s"),
    ("core.hisbin.busy_s", "s"),
    ("core.hisbin.compares", "count"),
    ("core.adversary.busy_s", "s"),
    ("core.adversary.queries", "count"),
    ("core.adversary.us_per_query", "us"),
    ("core.leakage.busy_s", "s"),
    ("core.leakage.observations", "count"),
    ("core.leakage.candidates_per_query", "count"),
    ("core.leakage.identified_ratio", "ratio"),
    ("experiments.glue.busy_s", "s"),
    ("pool.utilization", "ratio"),
    ("pool.idle_s", "s"),
    ("experiments.pool.task_p50_ms", "ms"),
    ("experiments.pool.task_p90_ms", "ms"),
    ("market.corpus.busy_s", "s"),
    ("market.corpus.us_per_app", "us"),
    ("market.summary.busy_s", "s"),
    ("market.summary.app_p50_us", "us"),
    ("market.summary.app_p999_us", "us"),
    ("market.summary.hit_rate", "ratio"),
    ("market.summary.misses_per_app", "count"),
    ("android.ir.lower_us", "us"),
    ("android.ir.parse_us", "us"),
    ("market.summary.summarize_us", "us"),
    ("market.reach.oracle_us", "us"),
    ("market.taint.oracle_us", "us"),
    ("market.sweep.incremental_ms", "ms"),
    ("market.sweep.version_gate_s", "s"),
    ("market.sweep.digest_s", "s"),
    ("market.sweep.version_changed", "count"),
    ("market.sweep.digest_changed", "count"),
    ("market.sweep.reanalyzed_ratio", "ratio"),
    ("serve.router.ns_per_call", "ns"),
    ("serve.service.busy_s", "s"),
    ("serve.service.ingest_p50_ns", "ns"),
    ("serve.service.ingest_p99_ns", "ns"),
    ("serve.service.stays", "count"),
    ("serve.service.snapshot_calls", "count"),
    ("serve.service.snapshot_pause_p50_us", "us"),
    ("serve.service.snapshot_pause_max_us", "us"),
    ("serve.service.snapshot_bytes", "bytes"),
    ("serve.service.finish_ms", "ms"),
    ("serve.loadgen.lag_p99_us", "us"),
    ("serve.loadgen.wait_p99_us", "us"),
    ("serve.openloop.p50_us", "us"),
    ("serve.openloop.p99_us", "us"),
    ("serve.rate.max_fixes_per_s", "fixes/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Values for every [`PER_LAYER`] metric, 0 until set.
#[derive(Debug, Clone)]
pub struct LayerValues {
    values: Vec<f64>,
}

impl Default for LayerValues {
    fn default() -> Self {
        Self {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl LayerValues {
    /// Sets `name`, which must be a [`PER_LAYER`] metric. Non-finite
    /// values (a ratio over nothing) read 0.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table — a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// `(name, unit, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER.iter().zip(&self.values).map(|(&(n, u), &v)| (n, u, v))
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the middle pair for an even count; 0 when
/// empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of ascending samples (0 when empty).
#[must_use]
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
