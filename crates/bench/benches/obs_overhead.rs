//! Telemetry overhead on the extraction hot path.
//!
//! The obs design budget is < 3 % on instrumented hot paths
//! (`LocalCounter` cells flushed once per pass, no shared atomics inside
//! the point loop). This bench measures the same planar extraction with
//! telemetry enabled and with the runtime switch off; the companion test
//! in `tests/obs_overhead_guard.rs` asserts the budget with slack.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_bench::bench_user_long;
use backwatch_core::poi::{ExtractorParams, SpatioTemporalExtractor};
use backwatch_trace::SoaProjectedTrace;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn obs_overhead(c: &mut Criterion) {
    let user = bench_user_long();
    let e = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let projected = SoaProjectedTrace::project(&user.trace);
    let mut g = c.benchmark_group("obs/extract_soa");
    g.throughput(Throughput::Elements(user.trace.len() as u64));
    backwatch_obs::set_enabled(true);
    g.bench_function("enabled", |b| {
        b.iter(|| e.extract_soa(black_box(&projected)));
    });
    backwatch_obs::set_enabled(false);
    g.bench_function("runtime_disabled", |b| {
        b.iter(|| e.extract_soa(black_box(&projected)));
    });
    backwatch_obs::set_enabled(true);
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = obs_overhead
}
criterion_main!(benches);
