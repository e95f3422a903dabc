//! PoI-extraction benchmarks, including the ablation DESIGN.md calls out:
//! the paper's three-buffer Spatio-Temporal algorithm vs the naive
//! anchor-based dwell detector, across sampling rates and parameters.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_bench::{bench_user, bench_user_long};
use backwatch_core::poi::{cluster_stays, ExtractorParams, NaiveDwellExtractor, SpatioTemporalExtractor};
use backwatch_geo::{Meters, Seconds};
use backwatch_trace::{sampling, SoaProjectedTrace};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn extractors_ablation(c: &mut Criterion) {
    let user = bench_user();
    let params = ExtractorParams::paper_set1();
    let projected = SoaProjectedTrace::project(&user.trace);
    let mut g = c.benchmark_group("poi/ablation");
    g.throughput(Throughput::Elements(user.trace.len() as u64));
    // The pipeline projects each user once and runs every extraction on the
    // planar view, so `three_buffer` measures what production pays per pass.
    g.bench_function("three_buffer", |b| {
        let e = SpatioTemporalExtractor::new(params);
        b.iter(|| e.extract_soa(black_box(&projected)));
    });
    g.bench_function("naive_anchor", |b| {
        let e = NaiveDwellExtractor::new(params);
        b.iter(|| e.extract(black_box(&user.trace)));
    });
    g.finish();
}

/// The lat/lon path vs the certified planar fast path on the same input —
/// the direct speedup measurement for the one-shot-projection refactor.
/// `planar_with_projection` pays the projection inside the loop; the real
/// pipeline amortizes it over every interval of the sweep.
fn fast_path(c: &mut Criterion) {
    let user = bench_user_long();
    let params = ExtractorParams::paper_set1();
    let e = SpatioTemporalExtractor::new(params);
    let projected = SoaProjectedTrace::project(&user.trace);
    let mut g = c.benchmark_group("poi/fast_path");
    g.throughput(Throughput::Elements(user.trace.len() as u64));
    g.bench_function("latlon", |b| {
        b.iter(|| e.extract(black_box(&user.trace)));
    });
    g.bench_function("planar", |b| {
        b.iter(|| e.extract_soa(black_box(&projected)));
    });
    g.bench_function("planar_with_projection", |b| {
        b.iter(|| {
            let p = SoaProjectedTrace::project(black_box(&user.trace));
            e.extract_soa(&p)
        });
    });
    g.finish();
}

fn extraction_vs_sampling_rate(c: &mut Criterion) {
    let user = bench_user_long();
    let params = ExtractorParams::paper_set1();
    let e = SpatioTemporalExtractor::new(params);
    let projected = SoaProjectedTrace::project(&user.trace);
    let mut g = c.benchmark_group("poi/by_interval");
    for interval in [1i64, 60, 600] {
        let indices = sampling::downsample_indices(&user.trace, Seconds::new(interval));
        g.throughput(Throughput::Elements(indices.len() as u64));
        g.bench_function(format!("interval_{interval}s"), |b| {
            b.iter(|| e.extract_sampled_soa(black_box(&projected), black_box(&indices)));
        });
    }
    g.finish();
}

/// Owned downsampling (allocate a new trace, then extract) vs the borrowed
/// index view the pipeline now uses — isolates the zero-copy win.
fn sampling_owned_vs_views(c: &mut Criterion) {
    let user = bench_user_long();
    let params = ExtractorParams::paper_set1();
    let e = SpatioTemporalExtractor::new(params);
    let projected = SoaProjectedTrace::project(&user.trace);
    let mut g = c.benchmark_group("poi/sampling");
    for interval in [60i64, 600] {
        g.bench_function(format!("owned_{interval}s"), |b| {
            b.iter(|| {
                let t = sampling::downsample(black_box(&user.trace), Seconds::new(interval));
                e.extract(&t)
            });
        });
        g.bench_function(format!("view_{interval}s"), |b| {
            b.iter(|| {
                let ix = sampling::downsample_indices(black_box(&user.trace), Seconds::new(interval));
                e.extract_sampled_soa(&projected, &ix)
            });
        });
    }
    g.finish();
}

fn table3_parameter_sets(c: &mut Criterion) {
    let user = bench_user();
    let mut g = c.benchmark_group("poi/table3_params");
    for (i, params) in ExtractorParams::table3_sets().into_iter().enumerate() {
        g.bench_function(format!("set{}", i + 1), |b| {
            let e = SpatioTemporalExtractor::new(params);
            b.iter(|| e.extract(black_box(&user.trace)));
        });
    }
    g.finish();
}

fn clustering(c: &mut Criterion) {
    let user = bench_user_long();
    let params = ExtractorParams::paper_set1();
    let stays = SpatioTemporalExtractor::new(params).extract(&user.trace);
    c.bench_function("poi/cluster_stays", |b| {
        b.iter(|| cluster_stays(black_box(&stays), Meters::new(150.0), params.metric));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = extractors_ablation, fast_path, extraction_vs_sampling_rate, sampling_owned_vs_views, table3_parameter_sets, clustering
}
criterion_main!(benches);
