//! Guard test for the telemetry overhead budget: extraction with counters
//! live must stay within a few percent of the same extraction with the
//! runtime switch off.
//!
//! The design budget is < 3 % (EXPERIMENTS.md, "Pipeline performance");
//! this test asserts a slacked bound so a noisy CI box doesn't flake, while
//! still catching a regression that puts shared atomics or allocation back
//! into the point loop. Best-of-N timing is used on both sides for the same
//! reason. It is the only test in its binary, so no other test flips the
//! runtime switch or competes for the CPU while it times.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_core::poi::{ExtractorParams, SpatioTemporalExtractor};
use backwatch_trace::synth::{generate_user, SynthConfig};
use backwatch_trace::SoaProjectedTrace;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn best_of(rounds: usize, iters: usize, f: &dyn Fn()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed());
    }
    best
}

#[test]
fn telemetry_overhead_stays_small_on_the_hot_path() {
    // one 10-day user of the small synthetic city
    let mut cfg = SynthConfig::small();
    cfg.days = 10;
    cfg.n_users = 1;
    let user = generate_user(&cfg, 0);
    let e = SpatioTemporalExtractor::new(ExtractorParams::paper_set1());
    let projected = SoaProjectedTrace::project(&user.trace);
    let extract = || {
        black_box(e.extract_soa(black_box(&projected)));
    };

    // Warm up caches and the lazy metric registration.
    extract();

    backwatch_obs::set_enabled(false);
    let disabled = best_of(7, 4, &extract);
    backwatch_obs::set_enabled(true);
    let enabled = best_of(7, 4, &extract);

    let ratio = enabled.as_secs_f64() / disabled.as_secs_f64().max(1e-9);
    // budget 3%, slack to 10% for scheduler noise on shared runners
    assert!(
        ratio < 1.10,
        "telemetry overhead ratio {ratio:.3} (enabled {enabled:?} vs disabled {disabled:?}) exceeds the budget"
    );
}
