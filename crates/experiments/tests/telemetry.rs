//! Counter-backed pipeline invariants.
//!
//! These tests drive real pipeline passes and then assert on the telemetry
//! deltas — the measured versions of claims the docs state in prose: the
//! certified planar filter "almost never" refines (DESIGN.md §5d), the
//! dumpsys text channel loses no listener lines on a round trip, and the
//! worker pool claims every user index exactly once.
//!
//! The counters are process-global, so every test serializes on one lock
//! and works with before/after deltas.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_experiments::{obs, pool, prepare, ExperimentConfig};
use std::sync::Mutex;

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn planar_refine_fraction_stays_under_one_percent() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    obs::register_all();
    let certified0 = backwatch_core::obs::POI_PLANAR_CERTIFIED.get();
    let refined0 = backwatch_core::obs::POI_PLANAR_REFINED.get();

    let cfg = ExperimentConfig::small();
    let users = prepare::prepare_users(&cfg);
    assert!(!users.is_empty());

    let certified = backwatch_core::obs::POI_PLANAR_CERTIFIED.get() - certified0;
    let refined = backwatch_core::obs::POI_PLANAR_REFINED.get() - refined0;
    let total = certified + refined;
    assert!(total > 0, "extraction made no distance decisions");
    let fraction = refined as f64 / total as f64;
    assert!(
        fraction < 0.01,
        "refine fallback fraction {fraction:.4} ({refined}/{total}) breaches the <1% design claim"
    );
}

#[test]
fn dumpsys_round_trip_drops_no_lines() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    obs::register_all();
    let rendered0 = backwatch_android::obs::DUMPSYS_LINES_RENDERED.get();
    let parsed0 = backwatch_android::obs::DUMPSYS_ENTRIES_PARSED.get();
    let errors0 = backwatch_android::obs::DUMPSYS_PARSE_ERRORS.get();

    let corpus = backwatch_market::corpus::generate(&backwatch_market::corpus::CorpusConfig::scaled(8));
    let observations = backwatch_market::dynamic_analysis::analyze_corpus(&corpus);
    assert!(!observations.is_empty());

    let rendered = backwatch_android::obs::DUMPSYS_LINES_RENDERED.get() - rendered0;
    let parsed = backwatch_android::obs::DUMPSYS_ENTRIES_PARSED.get() - parsed0;
    let errors = backwatch_android::obs::DUMPSYS_PARSE_ERRORS.get() - errors0;
    assert!(rendered > 0, "the dynamic analysis rendered no listener lines");
    assert_eq!(errors, 0, "dumpsys round trip produced parse errors");
    assert_eq!(
        rendered,
        parsed,
        "dumpsys round trip dropped {} listener lines",
        rendered - parsed
    );
}

#[test]
fn map_users_claims_every_index_exactly_once() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    obs::register_all();
    for (n_users, threads) in [(0u32, 3), (1, 4), (57, 1), (57, 4), (200, 8)] {
        let claimed0 = backwatch_experiments::obs::POOL_TASKS_CLAIMED.get();
        let out = pool::map_users(n_users, threads, |i| i);
        assert_eq!(out.len(), n_users as usize);
        let claimed = backwatch_experiments::obs::POOL_TASKS_CLAIMED.get() - claimed0;
        assert_eq!(
            claimed,
            u64::from(n_users),
            "pool claimed {claimed} indices for {n_users} users at {threads} threads"
        );
    }
}

#[test]
fn snapshot_counts_match_population() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    obs::register_all();
    let users0 = backwatch_trace::obs::SYNTH_USERS.get();
    let passes0 = backwatch_core::obs::POI_PASSES.get();

    let cfg = ExperimentConfig::small();
    let users = prepare::prepare_users(&cfg);

    let synth_users = backwatch_trace::obs::SYNTH_USERS.get() - users0;
    let passes = backwatch_core::obs::POI_PASSES.get() - passes0;
    assert_eq!(synth_users, u64::from(cfg.synth.n_users));
    // per user: one full extraction, one per interval except 1 s (whose
    // view is the whole trace, so it reuses the full extraction), one
    // rotated
    assert_eq!(cfg.intervals.iter().filter(|&&i| i == 1).count(), 1);
    assert_eq!(passes, u64::from(cfg.synth.n_users) * (cfg.intervals.len() as u64 + 1));
    drop(users);
}

#[test]
fn pushed_and_spliced_fixes_cover_every_view() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    obs::register_all();
    let points0 = backwatch_core::obs::POI_POINTS.get();
    let spliced0 = backwatch_core::obs::POI_SPLICED.get();

    let users = prepare::prepare_users(&ExperimentConfig::small());

    let pushed = backwatch_core::obs::POI_POINTS.get() - points0;
    let spliced = backwatch_core::obs::POI_SPLICED.get() - spliced0;
    // per user: the full pass and the rotated view each cover the trace
    // (the rotated one partly by splicing), and every sampled view short
    // of the whole trace is pushed
    let expected: usize = users
        .iter()
        .map(|u| {
            let sampled: usize = u
                .per_interval
                .iter()
                .filter(|d| d.collected_points != u.trace_len)
                .map(|d| d.collected_points)
                .sum();
            2 * u.trace_len + sampled
        })
        .sum();
    assert_eq!(pushed + spliced, expected as u64, "pushed {pushed} + spliced {spliced}");
    assert!(spliced > 0, "no rotated view resynchronized with its full pass");
}
