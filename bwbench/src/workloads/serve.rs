//! `serve`: the sharded ingest service, the only arrival-driven surface.
//! Set-up materializes the paper population's interleaved load at one fix
//! per 30 s (about 1.0 M fixes from 182 users) and repeats it, pass k
//! shifted k × 28 days with the same user ids, up to exactly 4,000,000
//! fixes (a fixed size, so every seed replays the same amount). They go
//! into `IngestService::new(4, paper_set1)` with a whole-service snapshot
//! every 50,000 fixes. An item is one fix. Every rep replays the run's one
//! stream: regenerating it costs about a second.
//!
//! The untraced run replays the stream closed-loop (one caller, fixes
//! back to back): push cost sets capacity. The traced run adds an open
//! loop at a fixed 2 M fixes/s, each fix timed from its due time, and a
//! search for the highest rate whose p99 stays within 10 µs without a
//! growing backlog: snapshot pauses, which read engine state beside the
//! pushes that write it, set the tail and the sustainable rate.

use crate::golden;
use crate::harness::{Opts, Rep, Scale, Traced, Verdict, Workload};
use crate::metrics::{median, quantile, ratio, LayerValues};
use crate::span::{Layer, Recorder};
use backwatch_core::poi::{ExtractorParams, Stay, StreamingExtractor};
use backwatch_geo::Seconds;
use backwatch_serve::{loadgen, stays_digest, IngestService, ShardRouter};
use backwatch_trace::synth::SynthConfig;
use backwatch_trace::{Timestamp, TracePoint};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const SHARDS: usize = 4;
const SNAPSHOT_EVERY: usize = 50_000;
const INTERVAL_S: i64 = 30;
/// Offered rate of the open loop, fixes per second.
const OPEN_RATE: f64 = 2e6;
/// Rate-search limits: p99 from due time, and lateness of the last fix.
const P99_LIMIT_NS: u32 = 10_000;
const BACKLOG_LIMIT_NS: u64 = 1_000_000;
const PROBE_FIXES: usize = 1_000_000;
const SEARCH_STEPS: usize = 5;
/// Fixes replayed at full scale.
const FULL_FIXES: usize = 4_000_000;

/// The workload state.
pub struct Serve {
    params: ExtractorParams,
    fixes: Vec<(u64, TracePoint)>,
    users: u32,
    golden: bool,
    closed_rates: Vec<f64>,
    traced_stays: u64,
    traced_snapshot_bytes: usize,
}

/// One replay's results.
pub struct Output {
    stays: Vec<(u64, Stay)>,
    snapshots: usize,
    snapshot_bytes: usize,
}

fn synth(opts: &Opts, scale: Scale) -> SynthConfig {
    let mut synth = match scale {
        Scale::Full => SynthConfig::paper_scale(),
        Scale::Smoke => SynthConfig::small(),
    };
    synth.seed ^= opts.seed;
    synth
}

/// The interleaved load repeated up to `total` fixes (one pass when
/// `None`), pass k shifted by k population lengths so every user's stream
/// stays in time order.
fn load(synth: &SynthConfig, total: Option<usize>) -> Vec<(u64, TracePoint)> {
    let base: Vec<(u64, TracePoint)> = loadgen::interleaved_fixes(synth, Seconds::new(INTERVAL_S)).collect();
    let total = if base.is_empty() { 0 } else { total.unwrap_or(base.len()) };
    let span_s = i64::from(synth.days) * 86_400;
    let mut fixes = Vec::with_capacity(total);
    fixes.extend(
        (0..)
            .flat_map(|k: i64| {
                base.iter().map(move |&(uid, f)| {
                    (
                        uid,
                        TracePoint::new(Timestamp::from_secs(f.time.as_secs() + k * span_s), f.pos),
                    )
                })
            })
            .take(total),
    );
    fixes
}

impl Serve {
    fn closed_loop(&self) -> Output {
        let mut svc = IngestService::new(SHARDS, self.params);
        let mut out = Output {
            stays: Vec::new(),
            snapshots: 0,
            snapshot_bytes: 0,
        };
        for (i, &(uid, fix)) in self.fixes.iter().enumerate() {
            if let Some(stay) = svc.ingest(uid, fix) {
                out.stays.push((uid, stay));
            }
            if i > 0 && i % SNAPSHOT_EVERY == 0 {
                out.snapshot_bytes = out.snapshot_bytes.max(svc.snapshot_bytes().len());
                out.snapshots += 1;
            }
        }
        out.stays.extend(svc.finish());
        out
    }

    /// Replays `fixes` open-loop at `rate`: fix i is due at i / rate, the
    /// caller spins until then. Returns per-fix latency from due time,
    /// the generator's own lateness, and the time each fix queued behind
    /// earlier work (all ns), plus the last fix's lateness.
    fn open_loop(&self, fixes: &[(u64, TracePoint)], rate: f64) -> OpenLoop {
        let mut svc = IngestService::new(SHARDS, self.params);
        let mut run = OpenLoop {
            latency: Vec::with_capacity(fixes.len()),
            lag: Vec::with_capacity(fixes.len()),
            wait: Vec::with_capacity(fixes.len()),
            final_late_ns: 0,
        };
        let period_ns = 1e9 / rate;
        let t0 = Instant::now();
        let now = || u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut free = 0u64;
        for (i, &(uid, fix)) in fixes.iter().enumerate() {
            let due = (i as f64 * period_ns) as u64;
            let mut sent = now();
            while sent < due {
                std::hint::spin_loop();
                sent = now();
            }
            black_box(svc.ingest(uid, fix));
            let done = now();
            if i > 0 && i % SNAPSHOT_EVERY == 0 {
                black_box(svc.snapshot_bytes());
            }
            let ns = |x: u64| u32::try_from(x).unwrap_or(u32::MAX);
            run.latency.push(ns(done - due));
            run.wait.push(ns(free.saturating_sub(due)));
            run.lag.push(ns(sent.saturating_sub(due.max(free))));
            run.final_late_ns = done - due;
            free = now();
        }
        black_box(svc.finish());
        for v in [&mut run.latency, &mut run.lag, &mut run.wait] {
            v.sort_unstable();
        }
        run
    }

    /// Whether the service sustains `rate`: 2 of 3 probes keep p99 within
    /// the limit and end without a backlog.
    fn sustains(&self, rate: f64) -> bool {
        let probe = &self.fixes[..self.fixes.len().min(PROBE_FIXES)];
        (0..3)
            .filter(|_| {
                let run = self.open_loop(probe, rate);
                quantile(&run.latency, 0.99) <= f64::from(P99_LIMIT_NS) && run.final_late_ns <= BACKLOG_LIMIT_NS
            })
            .count()
            >= 2
    }
}

struct OpenLoop {
    latency: Vec<u32>,
    lag: Vec<u32>,
    wait: Vec<u32>,
    final_late_ns: u64,
}

fn canonical(stays: &[(u64, Stay)]) -> Vec<(u64, Stay)> {
    let mut sorted = stays.to_vec();
    sorted.sort_by_key(|(uid, s)| (*uid, s.enter.as_secs(), s.end_index));
    sorted
}

impl Workload for Serve {
    type Output = Output;

    fn setup(opts: &Opts) -> Self {
        let total = (opts.scale == Scale::Full).then_some(FULL_FIXES);
        let synth = synth(opts, opts.scale);
        let serve = Self {
            params: ExtractorParams::paper_set1(),
            fixes: load(&synth, total),
            users: synth.n_users,
            golden: opts.golden(0),
            closed_rates: Vec::new(),
            traced_stays: 0,
            traced_snapshot_bytes: 0,
        };
        // warm-up: the service path on the first snapshot period
        let mut svc = IngestService::new(SHARDS, serve.params);
        for &(uid, fix) in serve.fixes.iter().take(SNAPSHOT_EVERY) {
            black_box(svc.ingest(uid, fix));
        }
        black_box(svc.snapshot_bytes());
        serve
    }

    fn items(&self) -> u64 {
        self.fixes.len() as u64
    }

    fn workers(&self) -> usize {
        1
    }

    fn describe(&self) -> String {
        format!(
            "{} fixes from {} users at {INTERVAL_S} s, {SHARDS} shards, snapshot every {SNAPSHOT_EVERY}",
            self.fixes.len(),
            self.users,
        )
    }

    fn rep(&mut self, _k: u64) -> Rep<Output> {
        let rep = Rep::timed(|| self.closed_loop());
        self.closed_rates
            .push(self.fixes.len() as f64 / rep.wall.as_secs_f64().max(1e-9));
        rep
    }

    fn traced_rep(&mut self, _k: u64, rec: &mut Recorder) -> Output {
        let mut svc = IngestService::new(SHARDS, self.params);
        let mut out = Output {
            stays: Vec::new(),
            snapshots: 0,
            snapshot_bytes: 0,
        };
        rec.span(Layer::ServeLoop, |rec| {
            for (i, &(uid, fix)) in self.fixes.iter().enumerate() {
                if let Some(stay) = rec.span(Layer::ServeIngest, |_| svc.ingest(uid, fix)) {
                    out.stays.push((uid, stay));
                }
                if i > 0 && i % SNAPSHOT_EVERY == 0 {
                    let bytes = rec.span(Layer::ServeSnapshot, |_| svc.snapshot_bytes());
                    out.snapshot_bytes = out.snapshot_bytes.max(bytes.len());
                    out.snapshots += 1;
                }
            }
            let tail = rec.span(Layer::ServeFinish, |_| svc.finish());
            out.stays.extend(tail);
        });
        self.traced_stays += out.stays.len() as u64;
        self.traced_snapshot_bytes = self.traced_snapshot_bytes.max(out.snapshot_bytes);
        out
    }

    fn verify(&mut self, _k: u64, out: &Output, first: bool, verdict: &mut Verdict) -> u64 {
        let stays = canonical(&out.stays);
        verdict.check(out.snapshots == (self.fixes.len().saturating_sub(1)) / SNAPSHOT_EVERY, || {
            format!("{} snapshots taken", out.snapshots)
        });
        let digest = stays_digest(&stays);
        if first {
            // oracle: one plain streaming extractor per user, fed the same
            // fixes in the same order — no routing, no snapshots
            let mut engines: BTreeMap<u64, (StreamingExtractor, Vec<Stay>)> = BTreeMap::new();
            for &(uid, fix) in &self.fixes {
                let (engine, found) = engines
                    .entry(uid)
                    .or_insert_with(|| (StreamingExtractor::new(self.params), Vec::new()));
                found.extend(engine.push(fix));
            }
            for (uid, (mut engine, mut expected)) in engines {
                expected.extend(engine.finish());
                let got: Vec<Stay> = stays.iter().filter(|(u, _)| *u == uid).map(|(_, s)| *s).collect();
                verdict.check(got == expected, || {
                    format!("user {uid}: service stays differ from the oracle")
                });
            }
            if self.golden {
                golden::check("serve", &[("stays".to_owned(), digest)], verdict);
            }
        }
        digest
    }

    fn layer_metrics(&mut self, traced: &Traced, v: &mut LayerValues) {
        let rec = &traced.rec;
        let ingest = rec.sorted_samples(Layer::ServeIngest);
        v.set("serve.service.ingest_p50_ns", quantile(&ingest, 0.5));
        v.set("serve.service.ingest_p99_ns", quantile(&ingest, 0.99));
        v.set("serve.service.stays", ratio(self.traced_stays as f64, traced.reps as f64));
        v.set("serve.service.snapshot_calls", traced.calls(Layer::ServeSnapshot));
        let pauses = rec.sorted_samples(Layer::ServeSnapshot);
        v.set("serve.service.snapshot_pause_p50_us", quantile(&pauses, 0.5) / 1e3);
        v.set("serve.service.snapshot_pause_max_us", quantile(&pauses, 1.0) / 1e3);
        v.set("serve.service.snapshot_bytes", self.traced_snapshot_bytes as f64);
        v.set("serve.service.finish_ms", traced.busy_s(Layer::ServeFinish) * 1e3);

        let router = ShardRouter::new(SHARDS);
        let t = Instant::now();
        let mut acc = 0usize;
        for &(uid, _) in &self.fixes {
            acc = acc.wrapping_add(router.shard_of(black_box(uid)));
        }
        black_box(acc);
        v.set(
            "serve.router.ns_per_call",
            ratio(t.elapsed().as_secs_f64() * 1e9, self.fixes.len() as f64),
        );

        let run = self.open_loop(&self.fixes, OPEN_RATE);
        v.set("serve.openloop.p50_us", quantile(&run.latency, 0.5) / 1e3);
        v.set("serve.openloop.p99_us", quantile(&run.latency, 0.99) / 1e3);
        v.set("serve.loadgen.lag_p99_us", quantile(&run.lag, 0.99) / 1e3);
        v.set("serve.loadgen.wait_p99_us", quantile(&run.wait, 0.99) / 1e3);
        drop(run);

        let (mut lo, mut hi) = (1e6, median(&self.closed_rates).max(1e6));
        let max_rate = if self.sustains(lo) {
            for _ in 0..SEARCH_STEPS {
                let mid = (lo + hi) / 2.0;
                if self.sustains(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        } else {
            0.0
        };
        v.set("serve.rate.max_fixes_per_s", max_rate);
    }
}
