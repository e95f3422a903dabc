//! The run loop every workload shares: set up several times, repeat the
//! workload for the requested time, verify every rep's output, and turn
//! the measurements into the end-to-end metrics (untraced run) or the
//! per-layer metrics (traced run).

use crate::json::Json;
use crate::metrics::{self, median, ratio, LayerValues, END_TO_END};
use crate::span::{Layer, Recorder};
use crate::sys;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's measured sizes.
    Full,
    /// Seconds-fast sizes for the smoke test.
    Smoke,
}

impl Scale {
    /// The command-line spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Everything a run is parameterized by.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed. Rep k's inputs XOR [`rep_seed`]`(seed, k)` into each
    /// generator's default seed, so seed 0's first rep is the
    /// repository's default run (the one with golden digests).
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Worker threads, at most the host's cores.
    pub threads: usize,
    /// Input size.
    pub scale: Scale,
}

impl Opts {
    /// Whether golden digests apply to rep `k`: the default seed's first
    /// rep at full scale.
    #[must_use]
    pub fn golden(&self, k: u64) -> bool {
        rep_seed(self.seed, k) == 0 && self.scale == Scale::Full
    }
}

/// The seed of rep `k`'s inputs. Rep 0 runs on the run's seed itself and
/// every later rep on one of its own, so a run's medians span several
/// inputs and vary less from seed to seed than one input does.
#[must_use]
pub fn rep_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Tally of checked output units.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Units checked.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// The first few failures, described.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Counts one checked unit; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// One rep's output plus its timed phase.
pub struct Rep<O> {
    /// What the rep produced.
    pub out: O,
    /// Wall time of the phase `items_per_s` is over.
    pub wall: Duration,
    /// CPU time of that phase, microseconds.
    pub cpu_us: u64,
}

impl<O> Rep<O> {
    /// Runs `f` as the timed phase.
    pub fn timed(f: impl FnOnce() -> O) -> Self {
        let cpu0 = sys::cpu_us();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed();
        Rep {
            out,
            wall,
            cpu_us: sys::cpu_us().saturating_sub(cpu0),
        }
    }
}

/// What the traced reps measured, for [`Workload::layer_metrics`].
pub struct Traced {
    /// Spans of every traced rep, merged.
    pub rec: Recorder,
    /// Traced reps run.
    pub reps: usize,
    /// Telemetry counter advances across the traced reps.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Traced {
    /// Per-rep self time of `layer`, seconds.
    #[must_use]
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.rec.busy(layer) as f64 / 1e9 / self.reps.max(1) as f64
    }

    /// Per-rep advance of a telemetry counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64 / self.reps.max(1) as f64
    }

    /// Per-rep span count of `layer`.
    #[must_use]
    pub fn calls(&self, layer: Layer) -> f64 {
        self.rec.count(layer) as f64 / self.reps.max(1) as f64
    }
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// What one rep produces.
    type Output;

    /// Builds the seeded inputs and runs a small warm-up through the same
    /// entry points, so lazy initialisation is set-up, not measurement.
    fn setup(opts: &Opts) -> Self;

    /// Items one rep processes (users, observations, apps or fixes).
    fn items(&self) -> u64;

    /// Worker threads the workload's pools run.
    fn workers(&self) -> usize;

    /// Input-size summary for the result stamp.
    fn describe(&self) -> String;

    /// Rep `k` through the public entry points, on the inputs of
    /// [`rep_seed`]`(seed, k)`, timing the phase `items_per_s` is over.
    fn rep(&mut self, k: u64) -> Rep<Self::Output>;

    /// Rep `k` through the mirrored call sequence, every call in a span.
    fn traced_rep(&mut self, k: u64, rec: &mut Recorder) -> Self::Output;

    /// Checks the output of rep `k` (`first`: also run the one-off oracle
    /// and golden checks) and returns its digest.
    fn verify(&mut self, k: u64, out: &Self::Output, first: bool, verdict: &mut Verdict) -> u64;

    /// Fills the workload's own per-layer metrics; may run extra,
    /// separately timed measurements.
    fn layer_metrics(&mut self, traced: &Traced, values: &mut LayerValues);
}

/// Telemetry counters the per-layer metrics read.
const COUNTERS: [&str; 10] = [
    "core.poi.points_total",
    "core.poi.stays_total",
    "core.poi.planar_certified_total",
    "core.poi.planar_refined_total",
    "core.hisbin.compares_total",
    "core.leakage.observations_total",
    "core.leakage.candidate_sets_total",
    "core.leakage.candidates_total",
    "market.reach.cache_hits_total",
    "market.reach.cache_misses_total",
];

fn read_counters() -> [u64; COUNTERS.len()] {
    let snap = backwatch_obs::snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

/// A finished run.
pub struct Report {
    /// Output checks.
    pub verdict: Verdict,
    /// `(name, unit, value)` of the emitted metrics.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Facts the run is stamped with.
    pub stamp: Vec<(String, Json)>,
    /// Merged spans of a traced run.
    pub recorder: Option<Recorder>,
}

/// Runs workload `W` as `opts` asks.
pub fn run<W: Workload>(opts: &Opts) -> Report {
    backwatch_experiments::obs::register_all();
    backwatch_serve::obs::register();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built: Option<W> = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(W::setup(opts));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Some(mut w) = built else {
        unreachable!("SETUPS is positive");
    };

    let min_reps = if opts.scale == Scale::Full { 3 } else { 1 };
    let mut verdict = Verdict::default();
    // rep 0's output digest: of the traced rep in a traced run, so that a
    // traced and an untraced run of one seed can be compared
    let mut digest = 0;

    let mut rates = Vec::new();
    let (mut cpu_us, mut items) = (0u64, 0u64);
    let mut rep_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced = Traced {
        rec: Recorder::default(),
        reps: 0,
        counters: BTreeMap::new(),
    };
    let started = Instant::now();
    for k in 0.. {
        let t = Instant::now();
        let rep = w.rep(k);
        rep_walls.push(t.elapsed().as_secs_f64());
        let d = w.verify(k, &rep.out, k == 0, &mut verdict);
        if k == 0 && !opts.trace {
            digest = d;
        }
        rates.push(w.items() as f64 / rep.wall.as_secs_f64().max(1e-9));
        cpu_us += rep.cpu_us;
        items += w.items();
        drop(rep);

        if opts.trace {
            let before = read_counters();
            let t = Instant::now();
            let out = w.traced_rep(k, &mut traced.rec);
            let wall = t.elapsed();
            let after = read_counters();
            for ((name, b), a) in COUNTERS.iter().zip(before).zip(after) {
                *traced.counters.entry(name).or_insert(0) += a.saturating_sub(b);
            }
            traced.reps += 1;
            traced_walls.push(wall.as_secs_f64());
            let traced_digest = w.verify(k, &out, false, &mut verdict);
            verdict.check(traced_digest == d, || {
                format!("rep {k}: traced output {traced_digest:016x} != untraced {d:016x}")
            });
            if k == 0 {
                digest = traced_digest;
            }
        }
        if rates.len() >= min_reps && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let peak_rss_kb = sys::peak_rss_kb();

    let metrics = if opts.trace {
        let mut values = LayerValues::default();
        generic_layer_metrics(&traced, &rep_walls, &traced_walls, &mut values);
        w.layer_metrics(&traced, &mut values);
        values.iter().collect()
    } else {
        let e2e = [
            median(&setup_s),
            median(&rates),
            ratio(cpu_us as f64, items as f64),
            peak_rss_kb as f64 / 1024.0,
        ];
        END_TO_END.iter().zip(e2e).map(|(&(n, u), v)| (n, u, v)).collect()
    };

    let stamp = vec![
        ("workload".to_owned(), Json::Str(opts.workload.clone())),
        ("seed".to_owned(), Json::Num(opts.seed as f64)),
        ("scale".to_owned(), Json::Str(opts.scale.name().to_owned())),
        ("trace".to_owned(), Json::Bool(opts.trace)),
        ("inputs".to_owned(), Json::Str(w.describe())),
        ("items_per_rep".to_owned(), Json::Num(w.items() as f64)),
        ("setups".to_owned(), Json::Num(SETUPS as f64)),
        ("reps".to_owned(), Json::Num(rates.len() as f64)),
        ("traced_reps".to_owned(), Json::Num(traced.reps as f64)),
        ("seconds".to_owned(), Json::Num(opts.seconds)),
        ("nproc".to_owned(), Json::Num(sys::nproc() as f64)),
        ("threads".to_owned(), Json::Num(w.workers() as f64)),
        ("git_rev".to_owned(), Json::Str(sys::git_rev(&repo_root()))),
        ("digest".to_owned(), Json::Str(format!("{digest:016x}"))),
        (
            "failures".to_owned(),
            Json::Arr(verdict.notes.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    Report {
        verdict,
        metrics,
        stamp,
        recorder: opts.trace.then_some(traced.rec),
    }
}

/// The per-layer metrics every workload derives the same way: layer busy
/// times, pool use, work counts and ratios, coverage and overhead.
fn generic_layer_metrics(t: &Traced, untraced_walls: &[f64], traced_walls: &[f64], v: &mut LayerValues) {
    for (name, layer) in [
        ("trace.synth.busy_s", Layer::TraceSynth),
        ("trace.soa.busy_s", Layer::TraceSoa),
        ("trace.sampling.busy_s", Layer::TraceSampling),
        ("core.poi.busy_s", Layer::CorePoi),
        ("core.metrics.busy_s", Layer::CoreMetrics),
        ("core.pattern.busy_s", Layer::CorePattern),
        ("core.hisbin.busy_s", Layer::CoreHisbin),
        ("core.adversary.busy_s", Layer::CoreAdversary),
        ("core.leakage.busy_s", Layer::CoreLeakage),
        ("market.corpus.busy_s", Layer::MarketCorpus),
        ("market.summary.busy_s", Layer::MarketSummary),
        ("serve.service.busy_s", Layer::ServeIngest),
    ] {
        v.set(name, t.busy_s(layer));
    }
    v.set(
        "experiments.glue.busy_s",
        t.busy_s(Layer::ExperimentsPrepare) + t.busy_s(Layer::ExperimentsTask) + t.busy_s(Layer::ExperimentsFold),
    );

    let points = t.counter("core.poi.points_total");
    v.set("core.poi.points", points);
    v.set("core.poi.stays", t.counter("core.poi.stays_total"));
    v.set("core.poi.ns_per_point", ratio(t.busy_s(Layer::CorePoi) * 1e9, points));
    let certified = t.counter("core.poi.planar_certified_total");
    let refined = t.counter("core.poi.planar_refined_total");
    v.set("core.poi.refine_ratio", ratio(refined, certified + refined));
    v.set("core.hisbin.compares", t.counter("core.hisbin.compares_total"));
    let queries = t.calls(Layer::CoreAdversary);
    v.set("core.adversary.queries", queries);
    v.set(
        "core.adversary.us_per_query",
        ratio(t.busy_s(Layer::CoreAdversary) * 1e6, queries),
    );
    v.set("core.leakage.observations", t.counter("core.leakage.observations_total"));
    v.set(
        "core.leakage.candidates_per_query",
        ratio(
            t.counter("core.leakage.candidates_total"),
            t.counter("core.leakage.candidate_sets_total"),
        ),
    );

    let reps = t.reps.max(1) as f64;
    v.set(
        "pool.utilization",
        ratio(
            t.rec.pool_worker_ns.saturating_sub(t.rec.pool_idle_ns) as f64,
            t.rec.pool_worker_ns as f64,
        ),
    );
    v.set("pool.idle_s", t.rec.pool_idle_ns as f64 / 1e9 / reps);
    let tasks = t.rec.sorted_samples(Layer::ExperimentsPrepare);
    v.set("experiments.pool.task_p50_ms", metrics::quantile(&tasks, 0.5) / 1e6);
    v.set("experiments.pool.task_p90_ms", metrics::quantile(&tasks, 0.9) / 1e6);

    // every span's self time is busy time of some layer except the
    // caller's wait on a pool, which is neither busy nor available
    let busy: u64 = Layer::ALL
        .iter()
        .filter(|&&l| l != Layer::PoolWait)
        .map(|&l| t.rec.busy(l))
        .sum();
    let traced_ns = traced_walls.iter().sum::<f64>() * 1e9;
    let available = traced_ns - t.rec.busy(Layer::PoolWait) as f64 + t.rec.pool_worker_ns as f64;
    v.set("trace.coverage", ratio((busy + t.rec.pool_idle_ns) as f64, available));
    v.set("trace.overhead", ratio(median(traced_walls), median(untraced_walls)) - 1.0);
}

/// The repository root: the parent of this package's directory.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Renders the result object: `correct`, `attempted`, `failed`,
/// `metrics` (each `{"value", "unit"}`), with the stamp under `bwbench`
/// when `with_stamp`.
#[must_use]
pub fn result_json(report: &Report, with_stamp: bool) -> Json {
    let mut members = Vec::new();
    if with_stamp {
        members.push(("bwbench".to_owned(), Json::Obj(report.stamp.clone())));
    }
    members.push(("correct".to_owned(), Json::Bool(report.verdict.failed == 0)));
    members.push(("attempted".to_owned(), Json::Num(report.verdict.attempted.max(1) as f64)));
    members.push(("failed".to_owned(), Json::Num(report.verdict.failed as f64)));
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_owned(),
                Json::Obj(vec![
                    ("value".to_owned(), Json::Num(value)),
                    ("unit".to_owned(), Json::Str(unit.to_owned())),
                ]),
            )
        })
        .collect();
    members.push(("metrics".to_owned(), Json::Obj(metrics)));
    Json::Obj(members)
}

/// Human-readable metric table.
#[must_use]
pub fn render_table(report: &Report) -> String {
    let mut s = String::new();
    for &(name, unit, value) in &report.metrics {
        let _ = writeln!(s, "  {name:<40} {value:>16.6} {unit}");
    }
    let _ = writeln!(
        s,
        "  checked {} output units, {} failed",
        report.verdict.attempted, report.verdict.failed
    );
    for note in &report.verdict.notes {
        let _ = writeln!(s, "  FAILED: {note}");
    }
    s
}

/// The traced run's spans and layer totals as JSON.
#[must_use]
pub fn trace_json(report: &Report) -> Json {
    let Some(rec) = &report.recorder else {
        return Json::Null;
    };
    let layers = Layer::ALL
        .iter()
        .map(|&l| {
            Json::Obj(vec![
                ("name".to_owned(), Json::Str(l.name().to_owned())),
                ("self_s".to_owned(), Json::Num(rec.busy(l) as f64 / 1e9)),
                ("calls".to_owned(), Json::Num(rec.count(l) as f64)),
            ])
        })
        .collect();
    let spans = rec
        .spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".to_owned(), Json::Str(s.layer.name().to_owned())),
                ("id".to_owned(), Json::Num(s.id as f64)),
                ("parent".to_owned(), Json::Num(s.parent as f64)),
                ("thread".to_owned(), Json::Num(f64::from(s.thread))),
                ("start_ns".to_owned(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_owned(), Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("bwbench".to_owned(), Json::Obj(report.stamp.clone())),
        ("layers".to_owned(), Json::Arr(layers)),
        ("spans".to_owned(), Json::Arr(spans)),
    ])
}

/// Streaming FNV-1a: the digest every output check folds with. Text
/// written through `fmt::Write` is hashed without being kept.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.finish()
}
