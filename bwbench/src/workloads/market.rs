//! `market`: the static analyzer over a market of 200,004 apps, 90% of
//! them linking the shared ad SDK (the code sharing the summary cache is
//! built for), 0.5% churn per crawl epoch. One rep is a cold `sweep` with
//! a fresh `SummaryCache`, then a chain of 10 `sweep_incremental` epochs
//! (snapshot k → k+1). An item is one app of the cold sweep.
//!
//! Own-code classes are unique per app, so the working set passes the
//! cache's ~65k-summary bound long before 200k apps and the cache evicts
//! (as it does at the million-app scale of X9, where a cold sweep alone
//! takes longer than a whole run). A cold sweep is mostly summary
//! builds (cache writes); an epoch is mostly version-gate and digest
//! reads plus carry-over.

use crate::golden;
use crate::harness::{fnv1a, rep_seed, Fnv, Opts, Rep, Scale, Traced, Verdict, Workload};
use crate::metrics::{median, quantile, ratio, LayerValues};
use crate::span::{self, Layer, Recorder};
use backwatch_android::ir;
use backwatch_android::provider::ALL_PROVIDERS;
use backwatch_market::corpus::{self, CorpusConfig};
use backwatch_market::summary::{analyze_entry_cached, app_digest, summarize_class, CacheTally, CachedAnalysis, SummaryCache};
use backwatch_market::sweep::{sweep, sweep_incremental, AppRecord, SweepResult};
use backwatch_market::{reach, taint};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Incremental epochs per rep.
const EPOCHS: u32 = 10;

/// The workload state.
pub struct Market {
    /// The corpus at the default seed.
    base: CorpusConfig,
    opts: Opts,
    /// Every `stride`-th app: the oracle slice and the stage-split slice.
    slice: Vec<usize>,
    /// Untraced epoch wall times, milliseconds.
    epoch_ms: Vec<f64>,
    /// Traced epochs run, and their version/digest changes.
    traced_epochs: (u64, u64, u64),
}

/// One epoch's change counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    version_changed: usize,
    digest_changed: usize,
    funnel_kept: bool,
}

/// One rep's results.
pub struct Output {
    cold: SweepResult,
    last: SweepResult,
    epochs: Vec<Epoch>,
}

fn config(scale: Scale) -> CorpusConfig {
    let per_category = match scale {
        Scale::Full => 7_143,
        Scale::Smoke => 30,
    };
    CorpusConfig::scaled(per_category).with_sdk_share(90).with_churn_ppm(5_000)
}

impl Market {
    /// The corpus of rep `k`.
    fn cfg(&self, k: u64) -> CorpusConfig {
        let mut cfg = self.base;
        cfg.seed ^= rep_seed(self.opts.seed, k);
        cfg
    }
}

impl Workload for Market {
    type Output = Output;

    fn setup(opts: &Opts) -> Self {
        let mut warm = match opts.scale {
            Scale::Full => CorpusConfig::scaled(300).with_sdk_share(90),
            Scale::Smoke => config(Scale::Smoke),
        };
        warm.seed ^= opts.seed;
        std::hint::black_box(sweep(&warm, opts.threads, &SummaryCache::new()));
        let base = config(opts.scale);
        let stride = if opts.scale == Scale::Full { 71 } else { 9 };
        Self {
            base,
            opts: opts.clone(),
            slice: (0..base.total()).step_by(stride).collect(),
            epoch_ms: Vec::new(),
            traced_epochs: (0, 0, 0),
        }
    }

    fn items(&self) -> u64 {
        self.base.total() as u64
    }

    fn workers(&self) -> usize {
        self.opts.threads
    }

    fn describe(&self) -> String {
        format!(
            "{} apps, {}% SDK share, {} ppm churn, {EPOCHS} epochs",
            self.base.total(),
            self.base.sdk_share_percent,
            self.base.churn_ppm
        )
    }

    fn rep(&mut self, k: u64) -> Rep<Output> {
        let cfg = self.cfg(k);
        let cache = SummaryCache::new();
        let threads = self.opts.threads;
        let cold = Rep::timed(|| sweep(&cfg, threads, &cache));
        let mut last: Option<SweepResult> = None;
        let mut epochs = Vec::new();
        for epoch in 1..=EPOCHS {
            let next = cfg.at_snapshot(epoch);
            let prev = last.as_ref().unwrap_or(&cold.out);
            let t = Instant::now();
            let (inc, delta) = sweep_incremental(&next, prev, threads, &cache);
            self.epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            epochs.push(Epoch {
                version_changed: delta.version_changed,
                digest_changed: delta.digest_changed,
                funnel_kept: delta.funnel_before == delta.funnel_after,
            });
            last = Some(inc);
        }
        Rep {
            out: Output {
                last: last.unwrap_or_else(|| cold.out.clone()),
                cold: cold.out,
                epochs,
            },
            wall: cold.wall,
            cpu_us: cold.cpu_us,
        }
    }

    fn traced_rep(&mut self, k: u64, rec: &mut Recorder) -> Output {
        let cache = SummaryCache::new();
        let cfg = self.cfg(k);
        let n = cfg.total();
        let threads = self.opts.threads;
        let rows = span::par_map(rec, n, threads, |i, r| {
            let entry = r.span(Layer::MarketCorpus, |_| corpus::app_at(&cfg, i));
            r.span(Layer::MarketSummary, |_| row_of(&analyze_entry_cached(&entry, &cache)))
        });
        let cold = rec.span(Layer::MarketSweep, |_| cold_result(cfg, rows));
        let mut last: Option<SweepResult> = None;
        let mut epochs = Vec::new();
        for epoch in 1..=EPOCHS {
            let next = cfg.at_snapshot(epoch);
            let prev = last.as_ref().unwrap_or(&cold);
            let stale: Vec<usize> = rec.span(Layer::MarketVersionGate, |_| {
                (0..n).filter(|&i| corpus::version_changed(&prev.cfg, &next, i)).collect()
            });
            let visits = span::par_map(rec, stale.len(), threads, |j, r| {
                let i = stale[j];
                let (entry, digest) = r.span(Layer::MarketDigest, |_| {
                    let entry = corpus::app_at(&next, i);
                    let digest = app_digest(&entry);
                    (entry, digest)
                });
                (digest != prev.digests[i])
                    .then(|| r.span(Layer::MarketSummary, |_| row_of(&analyze_entry_cached(&entry, &cache))))
            });
            let digest_changed = visits.iter().flatten().count();
            let (inc, funnel_kept) = rec.span(Layer::MarketSweep, |_| {
                let mut inc = SweepResult {
                    cfg: next,
                    records: prev.records.clone(),
                    digests: prev.digests.clone(),
                    tally: CacheTally::default(),
                    analyzed: digest_changed,
                    reused: n - digest_changed,
                    wall: Duration::ZERO,
                };
                for (&i, row) in stale.iter().zip(visits) {
                    if let Some((record, digest, tally)) = row {
                        inc.records[i] = record;
                        inc.digests[i] = digest;
                        inc.tally.absorb(tally);
                    }
                }
                let funnel_kept = prev.funnel() == inc.funnel();
                (inc, funnel_kept)
            });
            epochs.push(Epoch {
                version_changed: stale.len(),
                digest_changed,
                funnel_kept,
            });
            self.traced_epochs.0 += 1;
            self.traced_epochs.1 += stale.len() as u64;
            self.traced_epochs.2 += digest_changed as u64;
            last = Some(inc);
        }
        // freeing ~65k summaries is the cache's work too
        rec.span(Layer::MarketSummary, |_| drop(cache));
        Output {
            last: last.unwrap_or_else(|| cold.clone()),
            cold,
            epochs,
        }
    }

    fn verify(&mut self, k: u64, out: &Output, first: bool, verdict: &mut Verdict) -> u64 {
        let cfg = self.cfg(k);
        let n = cfg.total();
        verdict.check(
            out.cold.records.len() == n && out.cold.analyzed == n && out.last.records.len() == n,
            || "sweep sizes do not match the corpus".to_owned(),
        );
        for (epoch, e) in (1..).zip(&out.epochs) {
            verdict.check(e.digest_changed <= e.version_changed && e.funnel_kept, || {
                format!("epoch {epoch}: {e:?}")
            });
        }
        let (cold, last) = (records_digest(&out.cold), records_digest(&out.last));
        if first {
            // the uncached reach and taint analyzers are the oracles the
            // cached sweeps must match app for app
            let final_cfg = cfg.at_snapshot(EPOCHS);
            for &i in &self.slice {
                for (snapshot, result) in [(&cfg, &out.cold), (&final_cfg, &out.last)] {
                    let entry = corpus::app_at(snapshot, i);
                    let ok = reach::analyze_entry(&entry) == result.finding_at(i)
                        && taint::analyze_entry(&entry).taint == result.records[i].taint;
                    verdict.check(ok, || {
                        format!("app {i} at snapshot {}: sweep differs from the oracle", snapshot.snapshot)
                    });
                }
            }
            if self.opts.golden(k) {
                let observed = [
                    ("funnel", fnv1a(format!("{:?}", out.cold.funnel()).as_bytes())),
                    ("cold_records", cold),
                    ("final_records", last),
                ]
                .map(|(key, d)| (key.to_owned(), d));
                golden::check("market", &observed, verdict);
            }
        }
        cold ^ last.rotate_left(1)
    }

    fn layer_metrics(&mut self, traced: &Traced, v: &mut LayerValues) {
        let rec = &traced.rec;
        v.set(
            "market.corpus.us_per_app",
            ratio(
                rec.busy(Layer::MarketCorpus) as f64 / 1e3,
                rec.count(Layer::MarketCorpus) as f64,
            ),
        );
        let apps = rec.sorted_samples(Layer::MarketSummary);
        v.set("market.summary.app_p50_us", quantile(&apps, 0.5) / 1e3);
        v.set("market.summary.app_p999_us", quantile(&apps, 0.999) / 1e3);
        let hits = traced.counter("market.reach.cache_hits_total");
        let misses = traced.counter("market.reach.cache_misses_total");
        v.set("market.summary.hit_rate", ratio(hits, hits + misses));
        v.set(
            "market.summary.misses_per_app",
            ratio(misses, traced.calls(Layer::MarketSummary)),
        );

        let (epochs, version_changed, digest_changed) = self.traced_epochs;
        let per_epoch = |x: f64| ratio(x, epochs as f64);
        v.set("market.sweep.incremental_ms", median(&self.epoch_ms));
        v.set(
            "market.sweep.version_gate_s",
            per_epoch(rec.busy(Layer::MarketVersionGate) as f64 / 1e9),
        );
        v.set("market.sweep.digest_s", per_epoch(rec.busy(Layer::MarketDigest) as f64 / 1e9));
        v.set("market.sweep.version_changed", per_epoch(version_changed as f64));
        v.set("market.sweep.digest_changed", per_epoch(digest_changed as f64));
        v.set(
            "market.sweep.reanalyzed_ratio",
            ratio(digest_changed as f64, version_changed as f64),
        );

        // stage split on the slice, timed apart from the traced reps
        let mut stage = [Duration::ZERO; 5];
        let mut time = |i: usize, t: Instant| stage[i] += t.elapsed();
        let cfg = self.cfg(0);
        for &i in &self.slice {
            let entry = corpus::app_at(&cfg, i);
            let t = Instant::now();
            let text = ir::render(&ir::lower(&entry.app));
            time(0, t);
            let t = Instant::now();
            let parsed = ir::parse(&text);
            time(1, t);
            let t = Instant::now();
            for class in parsed.iter().flat_map(|p| &p.classes) {
                std::hint::black_box(summarize_class(class));
            }
            time(2, t);
            let t = Instant::now();
            std::hint::black_box(reach::analyze_entry(&entry));
            time(3, t);
            let t = Instant::now();
            std::hint::black_box(taint::analyze_entry(&entry));
            time(4, t);
        }
        let names = [
            "android.ir.lower_us",
            "android.ir.parse_us",
            "market.summary.summarize_us",
            "market.reach.oracle_us",
            "market.taint.oracle_us",
        ];
        for (name, total) in names.iter().zip(stage) {
            v.set(name, ratio(total.as_secs_f64() * 1e6, self.slice.len() as f64));
        }
    }
}

fn provider_mask(analysis: &CachedAnalysis) -> u8 {
    ALL_PROVIDERS
        .iter()
        .enumerate()
        .filter(|(_, kind)| analysis.finding.providers.contains(kind))
        .fold(0, |mask, (bit, _)| mask | (1 << bit))
}

fn row_of(a: &CachedAnalysis) -> (AppRecord, u64, CacheTally) {
    let record = AppRecord {
        class: a.finding.class,
        taint: a.taint,
        claim: a.finding.claim,
        providers: provider_mask(a),
        combo: a.finding.combo,
        parse_failed: a.parse_failed,
    };
    (record, a.app_digest, a.tally)
}

/// The cold sweep's result from its per-app rows, in corpus order.
fn cold_result(cfg: CorpusConfig, rows: Vec<(AppRecord, u64, CacheTally)>) -> SweepResult {
    let mut result = SweepResult {
        cfg,
        records: Vec::with_capacity(rows.len()),
        digests: Vec::with_capacity(rows.len()),
        tally: CacheTally::default(),
        analyzed: rows.len(),
        reused: 0,
        wall: Duration::ZERO,
    };
    for (record, digest, tally) in rows {
        result.records.push(record);
        result.digests.push(digest);
        result.tally.absorb(tally);
    }
    result
}

fn records_digest(result: &SweepResult) -> u64 {
    let mut h = Fnv::default();
    for (record, digest) in result.records.iter().zip(&result.digests) {
        let _ = writeln!(h, "{record:?} {digest:016x}");
    }
    h.finish()
}
