//! In-memory span recorder for the traced run.
//!
//! The traced run repeats the untraced run's call sequence through the
//! same public functions and wraps each call in [`Recorder::span`]. A
//! span's self time (its duration minus the part its child spans cover)
//! is added to its layer's busy time; per-call durations are kept for the
//! layers whose distributions are reported; the first [`SPAN_CAP`] spans
//! of each recorder are kept whole (name, start, end, parent, thread) and
//! written as JSON when the run ends.
//!
//! A recorder belongs to one thread. Work fanned out to a pool runs under
//! a [`Layer::PoolWait`] span on the caller; each task gets its own child
//! recorder that the caller absorbs after the join.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The layers spans are attributed to, named after the modules they call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `trace::synth::generate_user`.
    TraceSynth,
    /// `SoaProjectedTrace::project`.
    TraceSoa,
    /// `sampling::downsample_indices`, `random_start_index`, `leakage::sample_indices`.
    TraceSampling,
    /// `SpatioTemporalExtractor::extract*`.
    CorePoi,
    /// `metrics::impact_from_stays`.
    CoreMetrics,
    /// `Profile::from_stays`.
    CorePattern,
    /// `hisbin::detect_incremental`, `Matcher::compare`.
    CoreHisbin,
    /// `ProfileStore::infer` (one span per query).
    CoreAdversary,
    /// `leakage::observe`, `CoordSet::from_*`, `LeakageAdversary::candidates`.
    CoreLeakage,
    /// One user's task in the per-user preparation pool (self time is the
    /// experiment's own glue between the calls above).
    ExperimentsPrepare,
    /// Any other pool task of the experiments.
    ExperimentsTask,
    /// The experiments' sequential folds and whole-module calls.
    ExperimentsFold,
    /// The caller blocked while a pool runs; neither busy nor available.
    PoolWait,
    /// `corpus::app_at`.
    MarketCorpus,
    /// `summary::analyze_entry_cached`.
    MarketSummary,
    /// Sweep bookkeeping: records, carry-over.
    MarketSweep,
    /// `corpus::version_changed` over every app of an epoch.
    MarketVersionGate,
    /// `corpus::app_at` + `summary::app_digest` on version-changed apps.
    MarketDigest,
    /// `IngestService::ingest`.
    ServeIngest,
    /// `IngestService::snapshot_bytes`.
    ServeSnapshot,
    /// `IngestService::finish`.
    ServeFinish,
    /// The replay loop around the service calls.
    ServeLoop,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 22;

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::TraceSynth,
        Layer::TraceSoa,
        Layer::TraceSampling,
        Layer::CorePoi,
        Layer::CoreMetrics,
        Layer::CorePattern,
        Layer::CoreHisbin,
        Layer::CoreAdversary,
        Layer::CoreLeakage,
        Layer::ExperimentsPrepare,
        Layer::ExperimentsTask,
        Layer::ExperimentsFold,
        Layer::PoolWait,
        Layer::MarketCorpus,
        Layer::MarketSummary,
        Layer::MarketSweep,
        Layer::MarketVersionGate,
        Layer::MarketDigest,
        Layer::ServeIngest,
        Layer::ServeSnapshot,
        Layer::ServeFinish,
        Layer::ServeLoop,
    ];

    /// The dotted layer name used in span records and metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::TraceSynth => "trace.synth",
            Layer::TraceSoa => "trace.soa",
            Layer::TraceSampling => "trace.sampling",
            Layer::CorePoi => "core.poi",
            Layer::CoreMetrics => "core.metrics",
            Layer::CorePattern => "core.pattern",
            Layer::CoreHisbin => "core.hisbin",
            Layer::CoreAdversary => "core.adversary",
            Layer::CoreLeakage => "core.leakage",
            Layer::ExperimentsPrepare => "experiments.prepare",
            Layer::ExperimentsTask => "experiments.task",
            Layer::ExperimentsFold => "experiments.fold",
            Layer::PoolWait => "pool.wait",
            Layer::MarketCorpus => "market.corpus",
            Layer::MarketSummary => "market.summary",
            Layer::MarketSweep => "market.sweep",
            Layer::MarketVersionGate => "market.sweep.version_gate",
            Layer::MarketDigest => "market.sweep.digest",
            Layer::ServeIngest => "serve.service.ingest",
            Layer::ServeSnapshot => "serve.service.snapshot",
            Layer::ServeFinish => "serve.service.finish",
            Layer::ServeLoop => "serve.loadgen",
        }
    }

    /// Whether per-call durations are kept for percentiles.
    fn sampled(self) -> bool {
        matches!(
            self,
            Layer::ExperimentsPrepare | Layer::MarketSummary | Layer::ServeIngest | Layer::ServeSnapshot
        )
    }
}

/// Whole span records a recorder keeps of its own; later spans still
/// count in the layer sums and samples.
pub const SPAN_CAP: usize = 20_000;
/// Whole span records a recorder keeps from the recorders it absorbs.
const ABSORBED_CAP: usize = 8 * SPAN_CAP;
/// Per-call duration samples kept per layer and recorder.
const SAMPLE_CAP: usize = 1 << 22;

/// One whole span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Its layer.
    pub layer: Layer,
    /// Process-unique id.
    pub id: u64,
    /// Id of the span that caused it (0 for a root).
    pub parent: u64,
    /// Recording thread (a small process-local number).
    pub thread: u32,
    /// Start, nanoseconds since the first span of the process.
    pub start_ns: u64,
    /// End, nanoseconds since the first span of the process.
    pub end_ns: u64,
}

struct Open {
    layer: Layer,
    id: u64,
    parent: u64,
    start: Instant,
    child_ns: u64,
}

/// Per-thread span recorder; see the module docs.
pub struct Recorder {
    thread: u32,
    root_parent: u64,
    stack: Vec<Open>,
    /// Self time per layer, nanoseconds.
    pub busy_ns: [u64; LAYERS],
    /// Spans closed per layer.
    pub calls: [u64; LAYERS],
    /// Per-call durations (ns, saturating at `u32::MAX`) of sampled layers.
    pub samples: Vec<Vec<u32>>,
    /// Whole span records: up to [`SPAN_CAP`] of its own, plus absorbed ones.
    pub spans: Vec<SpanRecord>,
    own_spans: usize,
    absorbed_spans: usize,
    /// Summed lifetime of pool workers that ran this recorder's fan-outs.
    pub pool_worker_ns: u64,
    /// The part of `pool_worker_ns` the workers spent waiting for work.
    pub pool_idle_ns: u64,
}

static ORIGIN: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    // per-thread, so span ids cost no shared cache line
    static NEXT_SPAN: Cell<u64> = const { Cell::new(1) };
}

fn since_origin(t: Instant) -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

impl Default for Recorder {
    fn default() -> Self {
        Self::child_of(0)
    }
}

impl Recorder {
    /// A recorder whose root spans are children of span `parent` (a span
    /// of another thread's recorder; 0 for none).
    #[must_use]
    pub fn child_of(parent: u64) -> Self {
        ORIGIN.get_or_init(Instant::now);
        Self {
            thread: THREAD.with(|t| *t),
            root_parent: parent,
            stack: Vec::new(),
            busy_ns: [0; LAYERS],
            calls: [0; LAYERS],
            samples: vec![Vec::new(); LAYERS],
            spans: Vec::new(),
            own_spans: 0,
            absorbed_spans: 0,
            pool_worker_ns: 0,
            pool_idle_ns: 0,
        }
    }

    /// Id of the innermost open span (what a child recorder should name as
    /// its parent).
    #[must_use]
    pub fn current(&self) -> u64 {
        self.stack.last().map_or(self.root_parent, |o| o.id)
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> T) -> T {
        let seq = NEXT_SPAN.with(|next| next.replace(next.get() + 1));
        let id = (u64::from(self.thread) << 40) | seq;
        let parent = self.current();
        self.stack.push(Open {
            layer,
            id,
            parent,
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let end = Instant::now();
        let Some(open) = self.stack.pop() else {
            unreachable!("span stack is balanced by construction");
        };
        let dur = u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX);
        if let Some(outer) = self.stack.last_mut() {
            outer.child_ns += dur;
        }
        let i = open.layer as usize;
        self.busy_ns[i] += dur.saturating_sub(open.child_ns);
        self.calls[i] += 1;
        if open.layer.sampled() && self.samples[i].len() < SAMPLE_CAP {
            self.samples[i].push(u32::try_from(dur).unwrap_or(u32::MAX));
        }
        if self.own_spans < SPAN_CAP {
            self.own_spans += 1;
            self.spans.push(SpanRecord {
                layer: open.layer,
                id: open.id,
                parent: open.parent,
                thread: self.thread,
                start_ns: since_origin(open.start),
                end_ns: since_origin(end),
            });
        }
        out
    }

    /// Folds another recorder's totals, samples and (room permitting)
    /// spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        for i in 0..LAYERS {
            self.busy_ns[i] += other.busy_ns[i];
            self.calls[i] += other.calls[i];
        }
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            let room = SAMPLE_CAP.saturating_sub(mine.len());
            mine.extend(theirs.into_iter().take(room));
        }
        let taken = other.spans.len().min(ABSORBED_CAP.saturating_sub(self.absorbed_spans));
        self.absorbed_spans += taken;
        self.spans.extend(other.spans.into_iter().take(taken));
        self.pool_worker_ns += other.pool_worker_ns;
        self.pool_idle_ns += other.pool_idle_ns;
    }

    /// Self time of `layer`, nanoseconds.
    #[must_use]
    pub fn busy(&self, layer: Layer) -> u64 {
        self.busy_ns[layer as usize]
    }

    /// Spans closed in `layer`.
    #[must_use]
    pub fn count(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Sorted per-call durations of a sampled layer, nanoseconds.
    #[must_use]
    pub fn sorted_samples(&self, layer: Layer) -> Vec<u32> {
        let mut s = self.samples[layer as usize].clone();
        s.sort_unstable();
        s
    }
}

/// [`backwatch_experiments::pool::map_users`] under a [`Layer::PoolWait`]
/// span, each user's task inside a `task` span on its own recorder. The
/// pool's busy/idle counters are read around the call so worker lifetime
/// and idle time reach the caller's recorder.
pub fn map_users<T, F>(rec: &mut Recorder, task: Layer, n_users: u32, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32, &mut Recorder) -> T + Sync,
{
    use backwatch_experiments::obs::{POOL_BUSY_US, POOL_IDLE_US};
    rec.span(Layer::PoolWait, |rec| {
        let parent = rec.current();
        let (busy0, idle0) = (POOL_BUSY_US.get(), POOL_IDLE_US.get());
        let out = backwatch_experiments::pool::map_users(n_users, threads, |u| {
            let mut child = Recorder::child_of(parent);
            let value = child.span(task, |r| f(u, r));
            (value, child)
        });
        let busy = POOL_BUSY_US.get().saturating_sub(busy0);
        let idle = POOL_IDLE_US.get().saturating_sub(idle0);
        rec.pool_worker_ns += (busy + idle) * 1_000;
        rec.pool_idle_ns += idle * 1_000;
        out.into_iter()
            .map(|(value, child)| {
                rec.absorb(child);
                value
            })
            .collect()
    })
}

/// Runs `f(i, recorder)` for every `i in 0..n` on up to `threads` scoped
/// workers that claim contiguous index batches (the shape of the market
/// sweep's own pool), under a [`Layer::PoolWait`] span. Results come back
/// in index order. Worker lifetime and the time spent outside `f` reach
/// the caller's recorder as pool time and idle time.
pub fn par_map<T, F>(rec: &mut Recorder, n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Recorder) -> T + Sync,
{
    let workers = threads.clamp(1, n.max(1)).min(crate::sys::nproc());
    let batch = (n / (workers * 8)).max(1);
    rec.span(Layer::PoolWait, |rec| {
        let parent = rec.current();
        let next = AtomicUsize::new(0);
        let results: Vec<(Vec<(usize, T)>, Recorder)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (next, f) = (&next, &f);
                    scope.spawn(move || {
                        let born = Instant::now();
                        let mut child = Recorder::child_of(parent);
                        let mut out = Vec::new();
                        let mut in_f = 0u64;
                        loop {
                            let start = next.fetch_add(batch, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            for i in start..(start + batch).min(n) {
                                let t = Instant::now();
                                out.push((i, f(i, &mut child)));
                                in_f += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            }
                        }
                        let life = u64::try_from(born.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        child.pool_worker_ns += life;
                        child.pool_idle_ns += life.saturating_sub(in_f);
                        (out, child)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(n, || None);
        for (out, child) in results {
            rec.absorb(child);
            for (i, v) in out {
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index is claimed exactly once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::default();
        rec.span(Layer::ExperimentsFold, |r| {
            spin(200_000);
            r.span(Layer::CorePoi, |_| spin(2_000_000));
        });
        let outer = rec.busy(Layer::ExperimentsFold);
        let inner = rec.busy(Layer::CorePoi);
        assert!(inner >= 2_000_000);
        assert!(outer >= 200_000 && outer < inner, "outer self {outer} inner {inner}");
        assert_eq!(rec.spans.len(), 2);
        let (child, parent) = (rec.spans[0], rec.spans[1]);
        assert_eq!(child.parent, parent.id);
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    }

    #[test]
    fn par_map_keeps_index_order_and_accounts_workers() {
        let mut rec = Recorder::default();
        let out = par_map(&mut rec, 1000, 2, |i, r| r.span(Layer::MarketCorpus, |_| i * 3));
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(rec.count(Layer::MarketCorpus), 1000);
        assert_eq!(rec.count(Layer::PoolWait), 1);
        assert!(rec.pool_worker_ns >= rec.pool_idle_ns);
        assert!(rec
            .spans
            .iter()
            .filter(|s| s.layer == Layer::MarketCorpus)
            .all(|s| s.parent != 0));
    }
}
