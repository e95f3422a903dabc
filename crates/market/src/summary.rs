//! Content-hash summary cache: per-class summaries keyed by IR digest, so
//! corpus sweeps compose cached facts instead of re-walking shared code.
//!
//! The structural bet (from the ad-SDK tracking literature) is that
//! market code is massively shared: the same library classes appear in
//! thousands of apps, hash to the same [`ir::digest_class`] value, and
//! therefore need summarizing exactly once. A [`ClassSummary`] records,
//! in one pass over each method, everything either analysis pass asks
//! of a class: call sites, static fields, `LocationManager` and
//! fused-client sinks, the provider string constants beside the manager
//! sinks, and the taint op stream.
//!
//! Both passes walk one `MethodIndex` per composed program, which
//! resolves every call site once: to an own method, a method of the
//! folded SDK fragment, or a framework edge. The uncached oracle indexes
//! freshly summarized classes with no fragment (its classes composed
//! inline); [`analyze_entry_cached`] indexes cache-resident summaries and
//! folds the linked SDK as one [`FragmentSummary`]: a table holding, per
//! fragment method, the *transitive* sink/provider facts and the taint
//! outcome at every lattice input, computed once per fragment digest, so
//! a million apps embedding the fragment cost one fragment analysis.
//!
//! Correctness contract: for every corpus entry, the finding returned
//! here is bit-identical to [`crate::reach::analyze_entry`], and the
//! `market.reach.*` telemetry advances identically — the differential
//! suite in `tests/reach_cache.rs` pins both. Soundness depends on
//! content digests being collision-free in practice; DESIGN.md §13
//! discusses the FNV-vs-cryptographic-hash tradeoff.

use crate::corpus::MarketApp;
use crate::reach::{self, ReachFinding};
use crate::sdk::SdkLib;
use crate::taint::{self, Solver, TaintClass, TaintOp, TaintOutcome, LATTICE};
use backwatch_android::app::{ComponentKind, Manifest};
use backwatch_android::ir::{self, IrClass, IrInstr};
use backwatch_android::permission::Permission;
use backwatch_android::provider::ProviderKind;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What the reachability and taint passes need to know about one method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSummary {
    /// Every `invoke` target, in program order.
    pub callees: Vec<(String, String)>,
    /// Every static field an `sput` or `sget` names, in program order.
    pub(crate) fields: Vec<(String, String)>,
    /// Whether the method invokes a `LocationManager` sink.
    pub manager_sink: bool,
    /// Whether the method invokes a fused-client sink.
    pub fused_sink: bool,
    /// Provider names among the method's string constants — the
    /// provider evidence if `manager_sink` is set.
    pub const_providers: Vec<ProviderKind>,
    /// The method's taint operations, pre-classified against the
    /// signature tables; calls and field accesses name their operand by
    /// position in `callees` and `fields`.
    pub taint_ops: Vec<TaintOp>,
}

/// Digest-keyed summary of one class: the unit of cache reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSummary {
    /// Class path.
    pub name: String,
    /// [`ir::digest_class`] of the summarized IR.
    pub digest: u64,
    /// Per-method summaries, in declaration order.
    pub methods: Vec<(String, MethodSummary)>,
}

/// The one pass over a method's instructions, and the only place they
/// are checked against the signature tables. A framework signature is
/// classified here, at the call site, so a program class reusing a
/// framework name never turns a source, sanitizer or sink call into a
/// program call.
fn summarize_method(instrs: &[IrInstr]) -> MethodSummary {
    let mut s = MethodSummary {
        callees: Vec::new(),
        fields: Vec::new(),
        manager_sink: false,
        fused_sink: false,
        const_providers: Vec::new(),
        taint_ops: Vec::with_capacity(instrs.len()),
    };
    for instr in instrs {
        let op = match instr {
            IrInstr::ConstString(c) => {
                if let Ok(p) = c.parse::<ProviderKind>() {
                    if !s.const_providers.contains(&p) {
                        s.const_providers.push(p);
                    }
                }
                TaintOp::Kill
            }
            IrInstr::Invoke { class, method } => {
                let sink = ir::is_sink(class, method);
                if sink {
                    s.manager_sink |= class == ir::LOCATION_MANAGER_CLASS;
                    s.fused_sink |= class == ir::FUSED_CLIENT_CLASS;
                }
                let site = s.callees.len() as u32;
                s.callees.push((class.clone(), method.clone()));
                if ir::is_source(class, method) {
                    TaintOp::Source
                } else if let Some(d) = ir::sanitizer_degree(class, method) {
                    TaintOp::Sanitize(d)
                } else if ir::is_net_sink(class, method) {
                    TaintOp::NetLeak
                } else if sink {
                    TaintOp::Registers
                } else {
                    TaintOp::Call(site)
                }
            }
            IrInstr::MoveResult => TaintOp::MoveResult,
            IrInstr::ReturnValue => TaintOp::ReturnValue,
            IrInstr::Sput { class, field } | IrInstr::Sget { class, field } => {
                let f = s.fields.len() as u32;
                s.fields.push((class.clone(), field.clone()));
                if matches!(instr, IrInstr::Sput { .. }) {
                    TaintOp::Sput(f)
                } else {
                    TaintOp::Sget(f)
                }
            }
        };
        s.taint_ops.push(op);
    }
    s
}

/// Summarizes one class (used on cache misses).
#[must_use]
pub fn summarize_class(class: &IrClass) -> ClassSummary {
    ClassSummary {
        name: class.name.clone(),
        digest: ir::digest_class(class),
        methods: class
            .methods
            .iter()
            .map(|m| (m.name.clone(), summarize_method(&m.instrs)))
            .collect(),
    }
}

/// Where one call site or manifest entry point lands. A [`MethodIndex`]
/// resolves each once, in the order both passes need: an own method
/// first, then a fragment method, then a framework edge.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Target<'a> {
    /// A method of the indexed program, by id.
    Own(usize),
    /// A method of the folded fragment: its precomputed facts.
    Fragment(&'a FragRow),
    /// Neither: a framework class (the sinks included), which ends the
    /// walk and returns a clean value.
    Framework,
}

/// One indexed method: its summary and where its resolved call sites and
/// field slots start.
struct Indexed<'a> {
    summary: &'a MethodSummary,
    site0: usize,
    slot0: usize,
}

/// The one index over a composed program that the reachability BFS and
/// the taint solver walk: method ids in declaration order, every call
/// site resolved to a [`Target`], every static field numbered, the ids of
/// the `onLocationChanged` methods, and the manifest's entry points.
/// Building it is the last string hashing of an analysis.
pub(crate) struct MethodIndex<'a> {
    /// (class, method) → id: the one place methods are numbered.
    ids: HashMap<(&'a str, &'a str), usize>,
    methods: Vec<Indexed<'a>>,
    /// Resolved call sites, flattened: method `id`'s `callees[i]` lands
    /// at `sites[site0 + i]`.
    sites: Vec<Target<'a>>,
    /// Program-wide field numbers, flattened the same way over `fields`.
    pub(crate) slots: Vec<usize>,
    pub(crate) callbacks: Vec<usize>,
    /// The manifest's entry points by the lifecycle that invokes them:
    /// activities (plus the receivers that fire only while the user
    /// interacts with the app), services, and `BOOT_COMPLETED` receivers
    /// when the boot permission is held. Empty without a manifest.
    pub(crate) roots: [Vec<Target<'a>>; 3],
    /// Declared components whose class neither the program nor the
    /// fragment defines.
    pub(crate) missing: usize,
}

impl<'a> MethodIndex<'a> {
    /// Indexes `classes` with `fragment` folded, and resolves the entry
    /// points of `manifest` when one is given. A later method of the same
    /// (class, name) shadows an earlier one.
    pub(crate) fn new(
        manifest: Option<&Manifest>,
        classes: impl IntoIterator<Item = &'a ClassSummary>,
        fragment: Option<&'a FragmentSummary>,
    ) -> Self {
        let mut ids: HashMap<(&str, &str), usize> = HashMap::new();
        let mut defined: HashSet<&str> = HashSet::new();
        let mut methods = Vec::new();
        let mut callbacks = Vec::new();
        let (mut site0, mut slot0) = (0, 0);
        for class in classes {
            defined.insert(&class.name);
            for (name, summary) in &class.methods {
                if name == ir::LISTENER_CALLBACK {
                    callbacks.push(methods.len());
                }
                ids.insert((&class.name, name), methods.len());
                methods.push(Indexed { summary, site0, slot0 });
                site0 += summary.callees.len();
                slot0 += summary.fields.len();
            }
        }
        let resolve = |class: &str, method: &str| match ids.get(&(class, method)) {
            Some(&id) => Target::Own(id),
            None => fragment
                .and_then(|f| f.row(class, method))
                .map_or(Target::Framework, Target::Fragment),
        };
        let mut sites = Vec::with_capacity(site0);
        let mut slots = Vec::with_capacity(slot0);
        let mut field_ids: HashMap<(&str, &str), usize> = HashMap::new();
        for m in &methods {
            sites.extend(m.summary.callees.iter().map(|(c, name)| resolve(c, name)));
            for (class, field) in &m.summary.fields {
                let next = field_ids.len();
                slots.push(*field_ids.entry((class, field)).or_insert(next));
            }
        }
        let mut roots: [Vec<Target<'a>>; 3] = Default::default();
        let mut missing = 0;
        if let Some(manifest) = manifest {
            let boot_permitted = manifest.permissions().contains(&Permission::ReceiveBootCompleted);
            let [activity, service, boot] = &mut roots;
            for component in manifest.components() {
                let class = component.class_path(manifest.package());
                if !defined.contains(class.as_str()) && !fragment.is_some_and(|f| f.defines_class(&class)) {
                    missing += 1;
                    continue;
                }
                let bucket = match component.kind {
                    ComponentKind::Activity => &mut *activity,
                    ComponentKind::Service => &mut *service,
                    ComponentKind::Receiver if component.is_boot_receiver() && boot_permitted => &mut *boot,
                    // non-boot receivers fire only while the app is
                    // interacting with the user, so they gate nothing
                    // beyond foreground
                    ComponentKind::Receiver => &mut *activity,
                };
                bucket.extend(ir::entry_methods(component.kind).iter().map(|m| resolve(&class, m)));
            }
        }
        Self {
            ids,
            methods,
            sites,
            slots,
            callbacks,
            roots,
            missing,
        }
    }

    /// Number of indexed methods; ids run `0..len()`.
    pub(crate) fn len(&self) -> usize {
        self.methods.len()
    }

    /// Method `id`: its summary, its resolved call sites (parallel to
    /// `callees`) and its field numbers (parallel to `fields`).
    pub(crate) fn method(&self, id: usize) -> Option<(&'a MethodSummary, &[Target<'a>], &[usize])> {
        let m = self.methods.get(id)?;
        let sites = self.sites.get(m.site0..m.site0 + m.summary.callees.len())?;
        let slots = self.slots.get(m.slot0..m.slot0 + m.summary.fields.len())?;
        Some((m.summary, sites, slots))
    }
}

/// What one worklist exploration reaches. Stored per fragment method, it
/// is what entering the fragment at that method can ever reach,
/// precomputed so app analyses fold a constant instead of traversing
/// fragment code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FragReach {
    /// A sink is reachable from the explored entries.
    pub sink: bool,
    /// Providers evidenced by the reached sink call sites.
    pub providers: BTreeSet<ProviderKind>,
}

/// One fragment method's row of the fragment table: its transitive
/// reachability facts and its taint outcome at every [`LATTICE`] input.
#[derive(Debug)]
pub(crate) struct FragRow {
    pub(crate) reach: FragReach,
    pub(crate) taint: [TaintOutcome; LATTICE.len()],
}

impl FragRow {
    /// The taint outcome of entering the method with `input` taint.
    pub(crate) fn transfer(&self, input: u8) -> TaintOutcome {
        let i = LATTICE.iter().position(|&v| v == input);
        i.and_then(|i| self.taint.get(i)).copied().unwrap_or_default()
    }
}

/// One shared library fragment, summarized transitively into one table
/// with a row per fragment method. Sound because the call direction is
/// one-way: apps call into the fragment, fragment code never calls back
/// into app code. The taint rows also need the two properties its build
/// asserts: the fragment touches no static fields (no hidden coupling
/// with app state) and defines no `onLocationChanged` callback (callback
/// seeding stays app-local).
#[derive(Debug)]
pub struct FragmentSummary {
    /// The fragment's [`SdkLib::digest`].
    pub digest: u64,
    /// Classes in the fragment (the cache counts one hit per class when
    /// a composed program reuses the fragment wholesale).
    pub class_count: usize,
    /// Class → method → row: the fragment's one (class, method) → id map.
    ids: HashMap<String, HashMap<String, usize>>,
    rows: Vec<FragRow>,
}

impl FragmentSummary {
    /// Summarizes the fragment once, then fills every row from that one
    /// index: one exploration per method (the fragment is small, so this
    /// is simpler than SCC condensation and runs once per fragment
    /// digest) and one solve seeded at every method and lattice input.
    ///
    /// # Panics
    ///
    /// Panics if the fragment uses static fields or defines the listener
    /// callback — either would make the context-insensitive fold
    /// unsound, and no real fragment in the corpus does.
    pub(crate) fn build(sdk: &SdkLib) -> Self {
        let program = sdk.program();
        let summaries: Vec<ClassSummary> = program.classes.iter().map(summarize_class).collect();
        let index = MethodIndex::new(None, &summaries, None);
        assert!(
            index.callbacks.is_empty(),
            "the fragment defines {} — callback seeding would not be app-local",
            ir::LISTENER_CALLBACK,
        );
        assert!(
            index.slots.is_empty(),
            "the fragment touches static fields — the transfer fold would be unsound"
        );
        let mut solver = Solver::new(&index);
        for id in 0..index.len() {
            for &input in &LATTICE {
                solver.seed(id, input);
            }
        }
        solver.solve();
        // the table keeps the index's numbering
        let mut ids: HashMap<String, HashMap<String, usize>> = HashMap::new();
        for (&(class, method), &id) in &index.ids {
            ids.entry(class.to_owned()).or_default().insert(method.to_owned(), id);
        }
        let rows = (0..index.len())
            .map(|id| FragRow {
                reach: reach::explore(&index, [Target::Own(id)]),
                taint: LATTICE.map(|input| solver.outcome(id, input)),
            })
            .collect();
        Self {
            digest: sdk.digest(),
            class_count: program.classes.len(),
            ids,
            rows,
        }
    }

    /// Whether the fragment defines `class`.
    pub(crate) fn defines_class(&self, class: &str) -> bool {
        self.ids.contains_key(class)
    }

    /// The row for entering the fragment at `(class, method)`; `None`
    /// when the fragment does not define the method.
    pub(crate) fn row(&self, class: &str, method: &str) -> Option<&FragRow> {
        self.rows.get(*self.ids.get(class)?.get(method)?)
    }
}

/// Cache hit/miss tally for one analysis or one whole sweep, counted per
/// composed-program class (a fragment reuse scores one hit per fragment
/// class — that is what it saves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Class summaries served from the cache.
    pub hits: u64,
    /// Class summaries computed fresh.
    pub misses: u64,
}

impl CacheTally {
    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARDS: usize = 16;
/// Per-shard entry cap: 16 shards × 4,096 summaries bounds the cache to
/// ~65k classes however many million apps stream past it.
const DEFAULT_SHARD_CAPACITY: usize = 4096;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // a panicked holder cannot leave a summary map half-written: entries
    // are inserted whole, so recover the map rather than poison-cascade
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sharded, capacity-bounded map from class digest to summary, plus an
/// unbounded side map for whole-fragment summaries.
///
/// Eviction picks an arbitrary resident entry; because summaries are
/// content-addressed this only ever costs a recomputation, never
/// correctness. Fragment summaries are never evicted — they are the
/// high-leverage entries the hit rate lives on.
#[derive(Debug)]
pub struct SummaryCache {
    shards: [Mutex<HashMap<u64, Arc<ClassSummary>>>; SHARDS],
    fragments: Mutex<HashMap<u64, Arc<FragmentSummary>>>,
    shard_capacity: usize,
}

impl Default for SummaryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SummaryCache {
    /// A cache with the default capacity bound.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shard_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// A cache holding at most `capacity` class summaries per shard.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_shard_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity cache cannot make progress");
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            fragments: Mutex::new(HashMap::new()),
            shard_capacity: capacity,
        }
    }

    /// Class summaries currently resident (fragments not included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether no class summary is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The summary for `class`, from the cache when its digest is
    /// resident. Advances `market.reach.cache_{hits,misses}_total` and
    /// the caller's `tally` by one.
    pub fn class_summary(&self, class: &IrClass, tally: &mut CacheTally) -> Arc<ClassSummary> {
        let digest = ir::digest_class(class);
        let shard_idx = (digest % SHARDS as u64) as usize;
        let mut shard = lock(&self.shards[shard_idx]);
        if let Some(hit) = shard.get(&digest) {
            tally.hits += 1;
            crate::obs::REACH_CACHE_HITS.inc();
            return Arc::clone(hit);
        }
        tally.misses += 1;
        crate::obs::REACH_CACHE_MISSES.inc();
        let summary = Arc::new(summarize_class(class));
        if shard.len() >= self.shard_capacity {
            if let Some(victim) = shard.keys().next().copied() {
                shard.remove(&victim);
            }
        }
        shard.insert(digest, Arc::clone(&summary));
        summary
    }

    /// The transitive summary for a whole SDK fragment. A resident
    /// fragment counts `class_count` hits (that is how many class
    /// summaries the reuse saves); building it counts the same in
    /// misses. Fragment summaries are never evicted.
    pub fn fragment_summary(&self, sdk: &SdkLib, tally: &mut CacheTally) -> Arc<FragmentSummary> {
        let mut fragments = lock(&self.fragments);
        if let Some(hit) = fragments.get(&sdk.digest()) {
            tally.hits += hit.class_count as u64;
            crate::obs::REACH_CACHE_HITS.add(hit.class_count as u64);
            return Arc::clone(hit);
        }
        // build under the lock: concurrent first-users of a fragment then
        // tally deterministically (one build, the rest hit)
        let summary = Arc::new(FragmentSummary::build(sdk));
        tally.misses += summary.class_count as u64;
        crate::obs::REACH_CACHE_MISSES.add(summary.class_count as u64);
        fragments.insert(sdk.digest(), Arc::clone(&summary));
        summary
    }
}

/// Output of one cached per-app analysis.
#[derive(Debug, Clone)]
pub struct CachedAnalysis {
    /// The finding — bit-identical to [`crate::reach::analyze_entry`].
    pub finding: ReachFinding,
    /// The refining taint class — bit-identical to
    /// [`crate::taint::analyze_entry`].
    pub taint: TaintClass,
    /// Whether the own-code IR text round-trip failed.
    pub parse_failed: bool,
    /// Cache traffic this app generated.
    pub tally: CacheTally,
    /// App-level digest (own wired IR ⊕ fragment ⊕ manifest) — what
    /// incremental sweeps compare across snapshots.
    pub app_digest: u64,
}

fn digest_parts(own_wired: &ir::IrProgram, entry: &MarketApp) -> u64 {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&ir::digest_program(own_wired).to_le_bytes());
    let fragment = entry.sdk.as_ref().map_or(0, |sdk| sdk.digest());
    buf[8..16].copy_from_slice(&fragment.to_le_bytes());
    // the manifest is part of the analyzed surface (permission gate,
    // components), so it is part of the change-detection surface too
    let manifest = ir::fnv1a(backwatch_android::manifest_xml::render(entry.app.manifest()).as_bytes());
    buf[16..].copy_from_slice(&manifest.to_le_bytes());
    ir::fnv1a(&buf)
}

/// App-level content digest of one corpus entry: its own wired IR, its
/// linked fragment, and its manifest. Two entries with equal digests
/// analyze identically; incremental sweeps reuse prior findings on
/// digest equality.
#[must_use]
pub fn app_digest(entry: &MarketApp) -> u64 {
    digest_parts(&reach::lower_with_sdk(entry), entry)
}

/// Cached counterpart of [`crate::reach::analyze_entry`]: same serialized
/// own-code discipline (lower → render → parse) and the same engine, but
/// the summaries come from the cache and the fragment folds as one
/// precomputed summary. Returns the finding plus the app digest
/// incremental sweeps key on.
#[must_use]
pub fn analyze_entry_cached(entry: &MarketApp, cache: &SummaryCache) -> CachedAnalysis {
    crate::obs::register();
    let mut tally = CacheTally::default();
    let manifest = entry.app.manifest();
    let own_wired = reach::lower_with_sdk(entry);
    let app_digest = digest_parts(&own_wired, entry);
    let fragment = entry.sdk.as_ref().map(|sdk| cache.fragment_summary(sdk, &mut tally));
    let Ok(own) = ir::parse(&ir::render(&own_wired)) else {
        return CachedAnalysis {
            finding: reach::unparsed(manifest),
            taint: taint::record(TaintClass::NoAccess),
            parse_failed: true,
            tally,
            app_digest,
        };
    };
    let summaries: Vec<Arc<ClassSummary>> = own.classes.iter().map(|c| cache.class_summary(c, &mut tally)).collect();
    let (finding, taint) = classify_folded(manifest, &summaries, fragment.as_deref());
    CachedAnalysis {
        finding,
        taint,
        parse_failed: false,
        tally,
        app_digest,
    }
}

/// Classifies one app over its own class summaries with the linked
/// fragment folded: one index, reachability over it, then the taint
/// class refining it.
fn classify_folded(
    manifest: &Manifest,
    own: &[Arc<ClassSummary>],
    fragment: Option<&FragmentSummary>,
) -> (ReachFinding, TaintClass) {
    let index = MethodIndex::new(Some(manifest), own.iter().map(Arc::as_ref), fragment);
    let finding = reach::finding(manifest, reach::classify(manifest, &index));
    let taint = taint::classify(&index, finding.class);
    (finding, taint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig};
    use crate::reach::{analyze_entry, ReachClass};

    #[test]
    fn cached_analysis_matches_oracle_per_app() {
        let corpus = generate(&CorpusConfig::scaled(6).with_sdk_share(60));
        let cache = SummaryCache::new();
        for entry in &corpus {
            let oracle = analyze_entry(entry);
            let cached = analyze_entry_cached(entry, &cache);
            assert_eq!(cached.finding, oracle, "{}", oracle.package);
            assert!(!cached.parse_failed);
        }
    }

    #[test]
    fn second_pass_hits_for_every_own_class() {
        let corpus = generate(&CorpusConfig::scaled(3).with_sdk_share(100));
        let cache = SummaryCache::new();
        let mut cold = CacheTally::default();
        let mut warm = CacheTally::default();
        for entry in &corpus {
            cold.absorb(analyze_entry_cached(entry, &cache).tally);
        }
        for entry in &corpus {
            warm.absorb(analyze_entry_cached(entry, &cache).tally);
        }
        assert_eq!(warm.misses, 0, "everything is resident on the second pass");
        assert_eq!(warm.hits, cold.hits + cold.misses);
        assert!(cold.hits > 0, "fragment reuse hits within the first pass");
    }

    #[test]
    fn fragment_summary_folds_transitively_and_survives_cycles() {
        let sdk = crate::sdk::shared();
        let frag = FragmentSummary::build(&sdk);
        assert_eq!(frag.class_count, sdk.class_count());
        // the boot entry reaches deep fragment code but no sink
        let (class, method) = sdk.entry();
        let boot = &frag.row(class, method).expect("entry summarized").reach;
        assert!(!boot.sink);
        assert!(boot.providers.is_empty());
        // the cyclic queue pair terminates and stays sink-free
        let push = &frag.row("com/adnet/metrics/Queue", "push").expect("cycle summarized").reach;
        assert!(!push.sink);
        // the dead radar *is* a sink — just unreachable from boot
        let radar = &frag.row("com/adnet/radar/DeadRadar", "scan").expect("decoy summarized").reach;
        assert!(radar.sink);
        assert_eq!(radar.providers, BTreeSet::from([ProviderKind::Gps]));
        // and the sink-bearing variant propagates it to the entry
        let dirty = FragmentSummary::build(&crate::sdk::shared_with_sink());
        let boot = &dirty.row(class, method).expect("entry summarized").reach;
        assert!(boot.sink);
        assert_eq!(boot.providers, BTreeSet::from([ProviderKind::Gps]));
    }

    #[test]
    fn fragment_fold_matches_inline_composition_for_every_method_and_input() {
        use backwatch_android::app::{Component, ComponentKind, ManifestBuilder, ACTION_MAIN};
        use backwatch_android::ir::{IrMethod, IrProgram};
        use backwatch_android::permission::Permission;
        let mut b = ManifestBuilder::new("com.t.app");
        b.add_permission(Permission::AccessFineLocation);
        b.add_component(Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN));
        let manifest = b.build();
        let invoke = |class: &str, method: &str| IrInstr::Invoke {
            class: class.to_owned(),
            method: method.to_owned(),
        };
        let mut seen = std::collections::BTreeSet::new();
        for sdk in [crate::sdk::shared(), crate::sdk::shared_with_sink()] {
            let frag = FragmentSummary::build(&sdk);
            for class in &sdk.program().classes {
                for method in &class.methods {
                    for &input in &taint::LATTICE {
                        // the host latches `input` into its accumulator, hands
                        // it to the fragment method, latches the result and
                        // uploads it
                        let mut body = Vec::new();
                        if input != taint::T_NONE {
                            body.push(invoke(ir::LOCATION_MANAGER_CLASS, "getLastKnownLocation"));
                            body.push(IrInstr::MoveResult);
                        }
                        if input != taint::T_NONE && input != taint::T_RAW {
                            body.push(invoke(ir::SANITIZER_CLASS, &format!("truncate{}", input - 1)));
                            body.push(IrInstr::MoveResult);
                        }
                        body.push(invoke(&class.name, &method.name));
                        body.push(IrInstr::MoveResult);
                        body.push(invoke(ir::HTTP_URL_CONNECTION_CLASS, "getOutputStream"));
                        let host = IrProgram {
                            classes: vec![IrClass::new("com/t/app/MainActivity", vec![IrMethod::new("onCreate", body)])],
                        };
                        let own: Vec<Arc<ClassSummary>> = host.classes.iter().map(|c| Arc::new(summarize_class(c))).collect();
                        let folded = classify_folded(&manifest, &own, Some(&frag));
                        let mut inline = host;
                        inline.classes.extend(sdk.program().classes.iter().cloned());
                        let analysis = reach::analyze_program(&manifest, &inline);
                        let reach_class = analysis.class;
                        let composed = (
                            reach::finding(&manifest, analysis),
                            taint::analyze_program(&manifest, &inline, reach_class),
                        );
                        assert_eq!(folded, composed, "{}.{} at input {input}", class.name, method.name);
                        seen.insert((composed.0.class, composed.1));
                    }
                }
            }
        }
        // the sweep covers sink-reaching fragment methods, the geo
        // forwarder's raw and sanitized leaks, and clean returns
        for want in [
            (ReachClass::NonAccessor, TaintClass::NoAccess),
            (ReachClass::ForegroundOnly, TaintClass::AccessOnly),
            (ReachClass::ForegroundOnly, TaintClass::ExfiltratesSanitized(2)),
            (ReachClass::ForegroundOnly, TaintClass::ExfiltratesRaw),
        ] {
            assert!(seen.contains(&want), "no host classified {want:?}");
        }
    }

    #[test]
    fn eviction_is_correctness_neutral() {
        // a cache too small to hold anything still produces oracle output
        let corpus = generate(&CorpusConfig::scaled(4).with_sdk_share(40));
        let tiny = SummaryCache::with_shard_capacity(1);
        for entry in &corpus {
            let oracle = analyze_entry(entry);
            assert_eq!(analyze_entry_cached(entry, &tiny).finding, oracle, "{}", oracle.package);
        }
        assert!(tiny.len() <= SHARDS, "capacity bound holds");
    }

    #[test]
    fn app_digest_tracks_content_not_identity() {
        let cfg = CorpusConfig::scaled(4).with_sdk_share(50);
        let a = generate(&cfg);
        let b = generate(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(app_digest(x), app_digest(y));
        }
        // digests separate apps from each other
        let mut seen = std::collections::HashSet::new();
        for e in &a {
            seen.insert(app_digest(e));
        }
        assert!(seen.len() > a.len() / 2, "app digests are overwhelmingly distinct");
        // and changing only the linked fragment changes the digest
        let mut doctored = a.first().expect("non-empty corpus").clone();
        let before = app_digest(&doctored);
        doctored.sdk = Some(crate::sdk::shared_with_sink());
        assert_ne!(app_digest(&doctored), before);
    }
}
