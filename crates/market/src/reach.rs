//! Interprocedural location-reachability analysis — the static half of
//! the pipeline, upgraded from manifest triage to sink analysis.
//!
//! The paper stops its static stage at permission claims and relies on
//! the device runs for everything past 1,137/2,800. This module closes
//! that gap the way follow-up work does: lower each app to the smali-like
//! IR, discover entry points from its manifest components, and run a
//! worklist reachability pass to the location-API sinks. An app is then
//! classified by *which kind of entry point* reaches a sink:
//!
//! - no location permission, or no sink reachable → **non-accessor**
//! - reachable only from activity entries → **foreground-only**
//! - reachable from a service entry → **background-capable**
//! - reachable from a `BOOT_COMPLETED` receiver (with the matching
//!   permission) → **auto-start**
//!
//! Provider sets are inferred from string constants in reachable methods
//! that invoke `LocationManager` sinks, plus the fused client's own sink
//! signatures, which lets the analysis rebuild Table I without running a
//! single app. Soundness caveats (reflection, ICC) are in DESIGN.md §10.
//!
//! This module holds the only reachability engine: a worklist BFS
//! (`explore`) over a `summary::MethodIndex`, whose call sites and entry
//! points are resolved once per composed program, and one `classify`
//! step that gates and infers providers. The uncached oracle
//! ([`analyze_entry`], [`analyze`]) indexes freshly summarized classes;
//! the cached sweep ([`crate::summary::analyze_entry_cached`]) indexes
//! cache-resident summaries plus a folded SDK fragment. Every
//! `market.reach.*` classification counter has one bump site here.
//!
//! Like the other two measurement channels (manifest XML, dumpsys text),
//! the analysis consumes the *serialized* IR: each lowered program is
//! rendered to text and parsed back before being analyzed, and programs
//! that fail to parse are counted and classified as non-accessors rather
//! than aborting the sweep.

use crate::corpus::{MarketApp, ProviderCombo};
use crate::sdk::SdkLib;
use crate::stats::ProviderTable;
use crate::summary::{summarize_class, ClassSummary, FragReach, MethodIndex, Target};
use backwatch_android::app::{App, ComponentKind, Manifest};
use backwatch_android::ir::{self, IrInstr, IrProgram};
use backwatch_android::permission::LocationClaim;
use backwatch_android::provider::ProviderKind;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The four classes the static analyzer assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReachClass {
    /// Cannot access location: no permission, or no reachable sink.
    NonAccessor,
    /// Sinks reachable only from activity entry points.
    ForegroundOnly,
    /// Sinks reachable from a service entry point.
    BackgroundCapable,
    /// Sinks reachable from a boot receiver — background at boot, no user
    /// action needed (the paper's 85 apps).
    AutoStart,
}

/// All classes, in funnel order.
pub const ALL_CLASSES: [ReachClass; 4] = [
    ReachClass::NonAccessor,
    ReachClass::ForegroundOnly,
    ReachClass::BackgroundCapable,
    ReachClass::AutoStart,
];

impl ReachClass {
    /// Short stable label for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ReachClass::NonAccessor => "non-accessor",
            ReachClass::ForegroundOnly => "foreground-only",
            ReachClass::BackgroundCapable => "background-capable",
            ReachClass::AutoStart => "auto-start",
        }
    }

    /// Whether the class implies background access (the paper's 102).
    #[must_use]
    pub fn accesses_in_background(&self) -> bool {
        matches!(self, ReachClass::BackgroundCapable | ReachClass::AutoStart)
    }
}

impl std::fmt::Display for ReachClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of analyzing one program against one manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramAnalysis {
    /// The assigned class.
    pub class: ReachClass,
    /// Providers inferred from reachable sink call sites.
    pub providers: BTreeSet<ProviderKind>,
    /// Declared components whose class is absent from the program.
    pub missing_components: usize,
}

/// Per-app finding of the corpus sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachFinding {
    /// Package name.
    pub package: String,
    /// The assigned class.
    pub class: ReachClass,
    /// Declared permission posture (from the manifest).
    pub claim: LocationClaim,
    /// Inferred provider set.
    pub providers: BTreeSet<ProviderKind>,
    /// The Table I combination, when the provider set matches one.
    pub combo: Option<ProviderCombo>,
}

/// Aggregated output of the static sweep: the paper's §III funnel,
/// computed without running any app.
#[derive(Debug, Clone)]
pub struct ReachReport {
    /// Per-app findings, in corpus order.
    pub findings: Vec<ReachFinding>,
    /// Total apps analyzed.
    pub total: usize,
    /// Apps declaring a location permission (paper: 1,137).
    pub declaring: usize,
    /// Apps with a reachable sink (paper's 528 functional apps).
    pub functional: usize,
    /// Apps classified background-capable or auto-start (paper: 102).
    pub background: usize,
    /// Apps classified auto-start (paper: 85).
    pub auto_start: usize,
    /// Table I rebuilt statically over the background apps.
    pub table1: ProviderTable,
    /// Lowered programs that failed the text round-trip (counted, not
    /// fatal; also in `market.reach.parse_failures_total`).
    pub parse_failures: usize,
}

impl ReachReport {
    /// Aggregates per-app findings (in corpus order) into the funnel and
    /// Table I — the one aggregation the oracle sweep and the cached
    /// sweep's [`crate::sweep::SweepResult::report`] share.
    #[must_use]
    pub(crate) fn from_findings(findings: Vec<ReachFinding>, parse_failures: usize) -> Self {
        let mut cells: BTreeMap<(LocationClaim, ProviderCombo), usize> = BTreeMap::new();
        let mut unclassified = 0usize;
        for f in findings.iter().filter(|f| f.class.accesses_in_background()) {
            match f.combo {
                Some(combo) => *cells.entry((f.claim, combo)).or_insert(0) += 1,
                None => unclassified += 1,
            }
        }
        Self {
            total: findings.len(),
            declaring: findings.iter().filter(|f| f.claim.declares_location()).count(),
            functional: findings.iter().filter(|f| f.class != ReachClass::NonAccessor).count(),
            background: findings.iter().filter(|f| f.class.accesses_in_background()).count(),
            auto_start: findings.iter().filter(|f| f.class == ReachClass::AutoStart).count(),
            table1: ProviderTable::from_cells(cells, unclassified),
            parse_failures,
            findings,
        }
    }

    /// Count of apps assigned `class`.
    #[must_use]
    pub fn class_count(&self, class: ReachClass) -> usize {
        self.findings.iter().filter(|f| f.class == class).count()
    }
}

/// Worklist BFS over the index from `entries` with a visited set (so
/// call cycles terminate): own methods enter the queue, fragment methods
/// fold their precomputed transitive facts, framework edges (the sinks
/// included) stop. Does any reached method invoke a sink, and which
/// providers do the reached sink call sites evidence — provider-named
/// string constants beside a `LocationManager` sink, plus the fused
/// provider for a fused-client sink.
pub(crate) fn explore<'a>(index: &MethodIndex<'a>, entries: impl IntoIterator<Item = Target<'a>>) -> FragReach {
    let mut found = FragReach::default();
    let mut visited = vec![false; index.len()];
    let mut queue: VecDeque<Target<'a>> = entries.into_iter().collect();
    while let Some(target) = queue.pop_front() {
        match target {
            Target::Own(id) => {
                match visited.get_mut(id) {
                    Some(seen) if !*seen => *seen = true,
                    _ => continue,
                }
                let Some((ms, sites, _)) = index.method(id) else { continue };
                if ms.manager_sink {
                    found.sink = true;
                    found.providers.extend(ms.const_providers.iter().copied());
                }
                if ms.fused_sink {
                    found.sink = true;
                    found.providers.insert(ProviderKind::Fused);
                }
                queue.extend(sites);
            }
            Target::Fragment(row) => {
                found.sink |= row.reach.sink;
                found.providers.extend(row.reach.providers.iter().copied());
            }
            Target::Framework => {}
        }
    }
    found
}

/// Classifies one app over its index: explores the entry buckets the
/// index resolved from the manifest, applies the permission gate and the
/// class precedence, and infers providers. The only place
/// `market.reach.{apps_classified,background_apps,missing_components}_total`
/// advance, so the oracle and the cached sweep move them identically by
/// construction.
pub(crate) fn classify(manifest: &Manifest, index: &MethodIndex<'_>) -> ProgramAnalysis {
    crate::obs::REACH_MISSING_COMPONENTS.add(index.missing as u64);
    let [activity, service, boot] = &index.roots;
    let class = if !manifest.location_claim().declares_location() {
        // the permission gate: reachable or not, registration would throw
        ReachClass::NonAccessor
    } else if explore(index, boot.iter().copied()).sink {
        ReachClass::AutoStart
    } else if explore(index, service.iter().copied()).sink {
        ReachClass::BackgroundCapable
    } else if explore(index, activity.iter().copied()).sink {
        ReachClass::ForegroundOnly
    } else {
        ReachClass::NonAccessor
    };

    let providers = if class == ReachClass::NonAccessor {
        BTreeSet::new()
    } else {
        explore(index, index.roots.iter().flatten().copied()).providers
    };
    crate::obs::REACH_APPS_CLASSIFIED.inc();
    if class.accesses_in_background() {
        crate::obs::REACH_BACKGROUND_APPS.inc();
    }
    ProgramAnalysis {
        class,
        providers,
        missing_components: index.missing,
    }
}

/// Turns an analysis into the app's finding, deriving the Table I
/// combination — the only place `market.reach.unknown_combo_total`
/// advances.
pub(crate) fn finding(manifest: &Manifest, analysis: ProgramAnalysis) -> ReachFinding {
    let provider_vec: Vec<ProviderKind> = analysis.providers.iter().copied().collect();
    let combo = ProviderCombo::from_providers(&provider_vec);
    if analysis.class != ReachClass::NonAccessor && combo.is_none() {
        crate::obs::REACH_UNKNOWN_COMBO.inc();
    }
    ReachFinding {
        package: manifest.package().to_owned(),
        class: analysis.class,
        claim: manifest.location_claim(),
        providers: analysis.providers,
        combo,
    }
}

/// The finding for an app whose IR failed the text round-trip: a
/// non-accessor, like a decompilation failure. The only place
/// `market.reach.parse_failures_total` advances.
pub(crate) fn unparsed(manifest: &Manifest) -> ReachFinding {
    crate::obs::REACH_PARSE_FAILURES.inc();
    finding(
        manifest,
        ProgramAnalysis {
            class: ReachClass::NonAccessor,
            providers: BTreeSet::new(),
            missing_components: 0,
        },
    )
}

/// Analyzes one program against its manifest: summarize every class (no
/// cache), index with no fragment fold, then `classify`.
#[must_use]
pub fn analyze_program(manifest: &Manifest, program: &IrProgram) -> ProgramAnalysis {
    crate::obs::register();
    let summaries: Vec<ClassSummary> = program.classes.iter().map(summarize_class).collect();
    classify(manifest, &MethodIndex::new(Some(manifest), &summaries, None))
}

/// Lowers a corpus entry's own code and, when it links the shared SDK,
/// wires the fragment's boot call into every launcher activity's
/// `onCreate` — the build-system step that makes library code reachable
/// from app startup. The fragment's *classes* are not appended here; see
/// [`analyze_entry`] for the composed program.
pub(crate) fn lower_with_sdk(entry: &MarketApp) -> IrProgram {
    let mut program = ir::lower(&entry.app);
    if let Some(sdk) = &entry.sdk {
        wire_sdk(&mut program, entry.app.manifest(), sdk);
    }
    program
}

fn wire_sdk(program: &mut IrProgram, manifest: &Manifest, sdk: &SdkLib) {
    let (sdk_class, sdk_method) = sdk.entry();
    for component in manifest.components() {
        if component.kind != ComponentKind::Activity {
            continue;
        }
        let class_path = component.class_path(manifest.package());
        if let Some(class) = program.classes.iter_mut().find(|c| c.name == class_path) {
            if let Some(method) = class.methods.iter_mut().find(|m| m.name == "onCreate") {
                method.instrs.push(IrInstr::Invoke {
                    class: sdk_class.to_owned(),
                    method: sdk_method.to_owned(),
                });
            }
        }
    }
}

/// Analyzes one corpus entry end to end, *including* its linked SDK
/// fragment: the composed program (own classes with the SDK boot call
/// wired in, plus the fragment's classes) goes through the same text
/// round-trip and classification as [`analyze_app`]. Entries without an
/// SDK behave exactly like [`analyze_app`].
#[must_use]
pub fn analyze_entry(entry: &MarketApp) -> ReachFinding {
    analyze_entry_with(entry, |_, _| ()).0
}

/// [`analyze_entry`], then `then` over the composed program's index and
/// its finding; `None` in place of `then`'s result when the IR text
/// round-trip failed. The fragment's classes are composed inline rather
/// than folded as a [`FragmentSummary`], so the cached sweep's fold is
/// checked against an independent composition.
///
/// [`FragmentSummary`]: crate::summary::FragmentSummary
pub(crate) fn analyze_entry_with<T>(
    entry: &MarketApp,
    then: impl FnOnce(&MethodIndex<'_>, &ReachFinding) -> T,
) -> (ReachFinding, Option<T>) {
    crate::obs::register();
    let mut program = lower_with_sdk(entry);
    if let Some(sdk) = &entry.sdk {
        program.classes.extend(sdk.program().classes.iter().cloned());
    }
    finish_app_analysis(entry.app.manifest(), &ir::render(&program), then)
}

/// Analyzes one app end to end: lower to IR, round-trip through the text
/// format, analyze. A program that fails the round-trip is counted and
/// classified as a non-accessor (the sweep equivalent of a decompilation
/// failure).
#[must_use]
pub fn analyze_app(app: &App) -> ReachFinding {
    crate::obs::register();
    finish_app_analysis(app.manifest(), &ir::render(&ir::lower(app)), |_, _| ()).0
}

/// The shared tail of [`analyze_app`] and [`analyze_entry_with`]: parse
/// the rendered IR text, summarize and index it without a cache, classify
/// it against the manifest, and hand the index to `then` (the taint
/// oracle reads the same index rather than lowering the program again).
fn finish_app_analysis<T>(
    manifest: &Manifest,
    text: &str,
    then: impl FnOnce(&MethodIndex<'_>, &ReachFinding) -> T,
) -> (ReachFinding, Option<T>) {
    match ir::parse(text) {
        Ok(program) => {
            let summaries: Vec<ClassSummary> = program.classes.iter().map(summarize_class).collect();
            let index = MethodIndex::new(Some(manifest), &summaries, None);
            let finding = finding(manifest, classify(manifest, &index));
            let after = then(&index, &finding);
            (finding, Some(after))
        }
        Err(_) => (unparsed(manifest), None),
    }
}

/// Sweeps the whole corpus and aggregates the static funnel + Table I.
#[must_use]
pub fn analyze(corpus: &[MarketApp]) -> ReachReport {
    crate::obs::register();
    let mut parse_failures = 0usize;
    let findings: Vec<ReachFinding> = corpus
        .iter()
        .map(|e| {
            let (f, parsed) = analyze_entry_with(e, |_, _| ());
            parse_failures += usize::from(parsed.is_none());
            f
        })
        .collect();
    ReachReport::from_findings(findings, parse_failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig, Quotas};
    use backwatch_android::app::{AppBuilder, Component, LocationBehavior, ACTION_BOOT_COMPLETED, ACTION_MAIN};
    use backwatch_android::ir::{IrClass, IrMethod};
    use backwatch_android::permission::Permission;

    fn manifest_with(components: Vec<Component>, perms: &[Permission]) -> Manifest {
        let mut b = backwatch_android::app::ManifestBuilder::new("com.t.app");
        for p in perms {
            b.add_permission(*p);
        }
        for c in components {
            b.add_component(c);
        }
        b.build()
    }

    fn activity_main() -> Component {
        Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN)
    }

    #[test]
    fn unreachable_sink_is_non_accessor() {
        let manifest = manifest_with(vec![activity_main()], &[Permission::AccessFineLocation]);
        let program = IrProgram {
            classes: vec![
                IrClass::new("com/t/app/MainActivity", vec![IrMethod::new("onCreate", vec![])]),
                IrClass::new(
                    "com/t/app/Dead",
                    vec![IrMethod::new(
                        "helper",
                        vec![IrInstr::Invoke {
                            class: ir::LOCATION_MANAGER_CLASS.to_owned(),
                            method: "requestLocationUpdates".to_owned(),
                        }],
                    )],
                ),
            ],
        };
        let a = analyze_program(&manifest, &program);
        assert_eq!(a.class, ReachClass::NonAccessor);
        assert!(a.providers.is_empty());
    }

    #[test]
    fn permission_gate_blocks_reachable_sink() {
        let manifest = manifest_with(vec![activity_main()], &[Permission::Internet]);
        let program = IrProgram {
            classes: vec![IrClass::new(
                "com/t/app/MainActivity",
                vec![IrMethod::new(
                    "onCreate",
                    vec![IrInstr::Invoke {
                        class: ir::LOCATION_MANAGER_CLASS.to_owned(),
                        method: "getLastKnownLocation".to_owned(),
                    }],
                )],
            )],
        };
        assert_eq!(analyze_program(&manifest, &program).class, ReachClass::NonAccessor);
    }

    #[test]
    fn sink_named_app_method_is_not_a_sink() {
        let manifest = manifest_with(vec![activity_main()], &[Permission::AccessFineLocation]);
        let program = IrProgram {
            classes: vec![IrClass::new(
                "com/t/app/MainActivity",
                vec![
                    IrMethod::new(
                        "onCreate",
                        vec![IrInstr::Invoke {
                            class: "com/t/app/MainActivity".to_owned(),
                            method: "requestLocationUpdates".to_owned(),
                        }],
                    ),
                    IrMethod::new("requestLocationUpdates", vec![IrInstr::ConstString("gps".to_owned())]),
                ],
            )],
        };
        assert_eq!(analyze_program(&manifest, &program).class, ReachClass::NonAccessor);
    }

    #[test]
    fn missing_component_class_is_counted_and_skipped() {
        let manifest = manifest_with(
            vec![activity_main(), Component::new(ComponentKind::Service, ".GhostService")],
            &[Permission::AccessFineLocation],
        );
        let program = IrProgram {
            classes: vec![IrClass::new(
                "com/t/app/MainActivity",
                vec![IrMethod::new("onCreate", vec![])],
            )],
        };
        let a = analyze_program(&manifest, &program);
        assert_eq!(a.missing_components, 1);
        assert_eq!(a.class, ReachClass::NonAccessor);
    }

    #[test]
    fn worklist_survives_call_cycles() {
        let manifest = manifest_with(vec![activity_main()], &[Permission::AccessFineLocation]);
        let program = IrProgram {
            classes: vec![IrClass::new(
                "com/t/app/MainActivity",
                vec![
                    IrMethod::new(
                        "onCreate",
                        vec![IrInstr::Invoke {
                            class: "com/t/app/MainActivity".to_owned(),
                            method: "ping".to_owned(),
                        }],
                    ),
                    IrMethod::new(
                        "ping",
                        vec![IrInstr::Invoke {
                            class: "com/t/app/MainActivity".to_owned(),
                            method: "pong".to_owned(),
                        }],
                    ),
                    IrMethod::new(
                        "pong",
                        vec![
                            IrInstr::Invoke {
                                class: "com/t/app/MainActivity".to_owned(),
                                method: "ping".to_owned(),
                            },
                            IrInstr::ConstString("network".to_owned()),
                            IrInstr::Invoke {
                                class: ir::LOCATION_MANAGER_CLASS.to_owned(),
                                method: "requestLocationUpdates".to_owned(),
                            },
                        ],
                    ),
                ],
            )],
        };
        let a = analyze_program(&manifest, &program);
        assert_eq!(a.class, ReachClass::ForegroundOnly);
        assert_eq!(a.providers, BTreeSet::from([ProviderKind::Network]));
    }

    fn app_with(behavior: LocationBehavior, claim: LocationClaim, service: bool, boot: bool) -> App {
        let mut b = AppBuilder::new("com.t.app").location_claim(claim).component(activity_main());
        b = b.location_service(service);
        if boot {
            b = b
                .component(Component::new(ComponentKind::Receiver, ".BootReceiver").with_action(ACTION_BOOT_COMPLETED))
                .permission(Permission::ReceiveBootCompleted);
        }
        b.behavior(behavior).build()
    }

    #[test]
    fn lowered_apps_classify_by_behavior() {
        use ProviderKind::{Gps, Network};
        let fine = LocationClaim::FineAndCoarse;
        let cases = [
            (
                app_with(LocationBehavior::inert(), fine, false, false),
                ReachClass::NonAccessor,
            ),
            (
                app_with(LocationBehavior::requester([Gps], 5), fine, false, false),
                ReachClass::ForegroundOnly,
            ),
            (
                app_with(
                    LocationBehavior::requester([Gps, Network], 5).background_interval(60),
                    fine,
                    true,
                    false,
                ),
                ReachClass::BackgroundCapable,
            ),
            (
                app_with(
                    LocationBehavior::requester([Network], 5)
                        .auto_start(true)
                        .background_interval(60),
                    fine,
                    true,
                    true,
                ),
                ReachClass::AutoStart,
            ),
        ];
        for (app, expected) in cases {
            let f = analyze_app(&app);
            assert_eq!(f.class, expected, "behavior {:?}", app.behavior());
        }
    }

    #[test]
    fn sdk_fragment_never_changes_classification() {
        // the standard fragment is sink-free on reachable paths: linking
        // it (at 100 % share) must leave every classification and
        // provider set exactly where the bare analysis puts it
        let corpus = generate(&CorpusConfig::scaled(5).with_sdk_share(100));
        for entry in &corpus {
            assert!(entry.sdk.is_some());
            let bare = analyze_app(&entry.app);
            let composed = analyze_entry(entry);
            assert_eq!(bare.class, composed.class, "{}", bare.package);
            assert_eq!(bare.providers, composed.providers, "{}", bare.package);
        }
    }

    #[test]
    fn sink_bearing_fragment_is_seen_by_the_analysis() {
        let corpus = generate(&CorpusConfig::scaled(5));
        // a declaring-but-inert app with the sink-bearing test SDK wired
        // into its activity must become foreground-only via fragment code
        let inert = corpus
            .iter()
            .find(|e| e.truth.claim.declares_location() && !e.truth.functional)
            .unwrap();
        let mut doctored = inert.clone();
        doctored.sdk = Some(crate::sdk::shared_with_sink());
        let f = analyze_entry(&doctored);
        assert_eq!(f.class, ReachClass::ForegroundOnly, "{}", f.package);
        assert_eq!(f.providers, BTreeSet::from([ProviderKind::Gps]));
        // while the permission gate still holds for non-declaring hosts
        let none = corpus.iter().find(|e| !e.truth.claim.declares_location()).unwrap();
        let mut gated = none.clone();
        gated.sdk = Some(crate::sdk::shared_with_sink());
        assert_eq!(analyze_entry(&gated).class, ReachClass::NonAccessor);
    }

    #[test]
    fn corpus_sweep_matches_planted_quotas() {
        let cfg = CorpusConfig::scaled(8);
        let corpus = generate(&cfg);
        let q = Quotas::scaled(cfg.total());
        let r = analyze(&corpus);
        assert_eq!(r.total, q.total);
        assert_eq!(r.declaring, q.declaring);
        assert_eq!(r.functional, q.functional);
        assert_eq!(r.background, q.background);
        assert_eq!(r.auto_start, q.bg_auto_start);
        assert_eq!(r.parse_failures, 0);
        assert_eq!(r.table1.unclassified, 0);
        assert_eq!(r.table1.total(), q.background);
    }

    #[test]
    fn static_table1_matches_planted_cells() {
        let cfg = CorpusConfig::scaled(8);
        let corpus = generate(&cfg);
        let q = Quotas::scaled(cfg.total());
        let r = analyze(&corpus);
        for (claim, combo, count) in &q.table1 {
            assert_eq!(r.table1.cell(*claim, *combo), *count, "cell {claim:?}/{combo}");
        }
    }

    #[test]
    fn findings_agree_with_ground_truth_per_app() {
        let corpus = generate(&CorpusConfig::scaled(6));
        let r = analyze(&corpus);
        for (entry, f) in corpus.iter().zip(&r.findings) {
            let expected = match (
                entry.truth.functional,
                entry.truth.bg_interval_s.is_some(),
                entry.truth.auto_start,
            ) {
                (false, _, _) => ReachClass::NonAccessor,
                (true, false, _) => ReachClass::ForegroundOnly,
                (true, true, false) => ReachClass::BackgroundCapable,
                (true, true, true) => ReachClass::AutoStart,
            };
            assert_eq!(f.class, expected, "{}", f.package);
            if entry.truth.functional {
                assert_eq!(f.combo, entry.truth.combo, "{}", f.package);
            }
        }
    }
}
