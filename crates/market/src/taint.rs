//! Interprocedural, summary-based taint analysis: from "reaches a
//! location API" to "exfiltrates location, and at what precision".
//!
//! Reachability (PR 5) answers *whether* an app can call into the
//! location stack; it cannot tell an app that reads GPS and drops the
//! fix on the floor from one that POSTs raw coordinates to an ad
//! server. This pass closes that gap FlowDroid-style: location taint is
//! born at the source signatures in [`ir::SOURCES`], flows through the
//! dataflow instructions (`move-result`, `return-value`, `sput`/`sget`),
//! is *degraded* — never killed — by the sanitizer signatures in
//! [`ir::SANITIZERS`], and counts as exfiltrated when it reaches a
//! network sink from [`ir::NET_SINKS`].
//!
//! The taint value lattice is a chain over `u8`:
//!
//! ```text
//!   0 (untainted)  <  1+d (sanitized to d decimals, d = 0..=4)  <  255 (raw)
//! ```
//!
//! Join is `max` (any path carrying sharper data dominates) and a
//! sanitizer of degree `d` caps a value at `1 + d` (`min`) — truncating
//! already-coarser data cannot sharpen it. The engine runs a chaotic
//! iteration over `(method, input-taint)` contexts plus a global static-
//! field map; every transfer function is monotone on the finite chain,
//! so the iteration converges to the unique least fixpoint regardless of
//! evaluation order — which is what makes the cached sweep bit-identical
//! to this oracle.
//!
//! Apps land in a four-point classification refining — never
//! contradicting — [`ReachClass`]: a reachability non-accessor is a
//! taint [`TaintClass::NoAccess`] by construction (the permission gate
//! taints nothing), and any exfiltration verdict implies a reachable
//! source. Soundness caveats (reflection, ICC, native code) are shared
//! with the reachability pass and discussed in DESIGN.md §15.
//!
//! [`ir::SOURCES`]: backwatch_android::ir::SOURCES
//! [`ir::SANITIZERS`]: backwatch_android::ir::SANITIZERS
//! [`ir::NET_SINKS`]: backwatch_android::ir::NET_SINKS

use crate::corpus::MarketApp;
use crate::reach::{ReachClass, ReachFinding};
use crate::summary::{summarize_class, ClassSummary, MethodIndex, Target};
use backwatch_android::app::Manifest;
use backwatch_android::ir::IrProgram;
use std::collections::{BTreeSet, HashMap};

/// Untainted.
pub const T_NONE: u8 = 0;
/// Raw (full-precision) location taint.
pub const T_RAW: u8 = 255;

/// Every value the taint chain can take: untainted, sanitized to
/// `d = 0..=4` decimals (encoded `1 + d`), raw. All transfer functions
/// map lattice values to lattice values, so a fragment table row (one
/// outcome per input, see [`crate::summary::FragmentSummary`]) is total
/// over exactly these inputs.
pub const LATTICE: [u8; 7] = [T_NONE, 1, 2, 3, 4, 5, T_RAW];

/// Encodes a sanitizer degree as a lattice value.
#[must_use]
fn sanitized(d: u8) -> u8 {
    1u8.saturating_add(d)
}

/// The four-point per-app taint classification, in severity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TaintClass {
    /// Reachability non-accessor: the permission gate (or absence of any
    /// reachable sink) means no location data ever enters the app.
    NoAccess,
    /// Location data is read but never reaches a network sink.
    AccessOnly,
    /// Location reaches a network sink, but every path through a network
    /// sink passed a sanitizer; `d` is the sharpest (largest) surviving
    /// decimal precision.
    ExfiltratesSanitized(u8),
    /// Raw, full-precision location reaches a network sink.
    ExfiltratesRaw,
}

impl TaintClass {
    /// Short stable label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TaintClass::NoAccess => "no-access".to_owned(),
            TaintClass::AccessOnly => "access-only".to_owned(),
            TaintClass::ExfiltratesSanitized(d) => format!("exfiltrates-sanitized({d})"),
            TaintClass::ExfiltratesRaw => "exfiltrates-raw".to_owned(),
        }
    }

    /// Whether the class implies location leaves the device.
    #[must_use]
    pub fn exfiltrates(&self) -> bool {
        matches!(self, TaintClass::ExfiltratesSanitized(_) | TaintClass::ExfiltratesRaw)
    }

    /// The static sanitizer degree, when every exfiltrated path was
    /// sanitized.
    #[must_use]
    pub fn sanitized_degree(&self) -> Option<u8> {
        match self {
            TaintClass::ExfiltratesSanitized(d) => Some(*d),
            _ => None,
        }
    }

    /// The refinement contract against the reachability class: taint
    /// strictly narrows reachability, so any class other than
    /// [`TaintClass::NoAccess`] requires the app to be a reachability
    /// accessor.
    #[must_use]
    pub fn refines(&self, reach: ReachClass) -> bool {
        *self == TaintClass::NoAccess || reach != ReachClass::NonAccessor
    }

    fn from_leak(leak: u8) -> Self {
        match leak {
            T_NONE => TaintClass::AccessOnly,
            T_RAW => TaintClass::ExfiltratesRaw,
            s => TaintClass::ExfiltratesSanitized(s.saturating_sub(1)),
        }
    }
}

impl std::fmt::Display for TaintClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Records one classification in the `market.taint.*` counters — the
/// single bump site shared by the oracle and the cached sweep, so the
/// two paths move telemetry identically by construction.
pub(crate) fn record(class: TaintClass) -> TaintClass {
    crate::obs::TAINT_APPS_CLASSIFIED.inc();
    match class {
        TaintClass::NoAccess => crate::obs::TAINT_NO_ACCESS.inc(),
        TaintClass::AccessOnly => crate::obs::TAINT_ACCESS_ONLY.inc(),
        TaintClass::ExfiltratesSanitized(_) => {
            crate::obs::TAINT_HITS.inc();
            crate::obs::TAINT_EXFIL_SANITIZED.inc();
        }
        TaintClass::ExfiltratesRaw => {
            crate::obs::TAINT_HITS.inc();
            crate::obs::TAINT_EXFIL_RAW.inc();
        }
    }
    class
}

/// One taint-relevant operation, pre-classified from an [`IrInstr`] when
/// the method is summarized, so the oracle and the cached sweep run the
/// *same* engine on the same input. Framework signatures are classified
/// at the call site: a program class reusing a framework name never
/// shadows a source, sanitizer or sink, exactly as [`ir::is_sink`] does
/// for reachability.
///
/// [`IrInstr`]: backwatch_android::ir::IrInstr
/// [`ir::is_sink`]: backwatch_android::ir::is_sink
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintOp {
    /// `const-string`: the accumulator now holds a constant — taint
    /// killed by overwrite.
    Kill,
    /// A location source: the pending result is raw taint.
    Source,
    /// A sanitizer of degree `d`: the pending result is the argument
    /// capped at `1 + d`.
    Sanitize(u8),
    /// A network sink: the argument's taint leaks off-device.
    NetLeak,
    /// A listener-registration sink (`requestLocationUpdates`): arms the
    /// `onLocationChanged` callback entries.
    Registers,
    /// A call to the method summary's `callees[i]`, which may be
    /// program-defined (own or fragment); framework targets return a
    /// clean value.
    Call(u32),
    /// `move-result`: latch the pending result into the accumulator.
    MoveResult,
    /// `return-value`: the accumulator flows to the caller.
    ReturnValue,
    /// `sput` to the method summary's `fields[i]`: the accumulator joins
    /// into the static field.
    Sput(u32),
    /// `sget` of `fields[i]`: the accumulator becomes the static field's
    /// taint.
    Sget(u32),
}

/// What analyzing one `(method, input-taint)` context yields: the taint
/// of its return value, the sharpest taint it leaks through a network
/// sink (transitively), and whether it registers a location listener.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaintOutcome {
    /// Taint of the returned value.
    pub ret: u8,
    /// Sharpest taint reaching a network sink from this context.
    pub leak: u8,
    /// Whether a listener-registration sink is invoked.
    pub registers: bool,
}

impl TaintOutcome {
    fn join(self, other: Self) -> Self {
        Self {
            ret: self.ret.max(other.ret),
            leak: self.leak.max(other.leak),
            registers: self.registers || other.registers,
        }
    }
}

/// Chaotic-iteration fixpoint engine over `(method, input)` contexts
/// plus a program-wide static-field taint table. All updates are joins on
/// a finite chain, so the iteration terminates at the unique least
/// fixpoint whatever the evaluation order.
pub(crate) struct Solver<'a> {
    index: &'a MethodIndex<'a>,
    memo: HashMap<(usize, u8), TaintOutcome>,
    fields: Vec<u8>,
    contexts: BTreeSet<(usize, u8)>,
}

impl<'a> Solver<'a> {
    pub(crate) fn new(index: &'a MethodIndex<'a>) -> Self {
        Self {
            index,
            memo: HashMap::new(),
            fields: vec![T_NONE; index.slots.len()],
            contexts: BTreeSet::new(),
        }
    }

    pub(crate) fn seed(&mut self, id: usize, input: u8) {
        self.contexts.insert((id, input));
    }

    pub(crate) fn outcome(&self, id: usize, input: u8) -> TaintOutcome {
        self.memo.get(&(id, input)).copied().unwrap_or_default()
    }

    pub(crate) fn solve(&mut self) {
        loop {
            let mut changed = false;
            let snapshot: Vec<(usize, u8)> = self.contexts.iter().copied().collect();
            for (id, input) in snapshot {
                let mut discovered = Vec::new();
                let out = eval(
                    self.index,
                    id,
                    input,
                    &self.memo,
                    &mut self.fields,
                    &mut discovered,
                    &mut changed,
                );
                let entry = self.memo.entry((id, input)).or_default();
                let joined = entry.join(out);
                if joined != *entry {
                    *entry = joined;
                    changed = true;
                }
                for ctx in discovered {
                    changed |= self.contexts.insert(ctx);
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// One abstract execution of a method body under the accumulator model:
/// `acc` is the single data register (the input taint at entry), `preg`
/// the pending invoke result. Reads the current memo/field state; any
/// raise it causes (field joins, new call contexts) is reported back so
/// the driving loop knows the state moved.
fn eval(
    index: &MethodIndex<'_>,
    id: usize,
    input: u8,
    memo: &HashMap<(usize, u8), TaintOutcome>,
    fields: &mut [u8],
    discovered: &mut Vec<(usize, u8)>,
    changed: &mut bool,
) -> TaintOutcome {
    let Some((ms, sites, slots)) = index.method(id) else {
        return TaintOutcome::default();
    };
    let mut acc = input;
    let mut preg = T_NONE;
    let mut out = TaintOutcome::default();
    for op in &ms.taint_ops {
        match *op {
            TaintOp::Kill => acc = T_NONE,
            TaintOp::Source => preg = T_RAW,
            TaintOp::Sanitize(d) => preg = acc.min(sanitized(d)),
            TaintOp::NetLeak => {
                out.leak = out.leak.max(acc);
                preg = T_NONE;
            }
            TaintOp::Registers => {
                out.registers = true;
                preg = T_NONE;
            }
            TaintOp::Call(site) => {
                let o = match sites.get(site as usize) {
                    Some(&Target::Own(callee)) => {
                        discovered.push((callee, acc));
                        memo.get(&(callee, acc)).copied().unwrap_or_default()
                    }
                    Some(Target::Fragment(row)) => row.transfer(acc),
                    Some(Target::Framework) | None => TaintOutcome::default(),
                };
                preg = o.ret;
                out.leak = out.leak.max(o.leak);
                out.registers |= o.registers;
            }
            TaintOp::MoveResult => {
                acc = preg;
                preg = T_NONE;
            }
            TaintOp::ReturnValue => out.ret = out.ret.max(acc),
            TaintOp::Sput(field) => {
                if let Some(slot) = slots.get(field as usize).and_then(|&f| fields.get_mut(f)) {
                    let joined = (*slot).max(acc);
                    if joined != *slot {
                        *slot = joined;
                        *changed = true;
                    }
                }
            }
            TaintOp::Sget(field) => {
                acc = slots
                    .get(field as usize)
                    .and_then(|&f| fields.get(f))
                    .copied()
                    .unwrap_or(T_NONE);
            }
        }
    }
    out
}

/// Classifies one app over its index, gated on its reachability class: a
/// reachability non-accessor taints nothing (the permission gate models
/// the API returning nothing), which makes taint ⊆ reachability
/// structural rather than empirical. Advances the `market.taint.*`
/// counters exactly once.
pub(crate) fn classify(index: &MethodIndex<'_>, reach: ReachClass) -> TaintClass {
    if reach == ReachClass::NonAccessor {
        return record(TaintClass::NoAccess);
    }
    // Roots: every declared component's lifecycle entries, at untainted
    // input. Entries resolving into the fragment (a pathological but
    // legal manifest) fold its transfer row like any other call.
    let mut own_roots: Vec<(usize, u8)> = Vec::new();
    let mut total = TaintOutcome::default();
    for &target in index.roots.iter().flatten() {
        match target {
            Target::Own(id) => own_roots.push((id, T_NONE)),
            Target::Fragment(row) => total = total.join(row.transfer(T_NONE)),
            Target::Framework => {}
        }
    }
    let mut solver = Solver::new(index);
    for &(id, input) in &own_roots {
        solver.seed(id, input);
    }
    solver.solve();
    for &(id, input) in &own_roots {
        total = total.join(solver.outcome(id, input));
    }
    // A registered listener arms every own `onLocationChanged` with raw
    // taint (the framework delivers full-precision fixes); the fragment
    // defines none, by the fragment table's build-time assertion.
    if total.registers && !index.callbacks.is_empty() {
        for &cb in &index.callbacks {
            solver.seed(cb, T_RAW);
        }
        solver.solve();
        for &cb in &index.callbacks {
            total = total.join(solver.outcome(cb, T_RAW));
        }
    }
    record(TaintClass::from_leak(total.leak))
}

/// Oracle taint classification of one parsed program (possibly the
/// composed own+fragment program) against its manifest, given the
/// already-computed reachability class: summarize without a cache, index
/// with no fragment fold, classify.
#[must_use]
pub fn analyze_program(manifest: &Manifest, program: &IrProgram, reach: ReachClass) -> TaintClass {
    crate::obs::register();
    let summaries: Vec<ClassSummary> = program.classes.iter().map(summarize_class).collect();
    classify(&MethodIndex::new(Some(manifest), &summaries, None), reach)
}

/// Output of one oracle taint analysis: the reachability finding the
/// taint class refines, plus the class itself.
#[derive(Debug, Clone)]
pub struct TaintAnalysis {
    /// The reachability finding — identical to
    /// [`crate::reach::analyze_entry`].
    pub finding: ReachFinding,
    /// The refining taint class.
    pub taint: TaintClass,
    /// Whether the IR text round-trip failed (the app is then a
    /// non-accessor and [`TaintClass::NoAccess`], like a decompilation
    /// failure).
    pub parse_failed: bool,
}

/// Full oracle for one corpus entry: compose own+fragment code exactly
/// like [`crate::reach::analyze_entry`], classify reachability, then
/// classify taint over the same uncached index. The cached counterpart
/// is `summary::analyze_entry_cached`, pinned bit-identical (finding,
/// taint, and telemetry) by the differential suites.
#[must_use]
pub fn analyze_entry(entry: &MarketApp) -> TaintAnalysis {
    let (finding, taint) = crate::reach::analyze_entry_with(entry, |index, finding| classify(index, finding.class));
    TaintAnalysis {
        finding,
        parse_failed: taint.is_none(),
        taint: taint.unwrap_or_else(|| record(TaintClass::NoAccess)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdk::SdkLib;
    use crate::summary::FragmentSummary;
    use backwatch_android::app::{Component, ComponentKind, ManifestBuilder, ACTION_MAIN};
    use backwatch_android::ir::{self, IrClass, IrInstr, IrMethod};
    use backwatch_android::permission::Permission;

    fn manifest() -> Manifest {
        let mut b = ManifestBuilder::new("com.t.app");
        b.add_permission(Permission::AccessFineLocation);
        b.add_component(Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN));
        b.build()
    }

    fn invoke(class: &str, method: &str) -> IrInstr {
        IrInstr::Invoke {
            class: class.to_owned(),
            method: method.to_owned(),
        }
    }

    fn source() -> IrInstr {
        invoke(ir::LOCATION_MANAGER_CLASS, "getLastKnownLocation")
    }

    fn net_sink() -> IrInstr {
        invoke(ir::HTTP_URL_CONNECTION_CLASS, "getOutputStream")
    }

    fn main_program(instrs: Vec<IrInstr>) -> IrProgram {
        IrProgram {
            classes: vec![IrClass::new(
                "com/t/app/MainActivity",
                vec![IrMethod::new("onCreate", instrs)],
            )],
        }
    }

    fn classify(program: &IrProgram) -> TaintClass {
        analyze_program(&manifest(), program, ReachClass::ForegroundOnly)
    }

    #[test]
    fn lattice_is_a_chain_under_join_and_cap() {
        for (i, &a) in LATTICE.iter().enumerate() {
            for &b in &LATTICE[i..] {
                assert!(a <= b, "the encoding orders the chain");
                assert_eq!(a.max(b), b, "join picks the sharper value");
            }
        }
        // a sanitizer caps raw at its degree and never sharpens
        for d in 0..=ir::MAX_SANITIZER_DEGREE {
            for &input in &LATTICE {
                let capped = input.min(sanitized(d));
                if input == T_RAW {
                    assert_eq!(capped, 1 + d);
                }
                assert!(capped <= input, "a sanitizer never sharpens");
            }
            assert_eq!(1u8.min(sanitized(d)), 1, "coarser data stays coarse");
        }
    }

    #[test]
    fn raw_source_to_net_sink_is_exfiltrates_raw() {
        let p = main_program(vec![source(), IrInstr::MoveResult, net_sink()]);
        assert_eq!(classify(&p), TaintClass::ExfiltratesRaw);
    }

    #[test]
    fn sanitized_path_reports_its_degree() {
        for d in 0..=ir::MAX_SANITIZER_DEGREE {
            let p = main_program(vec![
                source(),
                IrInstr::MoveResult,
                invoke(ir::SANITIZER_CLASS, &format!("truncate{d}")),
                IrInstr::MoveResult,
                net_sink(),
            ]);
            assert_eq!(classify(&p), TaintClass::ExfiltratesSanitized(d));
        }
    }

    #[test]
    fn source_without_net_sink_is_access_only() {
        let p = main_program(vec![source(), IrInstr::MoveResult]);
        assert_eq!(classify(&p), TaintClass::AccessOnly);
    }

    #[test]
    fn untainted_net_sink_leaks_nothing() {
        let p = main_program(vec![IrInstr::ConstString("hello".to_owned()), net_sink()]);
        assert_eq!(classify(&p), TaintClass::AccessOnly);
    }

    #[test]
    fn constant_overwrite_kills_taint() {
        let p = main_program(vec![
            source(),
            IrInstr::MoveResult,
            IrInstr::ConstString("gps".to_owned()),
            net_sink(),
        ]);
        assert_eq!(classify(&p), TaintClass::AccessOnly);
    }

    #[test]
    fn sanitize_then_resend_raw_stays_raw() {
        // the adversarial shape: one path sanitizes, a later send ships
        // the re-fetched raw fix — the join must keep the sharper leak
        let p = main_program(vec![
            source(),
            IrInstr::MoveResult,
            invoke(ir::SANITIZER_CLASS, "truncate2"),
            IrInstr::MoveResult,
            net_sink(),
            source(),
            IrInstr::MoveResult,
            net_sink(),
        ]);
        assert_eq!(classify(&p), TaintClass::ExfiltratesRaw);
    }

    #[test]
    fn taint_flows_through_static_fields_and_returns() {
        let helper = "com/t/app/Store";
        let p = IrProgram {
            classes: vec![
                IrClass::new(
                    "com/t/app/MainActivity",
                    vec![IrMethod::new(
                        "onCreate",
                        vec![
                            source(),
                            IrInstr::MoveResult,
                            IrInstr::Sput {
                                class: helper.to_owned(),
                                field: "fix".to_owned(),
                            },
                            invoke(helper, "send"),
                        ],
                    )],
                ),
                IrClass::new(
                    helper,
                    vec![
                        IrMethod::new(
                            "snapshot",
                            vec![
                                IrInstr::Sget {
                                    class: helper.to_owned(),
                                    field: "fix".to_owned(),
                                },
                                IrInstr::ReturnValue,
                            ],
                        ),
                        IrMethod::new("send", vec![invoke(helper, "snapshot"), IrInstr::MoveResult, net_sink()]),
                    ],
                ),
            ],
        };
        assert_eq!(classify(&p), TaintClass::ExfiltratesRaw);
    }

    #[test]
    fn listener_callback_is_seeded_only_when_registered() {
        let callback = IrMethod::new(ir::LISTENER_CALLBACK, vec![net_sink()]);
        let armed = IrProgram {
            classes: vec![IrClass::new(
                "com/t/app/MainActivity",
                vec![
                    IrMethod::new(
                        "onCreate",
                        vec![
                            IrInstr::ConstString("gps".to_owned()),
                            invoke(ir::LOCATION_MANAGER_CLASS, "requestLocationUpdates"),
                        ],
                    ),
                    callback.clone(),
                ],
            )],
        };
        assert_eq!(classify(&armed), TaintClass::ExfiltratesRaw);
        let unarmed = IrProgram {
            classes: vec![IrClass::new(
                "com/t/app/MainActivity",
                vec![IrMethod::new("onCreate", vec![source(), IrInstr::MoveResult]), callback],
            )],
        };
        assert_eq!(classify(&unarmed), TaintClass::AccessOnly);
    }

    #[test]
    fn non_accessor_gate_forces_no_access() {
        let p = main_program(vec![source(), IrInstr::MoveResult, net_sink()]);
        assert_eq!(
            analyze_program(&manifest(), &p, ReachClass::NonAccessor),
            TaintClass::NoAccess
        );
    }

    #[test]
    fn classes_order_by_severity_and_refine_reach() {
        assert!(TaintClass::NoAccess < TaintClass::AccessOnly);
        assert!(TaintClass::AccessOnly < TaintClass::ExfiltratesSanitized(0));
        assert!(TaintClass::ExfiltratesSanitized(4) < TaintClass::ExfiltratesRaw);
        assert!(TaintClass::NoAccess.refines(ReachClass::NonAccessor));
        assert!(!TaintClass::ExfiltratesRaw.refines(ReachClass::NonAccessor));
        assert!(TaintClass::ExfiltratesRaw.refines(ReachClass::ForegroundOnly));
        assert_eq!(TaintClass::ExfiltratesSanitized(3).label(), "exfiltrates-sanitized(3)");
        assert_eq!(TaintClass::ExfiltratesRaw.to_string(), "exfiltrates-raw");
        assert_eq!(TaintClass::ExfiltratesSanitized(2).sanitized_degree(), Some(2));
        assert!(TaintClass::ExfiltratesRaw.sanitized_degree().is_none());
    }

    #[test]
    fn cyclic_calls_reach_the_fixpoint() {
        let main = "com/t/app/MainActivity";
        let p = IrProgram {
            classes: vec![IrClass::new(
                main,
                vec![
                    IrMethod::new("onCreate", vec![invoke(main, "ping")]),
                    IrMethod::new("ping", vec![invoke(main, "pong")]),
                    IrMethod::new("pong", vec![invoke(main, "ping"), source(), IrInstr::MoveResult, net_sink()]),
                ],
            )],
        };
        assert_eq!(classify(&p), TaintClass::ExfiltratesRaw);
    }

    #[test]
    fn fragment_transfer_matches_inline_composition() {
        // a tiny statics-free "fragment" that sanitizes and uploads
        let frag_class = "com/lib/Up";
        let frag = IrProgram {
            classes: vec![IrClass::new(
                frag_class,
                vec![IrMethod::new(
                    "ship",
                    vec![invoke(ir::SANITIZER_CLASS, "truncate1"), IrInstr::MoveResult, net_sink()],
                )],
            )],
        };
        let fragment = FragmentSummary::build(&SdkLib::from_program(frag.clone()));
        let own = main_program(vec![source(), IrInstr::MoveResult, invoke(frag_class, "ship")]);
        let summaries: Vec<ClassSummary> = own.classes.iter().map(summarize_class).collect();
        let index = MethodIndex::new(Some(&manifest()), &summaries, Some(&fragment));
        let folded = super::classify(&index, ReachClass::ForegroundOnly);
        // versus the same code inlined into one program
        let mut inline = own;
        inline.classes.extend(frag.classes.clone());
        assert_eq!(folded, classify(&inline));
        assert_eq!(folded, TaintClass::ExfiltratesSanitized(1));
        // the transfer row itself: raw in, degree-1 leak out, clean return
        let t = fragment.row(frag_class, "ship").expect("row exists").transfer(T_RAW);
        assert_eq!(t.leak, 2);
        assert_eq!(t.ret, T_NONE);
        assert!(!t.registers);
        assert!(fragment.row(frag_class, "missing").is_none());
    }

    #[test]
    fn fragment_with_statics_is_rejected() {
        let stash = IrMethod::new(
            "stash",
            vec![IrInstr::Sput {
                class: "com/lib/Bad".to_owned(),
                field: "f".to_owned(),
            }],
        );
        let statics = SdkLib::from_program(IrProgram {
            classes: vec![IrClass::new("com/lib/Bad", vec![stash])],
        });
        assert!(std::panic::catch_unwind(|| FragmentSummary::build(&statics)).is_err());
        // the listener callback is the other unsound fragment shape
        let callback = SdkLib::from_program(IrProgram {
            classes: vec![IrClass::new(
                "com/lib/Bad",
                vec![IrMethod::new(ir::LISTENER_CALLBACK, vec![])],
            )],
        });
        assert!(std::panic::catch_unwind(|| FragmentSummary::build(&callback)).is_err());
    }
}
