//! A smali-like app IR: classes, methods, and the instruction kinds the
//! static analyzers read — string constants and invokes for the
//! reachability pass, plus the minimal dataflow instructions
//! (`move-result`, `return-value`, `sput`/`sget` statics) the
//! interprocedural taint pass needs to follow a location fix from a
//! source call to a network sink.
//!
//! The paper's §III static stage decompiles APKs with Apktool and walks
//! the smali output for location-API call sites. We reproduce that
//! channel with a deliberately tiny IR: enough structure to carry call
//! edges, provider string constants, and value flow, with a
//! deterministic text format so fixture apps can be checked in as
//! corpora (like the dumpsys corpus) and so `parse ∘ render` is the
//! identity.
//!
//! The text format, one directive or instruction per line:
//!
//! ```text
//! .class com/example/nav/MainActivity
//!     .method onCreate
//!         const-string "gps"
//!         invoke android/location/LocationManager getLastKnownLocation
//!         move-result
//!         sput com/example/nav/MainActivity lastFix
//!         invoke com/example/nav/AppController start
//!     .end method
//! .end class
//! ```
//!
//! Blank lines and `#`-prefixed lines are ignored, so corpus fixtures can
//! carry `#expect:` directives in-band. Anything else is a parse error:
//! the format is a serialization, not a tolerant scraper, and silent
//! acceptance of junk would let a truncated fixture pass as a smaller
//! program.

use crate::app::{App, ComponentKind};
use crate::provider::ProviderKind;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// The framework class hosting the classic location sinks.
pub const LOCATION_MANAGER_CLASS: &str = "android/location/LocationManager";

/// The Play-services fused provider client class.
pub const FUSED_CLIENT_CLASS: &str = "com/google/android/gms/location/FusedLocationProviderClient";

/// The location-API sink signatures the reachability pass looks for,
/// as `(class, method)` pairs — the paper's §III call-site targets.
pub const SINKS: [(&str, &str); 4] = [
    (LOCATION_MANAGER_CLASS, "requestLocationUpdates"),
    (LOCATION_MANAGER_CLASS, "getLastKnownLocation"),
    (FUSED_CLIENT_CLASS, "requestLocationUpdates"),
    (FUSED_CLIENT_CLASS, "getLastLocation"),
];

/// Whether `(class, method)` is one of the tracked location sinks.
///
/// A sink is a *signature*, not a name: an app-defined method that merely
/// shares a sink's name (`requestLocationUpdates` on an app class) is not
/// a sink, and the adversarial fixture corpus pins that distinction.
#[must_use]
pub fn is_sink(class: &str, method: &str) -> bool {
    SINKS.iter().any(|&(c, m)| c == class && m == method)
}

/// The location *source* signatures of the taint pass: calls whose
/// result value carries a raw coordinate. Both are also reachability
/// [`SINKS`] — an app cannot obtain a fix without touching a tracked
/// location API, which is what makes "taint-positive ⊆
/// reachability-positive" structural rather than coincidental.
pub const SOURCES: [(&str, &str); 2] = [
    (LOCATION_MANAGER_CLASS, "getLastKnownLocation"),
    (FUSED_CLIENT_CLASS, "getLastLocation"),
];

/// The listener-callback method name the framework invokes with a fresh
/// fix. The taint pass seeds app-defined methods of this name with raw
/// taint — but only when some reachable context actually registered a
/// listener (`requestLocationUpdates`), mirroring how the framework only
/// delivers fixes to registered listeners.
pub const LISTENER_CALLBACK: &str = "onLocationChanged";

/// Whether `(class, method)` is a location source (signature match, like
/// [`is_sink`]).
#[must_use]
pub fn is_source(class: &str, method: &str) -> bool {
    SOURCES.iter().any(|&(c, m)| c == class && m == method)
}

/// `java/net/URL` — network sink host class.
pub const URL_CLASS: &str = "java/net/URL";
/// `java/net/HttpURLConnection` — network sink host class.
pub const HTTP_URL_CONNECTION_CLASS: &str = "java/net/HttpURLConnection";
/// `java/net/Socket` — network sink host class.
pub const SOCKET_CLASS: &str = "java/net/Socket";
/// The ad framework's request class: `setLocation` hands coordinates to
/// the ad network, the signature the ad-SDK aggregation literature keys
/// on (arXiv 1903.09916).
pub const AD_REQUEST_CLASS: &str = "com/google/ads/AdRequest";

/// The *network sink* signatures of the taint pass: calls whose argument
/// value leaves the device. An app whose taint reaches one of these
/// exfiltrates; the degree of the weakest sanitizer on the path decides
/// at what precision.
pub const NET_SINKS: [(&str, &str); 4] = [
    (URL_CLASS, "openConnection"),
    (HTTP_URL_CONNECTION_CLASS, "getOutputStream"),
    (SOCKET_CLASS, "getOutputStream"),
    (AD_REQUEST_CLASS, "setLocation"),
];

/// Whether `(class, method)` is a network sink (signature match).
#[must_use]
pub fn is_net_sink(class: &str, method: &str) -> bool {
    NET_SINKS.iter().any(|&(c, m)| c == class && m == method)
}

/// The coordinate-truncation helper class whose methods are the
/// recognized sanitizers.
pub const SANITIZER_CLASS: &str = "com/locutil/CoordTrim";

/// The largest sanitizer degree — `truncate4` keeps 4 decimal digits,
/// matching `core::leakage::MAX_DECIMALS`: anything finer is
/// indistinguishable from raw for the containment adversary, so the
/// static lattice stops where the dynamic channel model does.
pub const MAX_SANITIZER_DEGREE: u8 = 4;

/// The *sanitizer* signatures: coordinate-truncation helpers, each
/// carrying the static precision degree `d` (decimal digits kept) its
/// result is degraded to. `truncate0` keeps whole degrees (coarsest),
/// `truncate4` is the finest recognized degradation.
pub const SANITIZERS: [(&str, &str, u8); 5] = [
    (SANITIZER_CLASS, "truncate0", 0),
    (SANITIZER_CLASS, "truncate1", 1),
    (SANITIZER_CLASS, "truncate2", 2),
    (SANITIZER_CLASS, "truncate3", 3),
    (SANITIZER_CLASS, "truncate4", 4),
];

/// The static degree of `(class, method)` if it is a recognized
/// sanitizer, `None` otherwise (signature match).
#[must_use]
pub fn sanitizer_degree(class: &str, method: &str) -> Option<u8> {
    SANITIZERS
        .iter()
        .find(|&&(c, m, _)| c == class && m == method)
        .map(|&(_, _, d)| d)
}

/// The shared ad-SDK's geo-tracking forwarder: apps hand coordinates to
/// this embedded-library entry point, which forwards them to the ad
/// framework's [`AD_REQUEST_CLASS`]`.setLocation` network sink. It is
/// deliberately *not* a signature sink itself — a taint pass only sees
/// the leak by following the call into the SDK fragment, which is what
/// makes the cached per-fragment taint facts load-bearing.
pub const SDK_GEO_CLASS: &str = "com/adnet/track/Geo";

/// The method name on [`SDK_GEO_CLASS`] apps call to report a fix.
pub const SDK_GEO_METHOD: &str = "report";

/// One IR instruction — only the kinds the analyzers consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrInstr {
    /// `const-string "..."` — a string constant (provider names end up
    /// here, exactly where smali puts them). To the taint pass this is a
    /// strong update: the working value becomes a constant, killing any
    /// taint it carried.
    ConstString(String),
    /// `invoke <class> <method>` — a call edge. Virtual dispatch,
    /// reflection, and ICC are all collapsed into this one edge kind;
    /// DESIGN.md §10 records the soundness caveats. The call consumes
    /// the working value as its argument and leaves its result pending
    /// until a `move-result`.
    Invoke {
        /// Target class path (slash-separated).
        class: String,
        /// Target method name.
        method: String,
    },
    /// `move-result` — binds the pending result of the most recent
    /// `invoke` as the working value (smali's `move-result-object`).
    MoveResult,
    /// `return-value` — returns the working value to the caller.
    ReturnValue,
    /// `sput <class> <field>` — stores the working value into a static
    /// field.
    Sput {
        /// Declaring class path of the static field.
        class: String,
        /// Field name.
        field: String,
    },
    /// `sget <class> <field>` — loads a static field as the working
    /// value.
    Sget {
        /// Declaring class path of the static field.
        class: String,
        /// Field name.
        field: String,
    },
}

/// A method: a name and a straight-line body (control flow inside a
/// method is irrelevant to reachability, so the IR has none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrMethod {
    /// Method name, unique within its class.
    pub name: String,
    /// Body instructions, in order.
    pub instrs: Vec<IrInstr>,
}

impl IrMethod {
    /// A method with the given body.
    #[must_use]
    pub fn new(name: impl Into<String>, instrs: Vec<IrInstr>) -> Self {
        Self {
            name: name.into(),
            instrs,
        }
    }
}

/// A class: a slash-separated path and its methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrClass {
    /// Class path, unique within its program (e.g. `com/x/MainActivity`).
    pub name: String,
    /// Methods, in declaration order.
    pub methods: Vec<IrMethod>,
}

impl IrClass {
    /// A class with the given methods.
    #[must_use]
    pub fn new(name: impl Into<String>, methods: Vec<IrMethod>) -> Self {
        Self {
            name: name.into(),
            methods,
        }
    }

    /// Looks up a method by name.
    #[must_use]
    pub fn method(&self, name: &str) -> Option<&IrMethod> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// A whole app's IR — what "decompiling" one APK yields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IrProgram {
    /// Classes, in declaration order.
    pub classes: Vec<IrClass>,
}

impl IrProgram {
    /// Looks up a class by path.
    #[must_use]
    pub fn class(&self, name: &str) -> Option<&IrClass> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Total method count across all classes.
    #[must_use]
    pub fn method_count(&self) -> usize {
        self.classes.iter().map(|c| c.methods.len()).sum()
    }
}

/// Renders a program in the deterministic text format.
#[must_use]
pub fn render(program: &IrProgram) -> String {
    crate::obs::IR_RENDERS.inc();
    let mut out = String::new();
    for class in &program.classes {
        out.push_str(&format!(".class {}\n", class.name));
        for method in &class.methods {
            out.push_str(&format!("    .method {}\n", method.name));
            for instr in &method.instrs {
                match instr {
                    IrInstr::ConstString(s) => out.push_str(&format!("        const-string \"{s}\"\n")),
                    IrInstr::Invoke { class, method } => out.push_str(&format!("        invoke {class} {method}\n")),
                    IrInstr::MoveResult => out.push_str("        move-result\n"),
                    IrInstr::ReturnValue => out.push_str("        return-value\n"),
                    IrInstr::Sput { class, field } => out.push_str(&format!("        sput {class} {field}\n")),
                    IrInstr::Sget { class, field } => out.push_str(&format!("        sget {class} {field}\n")),
                }
            }
            out.push_str("    .end method\n");
        }
        out.push_str(".end class\n");
    }
    out
}

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIrError {
    line: usize,
    reason: String,
}

impl ParseIrError {
    /// The 1-based line the error was detected on (0 for end-of-input).
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseIrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed IR at line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseIrError {}

/// Checks a class path / method name token: non-empty, no whitespace.
fn valid_token(tok: &str) -> bool {
    !tok.is_empty() && !tok.contains(char::is_whitespace)
}

/// Parses IR text produced by [`render`] (or hand-written fixtures in the
/// same format) back into an [`IrProgram`].
///
/// # Errors
///
/// Returns [`ParseIrError`] on any grammar violation: unmatched
/// `.class`/`.method` blocks, instructions outside a method, malformed
/// operands, duplicate class or method names, or an unrecognized line.
/// Every rejection also bumps the `android.ir.parse_errors_total` counter
/// so corpus sweeps can count failures instead of panicking.
pub fn parse(text: &str) -> Result<IrProgram, ParseIrError> {
    let result = parse_inner(text);
    match &result {
        Ok(_) => crate::obs::IR_PROGRAMS_PARSED.inc(),
        Err(_) => crate::obs::IR_PARSE_ERRORS.inc(),
    }
    result
}

fn parse_inner(text: &str) -> Result<IrProgram, ParseIrError> {
    let mut program = IrProgram::default();
    let mut class: Option<IrClass> = None;
    let mut method: Option<IrMethod> = None;
    let mut seen_classes: BTreeSet<String> = BTreeSet::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |reason: String| ParseIrError { line: i + 1, reason };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".class ") {
            let name = rest.trim();
            if class.is_some() {
                return Err(err("nested .class (missing .end class?)".to_owned()));
            }
            if !valid_token(name) {
                return Err(err(format!("invalid class name {name:?}")));
            }
            if !seen_classes.insert(name.to_owned()) {
                return Err(err(format!("duplicate class {name}")));
            }
            class = Some(IrClass::new(name, Vec::new()));
        } else if let Some(rest) = line.strip_prefix(".method ") {
            let name = rest.trim();
            let Some(ref c) = class else {
                return Err(err(".method outside a class".to_owned()));
            };
            if method.is_some() {
                return Err(err("nested .method (missing .end method?)".to_owned()));
            }
            if !valid_token(name) {
                return Err(err(format!("invalid method name {name:?}")));
            }
            if c.method(name).is_some() {
                return Err(err(format!("duplicate method {name} in class {}", c.name)));
            }
            method = Some(IrMethod::new(name, Vec::new()));
        } else if line == ".end method" {
            let m = method.take().ok_or_else(|| err(".end method without .method".to_owned()))?;
            match class.as_mut() {
                Some(c) => c.methods.push(m),
                None => return Err(err(".end method outside a class".to_owned())),
            }
        } else if line == ".end class" {
            if method.is_some() {
                return Err(err(".end class inside a method".to_owned()));
            }
            let c = class.take().ok_or_else(|| err(".end class without .class".to_owned()))?;
            program.classes.push(c);
        } else if let Some(rest) = line.strip_prefix("const-string ") {
            let m = method
                .as_mut()
                .ok_or_else(|| err("const-string outside a method".to_owned()))?;
            let operand = rest.trim();
            let inner = operand
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| err(format!("const-string operand must be double-quoted, got {operand:?}")))?;
            if inner.contains('"') || inner.contains('\n') {
                return Err(err("const-string operand contains a quote".to_owned()));
            }
            m.instrs.push(IrInstr::ConstString(inner.to_owned()));
        } else if let Some(rest) = line.strip_prefix("invoke ") {
            let m = method.as_mut().ok_or_else(|| err("invoke outside a method".to_owned()))?;
            let mut parts = rest.split_whitespace();
            let (target_class, target_method) = match (parts.next(), parts.next(), parts.next()) {
                (Some(c), Some(mm), None) => (c, mm),
                _ => return Err(err(format!("invoke expects <class> <method>, got {rest:?}"))),
            };
            m.instrs.push(IrInstr::Invoke {
                class: target_class.to_owned(),
                method: target_method.to_owned(),
            });
        } else if line == "move-result" {
            method
                .as_mut()
                .ok_or_else(|| err("move-result outside a method".to_owned()))?
                .instrs
                .push(IrInstr::MoveResult);
        } else if line == "return-value" {
            method
                .as_mut()
                .ok_or_else(|| err("return-value outside a method".to_owned()))?
                .instrs
                .push(IrInstr::ReturnValue);
        } else if let Some(rest) = line.strip_prefix("sput ").or_else(|| line.strip_prefix("sget ")) {
            let is_put = line.starts_with("sput ");
            let op = if is_put { "sput" } else { "sget" };
            let m = method.as_mut().ok_or_else(|| err(format!("{op} outside a method")))?;
            let mut parts = rest.split_whitespace();
            let (target_class, target_field) = match (parts.next(), parts.next(), parts.next()) {
                (Some(c), Some(f), None) => (c, f),
                _ => return Err(err(format!("{op} expects <class> <field>, got {rest:?}"))),
            };
            let class = target_class.to_owned();
            let field = target_field.to_owned();
            m.instrs.push(if is_put {
                IrInstr::Sput { class, field }
            } else {
                IrInstr::Sget { class, field }
            });
        } else {
            return Err(err(format!("unrecognized line {line:?}")));
        }
    }
    if method.is_some() {
        return Err(ParseIrError {
            line: 0,
            reason: "unterminated .method at end of input".to_owned(),
        });
    }
    if class.is_some() {
        return Err(ParseIrError {
            line: 0,
            reason: "unterminated .class at end of input".to_owned(),
        });
    }
    Ok(program)
}

// FNV-1a, the workspace's standard content hash (same constants as the
// serve crate's shard router). Good dispersion on short structured byte
// streams, trivially stable across platforms, and cheap enough to run on
// every class of a million-app sweep. It is *not* cryptographic: DESIGN.md
// §13 records the collision caveat for digest-keyed caches.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_step(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

// Domain-separation tags for the digest byte stream. Every token is
// followed by a 0x00 terminator (class/method names and string operands
// cannot contain NUL — `valid_token` bans whitespace and the text format
// bans raw control characters in practice), so `("ab","c")` and
// `("a","bc")` hash differently.
const TAG_CLASS: u8 = 0x01;
const TAG_METHOD: u8 = 0x02;
const TAG_CONST_STRING: u8 = 0x03;
const TAG_INVOKE: u8 = 0x04;
const TAG_MOVE_RESULT: u8 = 0x05;
const TAG_RETURN_VALUE: u8 = 0x06;
const TAG_SPUT: u8 = 0x07;
const TAG_SGET: u8 = 0x08;

fn digest_token(hash: u64, tag: u8, parts: &[&str]) -> u64 {
    let mut h = fnv1a_step(hash, &[tag]);
    for p in parts {
        h = fnv1a_step(h, p.as_bytes());
        h = fnv1a_step(h, &[0x00]);
    }
    h
}

fn digest_class_into(mut hash: u64, class: &IrClass) -> u64 {
    hash = digest_token(hash, TAG_CLASS, &[&class.name]);
    for method in &class.methods {
        hash = digest_token(hash, TAG_METHOD, &[&method.name]);
        for instr in &method.instrs {
            hash = match instr {
                IrInstr::ConstString(s) => digest_token(hash, TAG_CONST_STRING, &[s]),
                IrInstr::Invoke { class, method } => digest_token(hash, TAG_INVOKE, &[class, method]),
                IrInstr::MoveResult => digest_token(hash, TAG_MOVE_RESULT, &[]),
                IrInstr::ReturnValue => digest_token(hash, TAG_RETURN_VALUE, &[]),
                IrInstr::Sput { class, field } => digest_token(hash, TAG_SPUT, &[class, field]),
                IrInstr::Sget { class, field } => digest_token(hash, TAG_SGET, &[class, field]),
            };
        }
    }
    hash
}

/// Stable FNV-1a content digest of one class: its name, its methods in
/// declaration order, and every instruction operand. Two classes digest
/// equal iff they are structurally equal, so the digest can key per-class
/// analysis summaries across apps (modulo the FNV collision caveat in
/// DESIGN.md §13). Because [`parse`] ∘ [`render`] is the identity, the
/// digest is invariant under the text round-trip — and under anything the
/// text format drops (comments, blank lines, indentation).
#[must_use]
pub fn digest_class(class: &IrClass) -> u64 {
    digest_class_into(FNV_OFFSET, class)
}

/// Stable FNV-1a content digest of a whole program: its classes in
/// declaration order, chained through the same byte stream as
/// [`digest_class`]. Order-sensitive by design — the IR treats class
/// order as part of the serialized artifact.
#[must_use]
pub fn digest_program(program: &IrProgram) -> u64 {
    let mut hash = FNV_OFFSET;
    for class in &program.classes {
        hash = digest_class_into(hash, class);
    }
    hash
}

/// FNV-1a over an arbitrary byte string, starting from the standard
/// offset basis. Exposed so sibling crates digest non-IR artifacts
/// (manifests, churn keys) with the same constants instead of re-deriving
/// them.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_step(FNV_OFFSET, bytes)
}

/// Entry methods the Android framework calls on each component kind —
/// the roots of the reachability pass.
#[must_use]
pub fn entry_methods(kind: ComponentKind) -> &'static [&'static str] {
    match kind {
        ComponentKind::Activity => &["onCreate", "onStart", "onResume", "onClick"],
        ComponentKind::Service => &["onCreate", "onStartCommand"],
        ComponentKind::Receiver => &["onReceive"],
    }
}

/// Lowers an [`App`] to its IR — the simulation's stand-in for
/// Apktool decompilation.
///
/// The lowering is deterministic and behavior-faithful: the emitted code
/// actually *does* (reaches) exactly what [`crate::app::LocationBehavior`]
/// says the app does at run time, so a correct reachability analysis must
/// agree with dynamic observation on every lowered app. Crucially it also
/// plants hazards for unsound shortcuts:
///
/// - inert apps carry a *dead* sink call (`DeadCode.unusedFetch`) that a
///   naive "does the APK mention the API" scan would flag;
/// - functional apps carry a `fetch ↔ retry` call cycle that a worklist
///   without a visited set would spin on;
/// - background reachability flows only through the declared service
///   component, and boot reachability only through the declared
///   `BOOT_COMPLETED` receiver, mirroring the manifest-gated paths real
///   apps use.
#[must_use]
pub fn lower(app: &App) -> IrProgram {
    crate::obs::IR_APPS_LOWERED.inc();
    let manifest = app.manifest();
    let behavior = app.behavior();
    let pkg_path = manifest.package().replace('.', "/");
    let controller = format!("{pkg_path}/AppController");
    let helper = format!("{pkg_path}/LocationHelper");
    let functional = behavior.requests_location();
    let background = functional && behavior.accesses_in_background();
    let service_class = manifest
        .components()
        .iter()
        .find(|c| c.kind == ComponentKind::Service && c.name.contains("LocationService"))
        .map(|c| c.class_path(manifest.package()));

    let mut classes: Vec<IrClass> = Vec::new();
    for component in manifest.components() {
        let mut methods: Vec<IrMethod> = Vec::new();
        match component.kind {
            ComponentKind::Activity => {
                // auto-start apps register in onCreate; the rest wait for a tap
                let hook = if behavior.is_auto_start() { "onCreate" } else { "onClick" };
                for entry in entry_methods(ComponentKind::Activity) {
                    let instrs = if functional && *entry == hook {
                        vec![IrInstr::Invoke {
                            class: controller.clone(),
                            method: "start".to_owned(),
                        }]
                    } else {
                        Vec::new()
                    };
                    methods.push(IrMethod::new(*entry, instrs));
                }
            }
            ComponentKind::Service => {
                methods.push(IrMethod::new("onCreate", Vec::new()));
                let instrs = if background && component.name.contains("LocationService") {
                    vec![IrInstr::Invoke {
                        class: controller.clone(),
                        method: "start".to_owned(),
                    }]
                } else {
                    Vec::new()
                };
                methods.push(IrMethod::new("onStartCommand", instrs));
            }
            ComponentKind::Receiver => {
                let mut instrs = Vec::new();
                if component.is_boot_receiver() && background && behavior.is_auto_start() {
                    if let Some(svc) = &service_class {
                        instrs.push(IrInstr::Invoke {
                            class: svc.clone(),
                            method: "onStartCommand".to_owned(),
                        });
                    }
                }
                methods.push(IrMethod::new("onReceive", instrs));
            }
        }
        classes.push(IrClass::new(component.class_path(manifest.package()), methods));
    }

    if functional {
        classes.push(IrClass::new(
            controller,
            vec![IrMethod::new(
                "start",
                vec![IrInstr::Invoke {
                    class: helper.clone(),
                    method: "fetch".to_owned(),
                }],
            )],
        ));
        let mut fetch: Vec<IrInstr> = Vec::new();
        let manager_providers: Vec<ProviderKind> = behavior
            .providers()
            .iter()
            .copied()
            .filter(|p| *p != ProviderKind::Fused)
            .collect();
        for p in &manager_providers {
            fetch.push(IrInstr::ConstString(p.name().to_owned()));
        }
        if !manager_providers.is_empty() {
            fetch.push(IrInstr::Invoke {
                class: LOCATION_MANAGER_CLASS.to_owned(),
                method: "requestLocationUpdates".to_owned(),
            });
            fetch.push(IrInstr::Invoke {
                class: LOCATION_MANAGER_CLASS.to_owned(),
                method: "getLastKnownLocation".to_owned(),
            });
        }
        if behavior.providers().contains(&ProviderKind::Fused) {
            fetch.push(IrInstr::Invoke {
                class: FUSED_CLIENT_CLASS.to_owned(),
                method: "requestLocationUpdates".to_owned(),
            });
            fetch.push(IrInstr::Invoke {
                class: FUSED_CLIENT_CLASS.to_owned(),
                method: "getLastLocation".to_owned(),
            });
        }
        // exfiltration tail: bind a fresh fix (`move-result`), optionally
        // push it through the declared truncation helper, stash it in the
        // static the uploader snapshots, then hand off to the uploader.
        // This is the dataflow the taint pass must follow end to end:
        // source → move-result → (sanitize) → sput → sget → return-value
        // → network sink, across three methods and a static field.
        let exfil = behavior.exfiltration();
        let uploader = format!("{pkg_path}/Uploader");
        if exfil.exfiltrates() {
            let (src_class, src_method) = if behavior.providers().contains(&ProviderKind::Fused) {
                (FUSED_CLIENT_CLASS, "getLastLocation")
            } else {
                (LOCATION_MANAGER_CLASS, "getLastKnownLocation")
            };
            fetch.push(IrInstr::Invoke {
                class: src_class.to_owned(),
                method: src_method.to_owned(),
            });
            fetch.push(IrInstr::MoveResult);
            if let Some(d) = exfil.decimals() {
                fetch.push(IrInstr::Invoke {
                    class: SANITIZER_CLASS.to_owned(),
                    method: format!("truncate{d}"),
                });
                fetch.push(IrInstr::MoveResult);
            }
            fetch.push(IrInstr::Sput {
                class: helper.clone(),
                field: "lastFix".to_owned(),
            });
            fetch.push(IrInstr::Invoke {
                class: uploader.clone(),
                method: "send".to_owned(),
            });
        }
        // retry loop: fetch ↔ retry is a deliberate call-graph cycle
        fetch.push(IrInstr::Invoke {
            class: helper.clone(),
            method: "retry".to_owned(),
        });
        let retry = vec![IrInstr::Invoke {
            class: helper.clone(),
            method: "fetch".to_owned(),
        }];
        let mut helper_methods = vec![IrMethod::new("fetch", fetch), IrMethod::new("retry", retry)];
        if exfil.exfiltrates() {
            helper_methods.push(IrMethod::new(
                "snapshot",
                vec![
                    IrInstr::Sget {
                        class: helper.clone(),
                        field: "lastFix".to_owned(),
                    },
                    IrInstr::ReturnValue,
                ],
            ));
        }
        classes.push(IrClass::new(helper.clone(), helper_methods));
        if exfil.exfiltrates() {
            // SDK-routed apps hand the fix to the embedded tracker, which
            // forwards it to the ad network inside the fragment; direct
            // uploaders open their own connection.
            let (net_class, net_method) = if exfil.via_sdk() {
                (SDK_GEO_CLASS, SDK_GEO_METHOD)
            } else {
                (HTTP_URL_CONNECTION_CLASS, "getOutputStream")
            };
            classes.push(IrClass::new(
                uploader,
                vec![IrMethod::new(
                    "send",
                    vec![
                        IrInstr::Invoke {
                            class: helper,
                            method: "snapshot".to_owned(),
                        },
                        IrInstr::MoveResult,
                        IrInstr::Invoke {
                            class: net_class.to_owned(),
                            method: net_method.to_owned(),
                        },
                    ],
                )],
            ));
        }
    } else {
        // decoy: the sink is *present* but unreachable from any entry point
        classes.push(IrClass::new(
            format!("{pkg_path}/DeadCode"),
            vec![IrMethod::new(
                "unusedFetch",
                vec![
                    IrInstr::ConstString("gps".to_owned()),
                    IrInstr::Invoke {
                        class: LOCATION_MANAGER_CLASS.to_owned(),
                        method: "requestLocationUpdates".to_owned(),
                    },
                ],
            )],
        ));
    }
    IrProgram { classes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, Component, LocationBehavior, ACTION_BOOT_COMPLETED, ACTION_MAIN};
    use crate::permission::{LocationClaim, Permission};

    fn sample_program() -> IrProgram {
        IrProgram {
            classes: vec![
                IrClass::new(
                    "com/x/Main",
                    vec![
                        IrMethod::new(
                            "onCreate",
                            vec![
                                IrInstr::ConstString("gps".to_owned()),
                                IrInstr::Invoke {
                                    class: "com/x/Helper".to_owned(),
                                    method: "go".to_owned(),
                                },
                            ],
                        ),
                        IrMethod::new("onStop", Vec::new()),
                    ],
                ),
                IrClass::new("com/x/Helper", vec![IrMethod::new("go", Vec::new())]),
            ],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let p = sample_program();
        let text = render(&p);
        let back = parse(&text).unwrap();
        assert_eq!(back, p);
        // and render is stable
        assert_eq!(render(&back), text);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "#expect: ok 1\n\n.class a/B\n\n    # inline note\n    .method m\n    .end method\n.end class\n";
        let p = parse(text).unwrap();
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.method_count(), 1);
    }

    #[test]
    fn grammar_violations_error() {
        for bad in [
            "const-string \"x\"\n",                             // instr outside method
            ".method m\n.end method\n",                         // method outside class
            ".class a/B\n.class a/C\n",                         // nested class
            ".class a/B\n.end class\n.class a/B\n.end class\n", // duplicate class
            ".class a/B\n.method m\n.method n\n",               // nested method
            ".class a/B\n.method m\n.end method\n.method m\n",  // duplicate method
            ".class a/B\n.method m\nconst-string gps\n",        // unquoted operand
            ".class a/B\n.method m\ninvoke onlyone\n",          // invoke arity
            ".class a/B\n.method m\ninvoke a b c\n",            // invoke arity (too many)
            ".class a/B\n.method m\nmov r0 r1\n",               // unknown instruction
            ".class a/B\n.method m\nsput onlyone\n",            // sput arity
            ".class a/B\n.method m\nsget a b c\n",              // sget arity (too many)
            "move-result\n",                                    // dataflow instr outside method
            ".class a/B\nreturn-value\n.end class\n",           // dataflow instr outside method
            ".class a/B\n",                                     // unterminated class
            ".class a/B\n.method m\n",                          // unterminated method
            ".end class\n",                                     // close without open
            ".class  \n",                                       // blank class name
        ] {
            assert!(parse(bad).is_err(), "expected parse error for {bad:?}");
        }
    }

    #[test]
    fn sink_table_matches_signatures_not_names() {
        assert!(is_sink(LOCATION_MANAGER_CLASS, "requestLocationUpdates"));
        assert!(is_sink(FUSED_CLIENT_CLASS, "getLastLocation"));
        assert!(!is_sink("com/x/MyManager", "requestLocationUpdates"));
        assert!(!is_sink(LOCATION_MANAGER_CLASS, "addGpsStatusListener"));
    }

    #[test]
    fn taint_tables_match_signatures_not_names() {
        // every source is also a reachability sink: taint ⊆ reach holds
        // structurally because obtaining a fix touches a tracked API
        for &(c, m) in &SOURCES {
            assert!(is_sink(c, m), "{c}.{m} must be a reach sink");
            assert!(is_source(c, m));
        }
        assert!(!is_source(LOCATION_MANAGER_CLASS, "requestLocationUpdates"));
        assert!(!is_source("com/x/MyManager", "getLastKnownLocation"));
        assert!(is_net_sink(URL_CLASS, "openConnection"));
        assert!(is_net_sink(AD_REQUEST_CLASS, "setLocation"));
        assert!(!is_net_sink("com/x/Url", "openConnection"));
        // net sinks and location sinks are disjoint signature sets
        for &(c, m) in &NET_SINKS {
            assert!(!is_sink(c, m));
        }
        assert_eq!(sanitizer_degree(SANITIZER_CLASS, "truncate0"), Some(0));
        assert_eq!(sanitizer_degree(SANITIZER_CLASS, "truncate4"), Some(MAX_SANITIZER_DEGREE));
        assert_eq!(sanitizer_degree(SANITIZER_CLASS, "truncate5"), None);
        assert_eq!(sanitizer_degree("com/x/CoordTrim", "truncate2"), None);
        for &(_, _, d) in &SANITIZERS {
            assert!(d <= MAX_SANITIZER_DEGREE);
        }
    }

    #[test]
    fn dataflow_instructions_round_trip() {
        let p = IrProgram {
            classes: vec![IrClass::new(
                "a/B",
                vec![IrMethod::new(
                    "m",
                    vec![
                        IrInstr::Invoke {
                            class: LOCATION_MANAGER_CLASS.to_owned(),
                            method: "getLastKnownLocation".to_owned(),
                        },
                        IrInstr::MoveResult,
                        IrInstr::Sput {
                            class: "a/B".to_owned(),
                            field: "lastFix".to_owned(),
                        },
                        IrInstr::Sget {
                            class: "a/B".to_owned(),
                            field: "lastFix".to_owned(),
                        },
                        IrInstr::ReturnValue,
                    ],
                )],
            )],
        };
        let text = render(&p);
        assert_eq!(parse(&text).unwrap(), p);
        assert_eq!(render(&parse(&text).unwrap()), text);
        // sput and sget with identical operands must not digest equal
        let mut gets = p.clone();
        gets.classes[0].methods[0].instrs[2] = IrInstr::Sget {
            class: "a/B".to_owned(),
            field: "lastFix".to_owned(),
        };
        assert_ne!(digest_program(&gets), digest_program(&p));
        // the operandless instructions are digest-distinct too
        let mr = IrProgram {
            classes: vec![IrClass::new("a/B", vec![IrMethod::new("m", vec![IrInstr::MoveResult])])],
        };
        let rv = IrProgram {
            classes: vec![IrClass::new("a/B", vec![IrMethod::new("m", vec![IrInstr::ReturnValue])])],
        };
        assert_ne!(digest_program(&mr), digest_program(&rv));
    }

    fn bg_app() -> App {
        AppBuilder::new("com.x.nav")
            .location_claim(LocationClaim::FineAndCoarse)
            .permission(Permission::ReceiveBootCompleted)
            .component(Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN))
            .component(Component::new(ComponentKind::Receiver, ".BootReceiver").with_action(ACTION_BOOT_COMPLETED))
            .location_service(true)
            .behavior(
                LocationBehavior::requester([ProviderKind::Gps, ProviderKind::Fused], 5)
                    .auto_start(true)
                    .background_interval(60),
            )
            .build()
    }

    #[test]
    fn lowered_background_app_wires_boot_chain() {
        let p = lower(&bg_app());
        let receiver = p.class("com/x/nav/BootReceiver").unwrap();
        let on_receive = receiver.method("onReceive").unwrap();
        assert_eq!(
            on_receive.instrs,
            vec![IrInstr::Invoke {
                class: "com/x/nav/LocationService".to_owned(),
                method: "onStartCommand".to_owned(),
            }]
        );
        let helper = p.class("com/x/nav/LocationHelper").unwrap();
        let fetch = helper.method("fetch").unwrap();
        assert!(fetch.instrs.contains(&IrInstr::ConstString("gps".to_owned())));
        assert!(fetch.instrs.iter().any(|i| matches!(
            i,
            IrInstr::Invoke { class, method } if class == FUSED_CLIENT_CLASS && method == "requestLocationUpdates"
        )));
        // the planted cycle
        assert!(helper.method("retry").is_some());
    }

    #[test]
    fn lowered_inert_app_has_only_dead_sinks() {
        let app = AppBuilder::new("com.x.flash")
            .location_claim(LocationClaim::FineOnly)
            .component(Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN))
            .build();
        let p = lower(&app);
        let dead = p.class("com/x/flash/DeadCode").unwrap();
        assert!(dead.method("unusedFetch").is_some());
        // no entry method carries any invoke
        let main = p.class("com/x/flash/MainActivity").unwrap();
        assert!(main.methods.iter().all(|m| m.instrs.is_empty()));
    }

    #[test]
    fn lowered_ir_round_trips_through_text() {
        let p = lower(&bg_app());
        assert_eq!(parse(&render(&p)).unwrap(), p);
    }

    fn exfil_app(exfil: crate::app::Exfiltration) -> App {
        AppBuilder::new("com.x.nav")
            .location_claim(LocationClaim::FineAndCoarse)
            .component(Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN))
            .behavior(LocationBehavior::requester([ProviderKind::Gps], 5).exfiltrate(exfil))
            .build()
    }

    #[test]
    fn lowered_exfiltrating_app_wires_the_full_dataflow_chain() {
        use crate::app::Exfiltration;
        let p = lower(&exfil_app(Exfiltration::Sanitized {
            decimals: 2,
            via_sdk: false,
        }));
        let fetch = p.class("com/x/nav/LocationHelper").unwrap().method("fetch").unwrap();
        let tail: Vec<IrInstr> = fetch.instrs.iter().skip(fetch.instrs.len() - 7).cloned().collect();
        assert_eq!(
            tail,
            vec![
                IrInstr::Invoke {
                    class: LOCATION_MANAGER_CLASS.to_owned(),
                    method: "getLastKnownLocation".to_owned(),
                },
                IrInstr::MoveResult,
                IrInstr::Invoke {
                    class: SANITIZER_CLASS.to_owned(),
                    method: "truncate2".to_owned(),
                },
                IrInstr::MoveResult,
                IrInstr::Sput {
                    class: "com/x/nav/LocationHelper".to_owned(),
                    field: "lastFix".to_owned(),
                },
                IrInstr::Invoke {
                    class: "com/x/nav/Uploader".to_owned(),
                    method: "send".to_owned(),
                },
                IrInstr::Invoke {
                    class: "com/x/nav/LocationHelper".to_owned(),
                    method: "retry".to_owned(),
                },
            ]
        );
        // the uploader snapshots the static and hands it to the net sink
        let send = p.class("com/x/nav/Uploader").unwrap().method("send").unwrap();
        assert_eq!(
            send.instrs,
            vec![
                IrInstr::Invoke {
                    class: "com/x/nav/LocationHelper".to_owned(),
                    method: "snapshot".to_owned(),
                },
                IrInstr::MoveResult,
                IrInstr::Invoke {
                    class: HTTP_URL_CONNECTION_CLASS.to_owned(),
                    method: "getOutputStream".to_owned(),
                },
            ]
        );
        let snapshot = p.class("com/x/nav/LocationHelper").unwrap().method("snapshot").unwrap();
        assert!(snapshot.instrs.contains(&IrInstr::ReturnValue));
        // raw SDK-routed apps target the embedded tracker instead
        let p = lower(&exfil_app(Exfiltration::Raw { via_sdk: true }));
        let send = p.class("com/x/nav/Uploader").unwrap().method("send").unwrap();
        assert!(send.instrs.contains(&IrInstr::Invoke {
            class: SDK_GEO_CLASS.to_owned(),
            method: SDK_GEO_METHOD.to_owned(),
        }));
        assert!(!render(&p).contains("truncate"));
        // non-exfiltrating apps emit no uploader at all
        let p = lower(&exfil_app(Exfiltration::None));
        assert!(p.class("com/x/nav/Uploader").is_none());
    }

    #[test]
    fn digest_is_invariant_under_the_text_round_trip() {
        for p in [sample_program(), lower(&bg_app())] {
            let back = parse(&render(&p)).unwrap();
            assert_eq!(digest_program(&back), digest_program(&p));
            for (a, b) in p.classes.iter().zip(&back.classes) {
                assert_eq!(digest_class(a), digest_class(b));
            }
        }
        // comments, blank lines and indentation are not content
        let noisy = "# fixture header\n\n.class a/B\n  # note\n      .method m\n  const-string \"x\"\n .end method\n.end class\n";
        let clean = ".class a/B\n.method m\nconst-string \"x\"\n.end method\n.end class\n";
        assert_eq!(digest_program(&parse(noisy).unwrap()), digest_program(&parse(clean).unwrap()));
    }

    #[test]
    fn digest_changes_on_semantic_edits() {
        let base = sample_program();
        let d0 = digest_program(&base);

        // renamed invoke target
        let mut renamed = base.clone();
        renamed.classes[0].methods[0].instrs[1] = IrInstr::Invoke {
            class: "com/x/Helper".to_owned(),
            method: "go2".to_owned(),
        };
        assert_ne!(digest_program(&renamed), d0);
        assert_ne!(digest_class(&renamed.classes[0]), digest_class(&base.classes[0]));

        // added const-string + sink call
        let mut sinked = base.clone();
        sinked.classes[1].methods[0].instrs.extend([
            IrInstr::ConstString("gps".to_owned()),
            IrInstr::Invoke {
                class: LOCATION_MANAGER_CLASS.to_owned(),
                method: "requestLocationUpdates".to_owned(),
            },
        ]);
        assert_ne!(digest_program(&sinked), d0);

        // reordered classes are a different artifact
        let mut swapped = base.clone();
        swapped.classes.swap(0, 1);
        assert_ne!(digest_program(&swapped), d0);

        // token-boundary honesty: moving a character across the
        // class/method name boundary must not collide
        let a = IrProgram {
            classes: vec![IrClass::new("ab", vec![IrMethod::new("c", Vec::new())])],
        };
        let b = IrProgram {
            classes: vec![IrClass::new("a", vec![IrMethod::new("bc", Vec::new())])],
        };
        assert_ne!(digest_program(&a), digest_program(&b));
    }

    #[test]
    fn digest_distinguishes_instruction_kinds() {
        // `const-string "x y"` vs `invoke x y` must not collide even
        // though the operand bytes coincide
        let cs = IrProgram {
            classes: vec![IrClass::new(
                "a/B",
                vec![IrMethod::new("m", vec![IrInstr::ConstString("x\u{0}y".to_owned())])],
            )],
        };
        let inv = IrProgram {
            classes: vec![IrClass::new(
                "a/B",
                vec![IrMethod::new(
                    "m",
                    vec![IrInstr::Invoke {
                        class: "x".to_owned(),
                        method: "y".to_owned(),
                    }],
                )],
            )],
        };
        assert_ne!(digest_program(&cs), digest_program(&inv));
    }
}
