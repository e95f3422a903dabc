//! The shared third-party SDK fragment.
//!
//! Real markets ship the same ad/analytics library inside thousands of
//! apps, which is exactly what makes per-class summary caching pay off:
//! the library's classes hash to the same digests in every app that
//! embeds them. This module is that library, once — a fixed ~49-class
//! [`IrProgram`] fragment that [`crate::corpus`] links into a configured
//! share of the corpus and [`crate::reach`] wires into each host app's
//! launcher activity.
//!
//! The standard fragment is deliberately *sink-free on every reachable
//! path*: embedding it must never change an app's [`ReachClass`], so the
//! cached sweep stays comparable to the paper funnel whatever the share
//! knob says. It still contains a location sink — in a dead class no
//! fragment method calls — so the analysis has to prove unreachability
//! rather than assume it. A second, sink-bearing variant exists for the
//! differential tests that need the opposite guarantee.
//!
//! [`ReachClass`]: crate::reach::ReachClass

use backwatch_android::ir::{self, IrClass, IrInstr, IrMethod, IrProgram};
use std::sync::{Arc, OnceLock};

/// Class whose invocation boots the SDK inside a host app.
pub const ENTRY_CLASS: &str = "com/adnet/core/Sdk";
/// Method on [`ENTRY_CLASS`] that hosts invoke.
pub const ENTRY_METHOD: &str = "boot";

/// How many ad-unit filler classes the fragment carries. Together with
/// the core/net/metrics/radar/track classes this puts the fragment at 49
/// classes — the same order of magnitude as the host apps' own code, so
/// cache hit rates at high sharing are dominated by fragment reuse.
const AD_UNITS: usize = 40;

/// A shared library fragment: its IR, and the content digest the summary
/// cache keys it under.
#[derive(Debug)]
pub struct SdkLib {
    program: IrProgram,
    digest: u64,
}

impl SdkLib {
    pub(crate) fn from_program(program: IrProgram) -> Self {
        let digest = ir::digest_program(&program);
        Self { program, digest }
    }

    /// The fragment's classes.
    #[must_use]
    pub fn program(&self) -> &IrProgram {
        &self.program
    }

    /// Content digest over the whole fragment (order-sensitive, like
    /// [`ir::digest_program`]).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The `(class, method)` hosts invoke to boot the SDK.
    #[must_use]
    pub fn entry(&self) -> (&'static str, &'static str) {
        (ENTRY_CLASS, ENTRY_METHOD)
    }

    /// Number of classes in the fragment.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.program.classes.len()
    }

    /// Whether the fragment defines `class`.
    #[must_use]
    pub fn defines_class(&self, class: &str) -> bool {
        self.program.classes.iter().any(|c| c.name == class)
    }
}

fn invoke(class: &str, method: &str) -> IrInstr {
    IrInstr::Invoke {
        class: class.to_owned(),
        method: method.to_owned(),
    }
}

fn konst(s: &str) -> IrInstr {
    IrInstr::ConstString(s.to_owned())
}

/// Builds the fragment body. `boot_calls_radar` wires the dead sink class
/// into the entry path — only the test variant does that.
fn build(boot_calls_radar: bool) -> IrProgram {
    let mut boot = vec![
        konst("sdk-7.4.1"),
        invoke("com/adnet/core/Config", "load"),
        invoke("com/adnet/core/Lifecycle", "attach"),
    ];
    if boot_calls_radar {
        boot.push(invoke("com/adnet/radar/DeadRadar", "scan"));
    }
    let mut classes = vec![
        IrClass::new(
            ENTRY_CLASS,
            vec![
                IrMethod::new(ENTRY_METHOD, boot),
                IrMethod::new("version", vec![konst("7.4.1")]),
            ],
        ),
        IrClass::new(
            "com/adnet/core/Config",
            vec![IrMethod::new(
                "load",
                vec![konst("cfg.adnet.json"), invoke("com/adnet/net/Http", "open")],
            )],
        ),
        IrClass::new(
            "com/adnet/core/Lifecycle",
            vec![IrMethod::new("attach", vec![invoke("com/adnet/metrics/Beacon", "emit")])],
        ),
        IrClass::new(
            "com/adnet/net/Http",
            vec![
                IrMethod::new(
                    "open",
                    vec![invoke("com/adnet/net/Dns", "resolve"), invoke("com/adnet/ads/Unit00", "run")],
                ),
                IrMethod::new("close", vec![]),
            ],
        ),
        IrClass::new(
            "com/adnet/net/Dns",
            vec![IrMethod::new("resolve", vec![konst("cdn.adnet.example")])],
        ),
        IrClass::new(
            "com/adnet/metrics/Beacon",
            vec![IrMethod::new("emit", vec![invoke("com/adnet/metrics/Queue", "push")])],
        ),
        // push <-> drain cycle: fragment summaries must fold cyclic
        // intra-fragment reachability, not just trees
        IrClass::new(
            "com/adnet/metrics/Queue",
            vec![
                IrMethod::new("push", vec![invoke("com/adnet/metrics/Queue", "drain")]),
                IrMethod::new("drain", vec![invoke("com/adnet/metrics/Queue", "push")]),
            ],
        ),
    ];
    for i in 0..AD_UNITS {
        let mut run = vec![konst(&format!("unit-{i:02}"))];
        if i + 1 < AD_UNITS {
            run.push(invoke(&format!("com/adnet/ads/Unit{:02}", i + 1), "run"));
        }
        classes.push(IrClass::new(
            format!("com/adnet/ads/Unit{i:02}"),
            vec![IrMethod::new("run", run)],
        ));
    }
    // the decoy: a real location sink (with a provider const-string) that
    // no fragment method reaches unless `boot_calls_radar`
    classes.push(IrClass::new(
        "com/adnet/radar/DeadRadar",
        vec![IrMethod::new(
            "scan",
            vec![konst("gps"), invoke(ir::LOCATION_MANAGER_CLASS, "requestLocationUpdates")],
        )],
    ));
    // the geo forwarder hosts hand coordinates to: whatever taint its
    // argument carries goes straight to the ad-request upload. Dead from
    // `boot`, so linking the fragment still never changes a ReachClass —
    // only apps that *call* it exfiltrate through it.
    classes.push(IrClass::new(
        ir::SDK_GEO_CLASS,
        vec![IrMethod::new(
            ir::SDK_GEO_METHOD,
            vec![invoke(ir::AD_REQUEST_CLASS, "setLocation")],
        )],
    ));
    IrProgram { classes }
}

/// The shared SDK fragment every SDK-bearing corpus app links. Built once
/// per process; the returned `Arc` is cheap to clone into each
/// [`crate::corpus::MarketApp`].
#[must_use]
pub fn shared() -> Arc<SdkLib> {
    static SHARED: OnceLock<Arc<SdkLib>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(SdkLib::from_program(build(false)))))
}

/// Test-support variant whose entry path *does* reach the location sink.
/// Differential suites use it to prove the analysis sees fragment code
/// rather than skipping it.
#[must_use]
pub fn shared_with_sink() -> Arc<SdkLib> {
    static SHARED: OnceLock<Arc<SdkLib>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(SdkLib::from_program(build(true)))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_round_trips_through_ir_text() {
        let sdk = shared();
        let text = ir::render(sdk.program());
        let parsed = ir::parse(&text).expect("fragment must round-trip");
        assert_eq!(&parsed, sdk.program());
        assert_eq!(ir::digest_program(&parsed), sdk.digest());
    }

    #[test]
    fn fragment_has_expected_shape() {
        let sdk = shared();
        assert_eq!(sdk.class_count(), 49);
        assert!(sdk.defines_class(ENTRY_CLASS));
        assert!(sdk.defines_class("com/adnet/radar/DeadRadar"));
        assert!(sdk.defines_class(ir::SDK_GEO_CLASS));
        assert!(!sdk.defines_class("com/adnet/radar/Ghost"));
        // the entry is a real method
        let entry = sdk.program().class(ENTRY_CLASS).and_then(|c| c.method(ENTRY_METHOD));
        assert!(entry.is_some());
    }

    #[test]
    fn variants_differ_only_in_the_radar_edge() {
        let clean = shared();
        let dirty = shared_with_sink();
        assert_ne!(clean.digest(), dirty.digest());
        assert_eq!(clean.class_count(), dirty.class_count());
    }

    #[test]
    fn shared_is_cached() {
        assert!(Arc::ptr_eq(&shared(), &shared()));
    }
}
