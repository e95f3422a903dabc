//! Dynamic analysis: run each declaring app on the simulated device and
//! observe it through `dumpsys`.
//!
//! The protocol follows the paper's §III-A: *"We launch the app, try to
//! trigger location access, move the app to background, and finally close
//! it. We use a system diagnostic tool 'dumpsys' to examine how apps
//! request location."* Observations are recovered exclusively from the
//! rendered-and-parsed dumpsys text and the device access log — never from
//! the app's internal `LocationBehavior` — so the pipeline has the same
//! observability limits the authors had.

use crate::category::Category;
use crate::corpus::{MarketApp, ProviderCombo};
use backwatch_android::dumpsys;
use backwatch_android::provider::{Granularity, ProviderKind};
use backwatch_android::system::Device;
use std::collections::BTreeSet;

/// What the dynamic run observed about one app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicObservation {
    /// Package name.
    pub package: String,
    /// Store category.
    pub category: Category,
    /// Declared claim (from the static step; dynamic analysis is only run
    /// on declaring apps).
    pub claim: backwatch_android::permission::LocationClaim,
    /// Whether the app registered any location listener during the run.
    pub functional: bool,
    /// Whether listeners appeared right after launch, before any simulated
    /// user interaction.
    pub auto_start: bool,
    /// Whether listeners survived backgrounding (the paper's core signal).
    pub background: bool,
    /// Providers seen registered at any point of the run.
    pub providers: BTreeSet<ProviderKind>,
    /// Requested update interval while in background, seconds.
    pub bg_interval_s: Option<i64>,
    /// Granularities of fixes actually delivered during the run.
    pub delivered: BTreeSet<Granularity>,
}

impl DynamicObservation {
    /// The provider combination, when it matches a Table I column.
    #[must_use]
    pub fn combo(&self) -> Option<ProviderCombo> {
        let v: Vec<ProviderKind> = self.providers.iter().copied().collect();
        ProviderCombo::from_providers(&v)
    }

    /// Whether the app, by its registrations, can obtain precise fixes
    /// (registers GPS, or fused under a fine claim) — the paper's
    /// "accesses precise location" classification.
    #[must_use]
    pub fn uses_fine_in_practice(&self) -> bool {
        self.providers.contains(&ProviderKind::Gps) || (self.providers.contains(&ProviderKind::Fused) && self.claim.allows_fine())
    }
}

/// How long each phase of the protocol runs, in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protocol {
    /// Settle time after launch before the first dumpsys.
    pub settle_s: i64,
    /// Time to wait after triggering location use.
    pub trigger_s: i64,
    /// Observation window after backgrounding.
    pub background_s: i64,
}

impl Default for Protocol {
    fn default() -> Self {
        Self {
            settle_s: 30,
            trigger_s: 30,
            background_s: 120,
        }
    }
}

/// The device's current listener table, read back through the rendered
/// `dumpsys` text. A report that fails to parse reads as no listeners;
/// `dumpsys::parse` has already counted it in
/// `android.dumpsys.parse_errors_total`.
fn read_dumpsys(device: &Device) -> Vec<dumpsys::ListenerEntry> {
    dumpsys::parse(&dumpsys::render(device)).unwrap_or_default()
}

/// Runs the protocol on a single app, on a fresh device.
///
/// Apps whose registration attempt throws the simulated
/// `SecurityException` are reported as non-functional, exactly as a
/// crashing app would have looked to the authors.
#[must_use]
pub fn analyze_app(entry: &MarketApp, protocol: Protocol) -> DynamicObservation {
    crate::obs::register();
    crate::obs::DYNAMIC_APPS.inc();
    let mut device = Device::new();
    let id = device.install(entry.app.clone());
    let mut providers: BTreeSet<ProviderKind> = BTreeSet::new();
    let mut auto_start = false;
    let mut functional = false;

    // Phase 1: launch and let it settle.
    let launched = device.launch(id).is_ok();
    if launched {
        device.advance(protocol.settle_s);
        let entries = read_dumpsys(&device);
        if !entries.is_empty() {
            functional = true;
            auto_start = true;
            providers.extend(entries.iter().map(|e| e.provider));
        }

        // Phase 2: if silent, poke it like a user would.
        if !functional && device.trigger_location_use(id).is_ok() {
            device.advance(protocol.trigger_s);
            let entries = read_dumpsys(&device);
            if !entries.is_empty() {
                functional = true;
                providers.extend(entries.iter().map(|e| e.provider));
            }
        }
    }

    // Phase 3: background it and watch dumpsys for surviving listeners.
    let mut background = false;
    let mut bg_interval_s = None;
    if launched && device.move_to_background(id).is_ok() {
        device.advance(protocol.background_s);
        let entries = read_dumpsys(&device);
        let bg_entries: Vec<_> = entries.iter().filter(|e| e.background).collect();
        if !bg_entries.is_empty() {
            background = true;
            crate::obs::DYNAMIC_BACKGROUND_APPS.inc();
            providers.extend(bg_entries.iter().map(|e| e.provider));
            bg_interval_s = bg_entries.iter().map(|e| e.interval_s).min();
        }
    }

    // Granularities actually delivered during the whole run.
    let delivered: BTreeSet<Granularity> = device.access_log().iter().map(|r| r.granularity).collect();

    // Phase 4: close the app.
    let _ = device.stop(id);

    DynamicObservation {
        package: entry.app.manifest().package().to_owned(),
        category: entry.category,
        claim: entry.app.manifest().location_claim(),
        functional,
        auto_start,
        background,
        providers,
        bg_interval_s,
        delivered,
    }
}

/// Runs the protocol over every location-declaring app of the corpus (the
/// paper only manually tests the 1,137 declaring apps).
#[must_use]
pub fn analyze_corpus(corpus: &[MarketApp]) -> Vec<DynamicObservation> {
    analyze_corpus_with(corpus, Protocol::default())
}

/// [`analyze_corpus`] with a custom protocol.
#[must_use]
pub fn analyze_corpus_with(corpus: &[MarketApp], protocol: Protocol) -> Vec<DynamicObservation> {
    corpus
        .iter()
        .filter(|e| e.app.manifest().location_claim().declares_location())
        .map(|e| analyze_app(e, protocol))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig, Quotas};

    #[test]
    fn observations_match_planted_truth() {
        let cfg = CorpusConfig::scaled(8);
        let corpus = generate(&cfg);
        let obs = analyze_corpus(&corpus);
        let by_package: std::collections::HashMap<&str, &DynamicObservation> =
            obs.iter().map(|o| (o.package.as_str(), o)).collect();
        for entry in corpus.iter().filter(|e| e.truth.claim.declares_location()) {
            let o = by_package[entry.app.manifest().package()];
            assert_eq!(o.functional, entry.truth.functional, "{}", o.package);
            assert_eq!(o.background, entry.truth.bg_interval_s.is_some(), "{}", o.package);
            assert_eq!(o.bg_interval_s, entry.truth.bg_interval_s, "{}", o.package);
            if entry.truth.functional {
                assert_eq!(o.auto_start, entry.truth.auto_start, "{}", o.package);
                assert_eq!(o.combo(), entry.truth.combo, "{}", o.package);
            }
        }
    }

    #[test]
    fn only_declaring_apps_are_tested() {
        let cfg = CorpusConfig::scaled(4);
        let corpus = generate(&cfg);
        let obs = analyze_corpus(&corpus);
        assert_eq!(obs.len(), Quotas::scaled(cfg.total()).declaring);
    }

    #[test]
    fn fine_in_practice_matches_provider_logic() {
        let corpus = generate(&CorpusConfig::scaled(8));
        let obs = analyze_corpus(&corpus);
        for o in obs.iter().filter(|o| o.functional) {
            let has_gps = o.providers.contains(&ProviderKind::Gps);
            if has_gps {
                assert!(o.uses_fine_in_practice());
            }
        }
    }

    #[test]
    fn delivered_granularity_consistent_with_claim() {
        let corpus = generate(&CorpusConfig::scaled(8));
        for o in analyze_corpus(&corpus) {
            if !o.claim.allows_fine() {
                assert!(
                    !o.delivered.contains(&Granularity::Fine),
                    "{} received fine fixes under a coarse claim",
                    o.package
                );
            }
        }
    }

    #[test]
    fn protocol_is_deterministic() {
        let corpus = generate(&CorpusConfig::scaled(3));
        let a = analyze_corpus(&corpus);
        let b = analyze_corpus(&corpus);
        assert_eq!(a, b);
    }
}
