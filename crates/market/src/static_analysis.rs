//! Static manifest triage — the Apktool step of the study.
//!
//! The paper first separates the apps that cannot access location at all
//! (no location permission in the manifest) from those that declare one,
//! and splits the declaring apps by claim. Only manifests are consulted;
//! runtime behavior is invisible here.
//!
//! Like the dynamic step (which round-trips through `dumpsys` text), the
//! triage deliberately goes through the decoded `AndroidManifest.xml`
//! representation: each manifest is rendered to XML and parsed back
//! before being classified, so the pipeline consumes exactly what
//! Apktool-based scripts consume.

use crate::corpus::MarketApp;
use backwatch_android::manifest_xml;
use backwatch_android::permission::LocationClaim;

/// Outcome of triaging one manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestFinding {
    /// The app's package name.
    pub package: String,
    /// Declared location-permission posture.
    pub claim: LocationClaim,
    /// Whether the manifest declares a long-running service component.
    pub has_service: bool,
}

/// Aggregated static findings over a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticReport {
    /// Per-app findings, in corpus order.
    pub findings: Vec<ManifestFinding>,
    /// Total apps triaged.
    pub total: usize,
    /// Apps declaring at least one location permission.
    pub declaring: usize,
    /// Declaring apps with only `ACCESS_FINE_LOCATION`.
    pub fine_only: usize,
    /// Declaring apps with only `ACCESS_COARSE_LOCATION`.
    pub coarse_only: usize,
    /// Declaring apps with both permissions.
    pub both: usize,
}

impl StaticReport {
    /// Fraction of declaring apps with only the fine permission.
    #[must_use]
    pub fn fine_only_share(&self) -> f64 {
        share(self.fine_only, self.declaring)
    }

    /// Fraction of declaring apps with only the coarse permission.
    #[must_use]
    pub fn coarse_only_share(&self) -> f64 {
        share(self.coarse_only, self.declaring)
    }

    /// Fraction of declaring apps with both permissions.
    #[must_use]
    pub fn both_share(&self) -> f64 {
        share(self.both, self.declaring)
    }
}

fn share(n: usize, d: usize) -> f64 {
    if d == 0 {
        // defined as 0.0 rather than NaN, and counted so an empty-corpus
        // run is visible in telemetry
        crate::obs::register();
        crate::obs::STATIC_ZERO_DENOMINATOR.inc();
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Triage every manifest in the corpus, via the XML channel.
///
/// Manifests that fail the render-and-parse round-trip are counted
/// (`market.static.parse_failures_total`) and fall back to the in-memory
/// manifest — the sweep equivalent of an Apktool decode failure, which
/// must not abort a 2,800-app run.
#[must_use]
pub fn analyze(corpus: &[MarketApp]) -> StaticReport {
    crate::obs::register();
    let findings: Vec<ManifestFinding> = corpus
        .iter()
        .map(|entry| {
            // Round-trip through the decoded-manifest text, as Apktool
            // pipelines do; our own renderings always parse.
            let xml = manifest_xml::render(entry.app.manifest());
            let manifest = match manifest_xml::parse(&xml) {
                Ok(m) => m,
                Err(_) => {
                    crate::obs::STATIC_PARSE_FAILURES.inc();
                    entry.app.manifest().clone()
                }
            };
            ManifestFinding {
                package: manifest.package().to_owned(),
                claim: manifest.location_claim(),
                has_service: manifest.has_location_service(),
            }
        })
        .collect();
    let declaring = findings.iter().filter(|f| f.claim.declares_location()).count();
    let fine_only = findings.iter().filter(|f| f.claim == LocationClaim::FineOnly).count();
    let coarse_only = findings.iter().filter(|f| f.claim == LocationClaim::CoarseOnly).count();
    let both = findings.iter().filter(|f| f.claim == LocationClaim::FineAndCoarse).count();
    StaticReport {
        total: findings.len(),
        declaring,
        fine_only,
        coarse_only,
        both,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, CorpusConfig, Quotas};

    #[test]
    fn static_report_recovers_planted_quotas() {
        let cfg = CorpusConfig::scaled(10);
        let corpus = generate(&cfg);
        let q = Quotas::scaled(cfg.total());
        let report = analyze(&corpus);
        assert_eq!(report.total, q.total);
        assert_eq!(report.declaring, q.declaring);
        assert_eq!(report.fine_only, q.fine_only);
        assert_eq!(report.coarse_only, q.coarse_only);
        assert_eq!(report.both, q.both);
    }

    #[test]
    fn shares_sum_to_one_over_declaring() {
        let corpus = generate(&CorpusConfig::scaled(10));
        let r = analyze(&corpus);
        let sum = r.fine_only_share() + r.coarse_only_share() + r.both_share();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_shares_match_paper_percentages() {
        let corpus = generate(&CorpusConfig::paper_scale());
        let r = analyze(&corpus);
        assert!((r.fine_only_share() - 0.17).abs() < 0.005);
        assert!((r.coarse_only_share() - 0.16).abs() < 0.005);
        assert!((r.both_share() - 0.67).abs() < 0.005);
    }

    #[test]
    fn xml_round_trip_equals_direct_manifest_reading() {
        let corpus = generate(&CorpusConfig::scaled(5));
        let report = analyze(&corpus);
        for (entry, finding) in corpus.iter().zip(&report.findings) {
            assert_eq!(finding.package, entry.app.manifest().package());
            assert_eq!(finding.claim, entry.app.manifest().location_claim());
            assert_eq!(finding.has_service, entry.app.manifest().has_location_service());
        }
    }

    #[test]
    fn empty_corpus_is_all_zero() {
        let before = crate::obs::STATIC_ZERO_DENOMINATOR.get();
        let r = analyze(&[]);
        assert_eq!(r.total, 0);
        assert_eq!(r.declaring, 0);
        // shares over a zero denominator are 0.0, never NaN…
        for s in [r.fine_only_share(), r.coarse_only_share(), r.both_share()] {
            assert_eq!(s, 0.0);
            assert!(s.is_finite());
        }
        // …and each hit is counted rather than silently absorbed
        if backwatch_obs::enabled() {
            // >= rather than ==: parallel tests share the process-wide counter
            assert!(crate::obs::STATIC_ZERO_DENOMINATOR.get() >= before + 3);
        }
    }
}
