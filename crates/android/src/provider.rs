//! Location providers and fix granularity.

use crate::permission::LocationClaim;
use std::fmt;
use std::str::FromStr;

/// Granularity of a location fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Granularity {
    /// Network-cell / wifi precision (hundreds of meters).
    Coarse,
    /// GPS precision (meters).
    Fine,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Granularity::Coarse => "coarse",
            Granularity::Fine => "fine",
        })
    }
}

/// The four Android location providers the paper's Table I tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProviderKind {
    /// The GPS provider: fine fixes, requires `ACCESS_FINE_LOCATION`.
    Gps,
    /// The network provider: coarse fixes, requires any location
    /// permission.
    Network,
    /// The passive provider: piggybacks on fixes other requests produce;
    /// induces no extra positioning work.
    Passive,
    /// The fused provider (Google Play services): best available fix for
    /// the app's permission level.
    Fused,
}

/// All providers, in Table I's column order.
pub const ALL_PROVIDERS: [ProviderKind; 4] = [
    ProviderKind::Gps,
    ProviderKind::Network,
    ProviderKind::Passive,
    ProviderKind::Fused,
];

impl ProviderKind {
    /// The provider's name as it appears in `dumpsys location`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ProviderKind::Gps => "gps",
            ProviderKind::Network => "network",
            ProviderKind::Passive => "passive",
            ProviderKind::Fused => "fused",
        }
    }

    /// Whether an app with the given permission claim may register this
    /// provider.
    ///
    /// GPS needs fine permission; the others need any location permission.
    #[must_use]
    pub fn permitted_for(&self, claim: LocationClaim) -> bool {
        match self {
            ProviderKind::Gps => claim.allows_fine(),
            ProviderKind::Network | ProviderKind::Passive | ProviderKind::Fused => claim.declares_location(),
        }
    }

    /// Granularity of fixes this provider delivers to an app with the
    /// given claim, assuming the registration was permitted.
    ///
    /// Passive has no inherent granularity (it forwards whatever was
    /// cached, capped by the app's permission); `None` signals "depends on
    /// the cache".
    #[must_use]
    pub fn fix_granularity(&self, claim: LocationClaim) -> Option<Granularity> {
        match self {
            ProviderKind::Gps => Some(Granularity::Fine),
            ProviderKind::Network => Some(Granularity::Coarse),
            ProviderKind::Passive => None,
            ProviderKind::Fused => Some(if claim.allows_fine() {
                Granularity::Fine
            } else {
                Granularity::Coarse
            }),
        }
    }

    /// Whether this provider actively computes fixes (drains battery) as
    /// opposed to passively reusing cached ones.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !matches!(self, ProviderKind::Passive)
    }
}

impl fmt::Display for ProviderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a provider name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProviderError(String);

impl fmt::Display for ParseProviderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown location provider {:?}", self.0)
    }
}

impl std::error::Error for ParseProviderError {}

impl FromStr for ProviderKind {
    type Err = ParseProviderError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "gps" => Ok(ProviderKind::Gps),
            "network" => Ok(ProviderKind::Network),
            "passive" => Ok(ProviderKind::Passive),
            "fused" => Ok(ProviderKind::Fused),
            other => Err(ParseProviderError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gps_requires_fine() {
        assert!(ProviderKind::Gps.permitted_for(LocationClaim::FineOnly));
        assert!(ProviderKind::Gps.permitted_for(LocationClaim::FineAndCoarse));
        assert!(!ProviderKind::Gps.permitted_for(LocationClaim::CoarseOnly));
        assert!(!ProviderKind::Gps.permitted_for(LocationClaim::None));
    }

    #[test]
    fn network_and_passive_allow_coarse_only() {
        for p in [ProviderKind::Network, ProviderKind::Passive, ProviderKind::Fused] {
            assert!(p.permitted_for(LocationClaim::CoarseOnly), "{p}");
            assert!(!p.permitted_for(LocationClaim::None), "{p}");
        }
    }

    #[test]
    fn fused_granularity_tracks_permission() {
        assert_eq!(
            ProviderKind::Fused.fix_granularity(LocationClaim::FineAndCoarse),
            Some(Granularity::Fine)
        );
        assert_eq!(
            ProviderKind::Fused.fix_granularity(LocationClaim::CoarseOnly),
            Some(Granularity::Coarse)
        );
    }

    #[test]
    fn passive_has_no_inherent_granularity() {
        assert_eq!(ProviderKind::Passive.fix_granularity(LocationClaim::FineAndCoarse), None);
        assert!(!ProviderKind::Passive.is_active());
        assert!(ProviderKind::Gps.is_active());
    }

    #[test]
    fn names_round_trip() {
        for p in ALL_PROVIDERS {
            assert_eq!(p.name().parse::<ProviderKind>().unwrap(), p);
        }
        assert!("wifi".parse::<ProviderKind>().is_err());
    }

    #[test]
    fn granularity_orders_coarse_below_fine() {
        assert!(Granularity::Coarse < Granularity::Fine);
    }
}
