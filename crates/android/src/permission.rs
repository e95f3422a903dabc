//! Android permissions relevant to location access.

use std::collections::BTreeSet;
use std::fmt;

/// The manifest permissions the measurement cares about.
///
/// Only the two location permissions affect the simulation; the others
/// exist so synthetic manifests look like real ones (every real app
/// declares a pile of unrelated permissions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Permission {
    /// `android.permission.ACCESS_FINE_LOCATION` — GPS-precision fixes.
    AccessFineLocation,
    /// `android.permission.ACCESS_COARSE_LOCATION` — network-precision
    /// fixes.
    AccessCoarseLocation,
    /// `android.permission.INTERNET`.
    Internet,
    /// `android.permission.ACCESS_NETWORK_STATE`.
    AccessNetworkState,
    /// `android.permission.WAKE_LOCK` — lets services keep running; common
    /// among apps that poll location persistently.
    WakeLock,
    /// `android.permission.RECEIVE_BOOT_COMPLETED`.
    ReceiveBootCompleted,
}

impl Permission {
    /// The fully qualified Android permission string.
    #[must_use]
    pub fn qualified_name(&self) -> &'static str {
        match self {
            Permission::AccessFineLocation => "android.permission.ACCESS_FINE_LOCATION",
            Permission::AccessCoarseLocation => "android.permission.ACCESS_COARSE_LOCATION",
            Permission::Internet => "android.permission.INTERNET",
            Permission::AccessNetworkState => "android.permission.ACCESS_NETWORK_STATE",
            Permission::WakeLock => "android.permission.WAKE_LOCK",
            Permission::ReceiveBootCompleted => "android.permission.RECEIVE_BOOT_COMPLETED",
        }
    }

    /// Whether this is one of the two location permissions.
    #[must_use]
    pub fn is_location(&self) -> bool {
        matches!(self, Permission::AccessFineLocation | Permission::AccessCoarseLocation)
    }
}

impl fmt::Display for Permission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.qualified_name())
    }
}

/// The location-permission posture an app declares — the paper's
/// three-way split (17 % fine only / 16 % coarse only / 67 % both among
/// declaring apps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocationClaim {
    /// Declares neither location permission.
    None,
    /// Declares only `ACCESS_FINE_LOCATION`.
    FineOnly,
    /// Declares only `ACCESS_COARSE_LOCATION`.
    CoarseOnly,
    /// Declares both.
    FineAndCoarse,
}

impl LocationClaim {
    /// Derives the claim from a set of declared permissions.
    #[must_use]
    pub fn from_permissions(perms: &BTreeSet<Permission>) -> Self {
        let fine = perms.contains(&Permission::AccessFineLocation);
        let coarse = perms.contains(&Permission::AccessCoarseLocation);
        match (fine, coarse) {
            (false, false) => LocationClaim::None,
            (true, false) => LocationClaim::FineOnly,
            (false, true) => LocationClaim::CoarseOnly,
            (true, true) => LocationClaim::FineAndCoarse,
        }
    }

    /// Whether any location permission is declared.
    #[must_use]
    pub fn declares_location(&self) -> bool {
        *self != LocationClaim::None
    }

    /// Whether fine-granularity fixes may be requested under this claim.
    #[must_use]
    pub fn allows_fine(&self) -> bool {
        matches!(self, LocationClaim::FineOnly | LocationClaim::FineAndCoarse)
    }

    /// Whether coarse fixes may be requested. On Android, holding
    /// `ACCESS_FINE_LOCATION` implies coarse access as well.
    #[must_use]
    pub fn allows_coarse(&self) -> bool {
        self.declares_location()
    }

    /// The permissions this claim corresponds to.
    #[must_use]
    pub fn to_permissions(self) -> BTreeSet<Permission> {
        let mut s = BTreeSet::new();
        match self {
            LocationClaim::None => {}
            LocationClaim::FineOnly => {
                s.insert(Permission::AccessFineLocation);
            }
            LocationClaim::CoarseOnly => {
                s.insert(Permission::AccessCoarseLocation);
            }
            LocationClaim::FineAndCoarse => {
                s.insert(Permission::AccessFineLocation);
                s.insert(Permission::AccessCoarseLocation);
            }
        }
        s
    }
}

impl fmt::Display for LocationClaim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LocationClaim::None => "none",
            LocationClaim::FineOnly => "fine",
            LocationClaim::CoarseOnly => "coarse",
            LocationClaim::FineAndCoarse => "fine & coarse",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_from_permissions() {
        let mut p = BTreeSet::new();
        assert_eq!(LocationClaim::from_permissions(&p), LocationClaim::None);
        p.insert(Permission::AccessFineLocation);
        assert_eq!(LocationClaim::from_permissions(&p), LocationClaim::FineOnly);
        p.insert(Permission::AccessCoarseLocation);
        assert_eq!(LocationClaim::from_permissions(&p), LocationClaim::FineAndCoarse);
        p.remove(&Permission::AccessFineLocation);
        assert_eq!(LocationClaim::from_permissions(&p), LocationClaim::CoarseOnly);
    }

    #[test]
    fn claim_round_trips_through_permissions() {
        for claim in [
            LocationClaim::None,
            LocationClaim::FineOnly,
            LocationClaim::CoarseOnly,
            LocationClaim::FineAndCoarse,
        ] {
            assert_eq!(LocationClaim::from_permissions(&claim.to_permissions()), claim);
        }
    }

    #[test]
    fn fine_implies_coarse() {
        assert!(LocationClaim::FineOnly.allows_coarse());
        assert!(LocationClaim::FineOnly.allows_fine());
        assert!(LocationClaim::CoarseOnly.allows_coarse());
        assert!(!LocationClaim::CoarseOnly.allows_fine());
        assert!(!LocationClaim::None.allows_coarse());
    }

    #[test]
    fn is_location_flags_only_location_permissions() {
        assert!(Permission::AccessFineLocation.is_location());
        assert!(Permission::AccessCoarseLocation.is_location());
        assert!(!Permission::Internet.is_location());
        assert!(!Permission::WakeLock.is_location());
    }

    #[test]
    fn qualified_names_are_android_style() {
        assert_eq!(
            Permission::AccessFineLocation.to_string(),
            "android.permission.ACCESS_FINE_LOCATION"
        );
    }
}
