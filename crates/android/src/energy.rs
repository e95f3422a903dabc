//! Energy accounting for location fixes.
//!
//! The paper notes that the passive provider "will not induce any extra
//! overhead for location calculation" — i.e. providers differ sharply in
//! battery cost. The device charges each produced fix to the requesting
//! app using this model, so studies can rank background pollers by the
//! battery they burn (a GPS fix costs roughly an order of magnitude more
//! than a network fix; passive reuse is free).

use crate::provider::ProviderKind;

/// Per-fix energy costs in millijoule-equivalents (relative units; the
/// defaults reflect the commonly cited GPS ≫ network ≫ passive ordering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Cost of one GPS fix.
    pub gps: f64,
    /// Cost of one network (cell/wifi) fix.
    pub network: f64,
    /// Cost of one fused fix.
    pub fused: f64,
    /// Cost of one passive (cache reuse) delivery.
    pub passive: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            gps: 1.0,
            network: 0.3,
            fused: 0.5,
            passive: 0.0,
        }
    }
}

impl EnergyModel {
    /// The cost of one fix from `provider`.
    #[must_use]
    pub fn cost_of(&self, provider: ProviderKind) -> f64 {
        match provider {
            ProviderKind::Gps => self.gps,
            ProviderKind::Network => self.network,
            ProviderKind::Fused => self.fused,
            ProviderKind::Passive => self.passive,
        }
    }

    /// Validates that every cost is finite and non-negative.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message otherwise.
    pub fn validate(&self) {
        for (name, v) in [
            ("gps", self.gps),
            ("network", self.network),
            ("fused", self.fused),
            ("passive", self.passive),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "energy cost {name} must be finite and >= 0, got {v}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ordering_matches_the_paper() {
        let m = EnergyModel::default();
        assert!(m.cost_of(ProviderKind::Gps) > m.cost_of(ProviderKind::Network));
        assert!(m.cost_of(ProviderKind::Network) > m.cost_of(ProviderKind::Passive));
        assert_eq!(m.cost_of(ProviderKind::Passive), 0.0);
    }

    #[test]
    fn validate_accepts_default() {
        EnergyModel::default().validate();
    }

    #[test]
    #[should_panic(expected = "energy cost")]
    fn validate_rejects_negative() {
        EnergyModel {
            gps: -1.0,
            ..EnergyModel::default()
        }
        .validate();
    }
}
