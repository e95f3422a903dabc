//! Apps: static manifests and runtime location behavior.

use crate::permission::{LocationClaim, Permission};
use crate::provider::ProviderKind;
use std::collections::BTreeSet;
use std::fmt;

/// The intent action a receiver must filter on to run at boot.
pub const ACTION_BOOT_COMPLETED: &str = "android.intent.action.BOOT_COMPLETED";

/// The launcher entry action of a main activity.
pub const ACTION_MAIN: &str = "android.intent.action.MAIN";

/// The kind of an application component declared in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentKind {
    /// `<activity>` — a foreground UI entry point.
    Activity,
    /// `<service>` — a long-running background entry point.
    Service,
    /// `<receiver>` — a broadcast entry point (e.g. `BOOT_COMPLETED`).
    Receiver,
}

impl ComponentKind {
    /// The manifest element name (`activity` / `service` / `receiver`).
    #[must_use]
    pub fn element(&self) -> &'static str {
        match self {
            ComponentKind::Activity => "activity",
            ComponentKind::Service => "service",
            ComponentKind::Receiver => "receiver",
        }
    }
}

/// One `<activity>`/`<service>`/`<receiver>` declaration, with the intent
/// actions its `<intent-filter>` registers for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// The element kind.
    pub kind: ComponentKind,
    /// The `android:name` value — `.Relative` or fully qualified.
    pub name: String,
    /// Actions declared in the component's intent filter, in order.
    pub intent_actions: Vec<String>,
}

impl Component {
    /// A component with no intent filter.
    #[must_use]
    pub fn new(kind: ComponentKind, name: impl Into<String>) -> Self {
        Self {
            kind,
            name: name.into(),
            intent_actions: Vec::new(),
        }
    }

    /// Adds an intent-filter action.
    #[must_use]
    pub fn with_action(mut self, action: impl Into<String>) -> Self {
        self.intent_actions.push(action.into());
        self
    }

    /// Whether the component's filter includes `BOOT_COMPLETED`.
    #[must_use]
    pub fn is_boot_receiver(&self) -> bool {
        self.kind == ComponentKind::Receiver && self.intent_actions.iter().any(|a| a == ACTION_BOOT_COMPLETED)
    }

    /// Resolves the `android:name` to an IR class path: `.Relative` names
    /// are prefixed with the package, dots become slashes
    /// (`.MainActivity` under `com.x` → `com/x/MainActivity`).
    #[must_use]
    pub fn class_path(&self, package: &str) -> String {
        if let Some(rel) = self.name.strip_prefix('.') {
            format!("{}/{}", package.replace('.', "/"), rel.replace('.', "/"))
        } else {
            self.name.replace('.', "/")
        }
    }
}

/// The static view of an app — what Apktool extracts from the APK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    package: String,
    permissions: BTreeSet<Permission>,
    components: Vec<Component>,
}

impl Manifest {
    /// The app's package name (e.g. `com.example.maps`).
    #[must_use]
    pub fn package(&self) -> &str {
        &self.package
    }

    /// The declared permissions.
    #[must_use]
    pub fn permissions(&self) -> &BTreeSet<Permission> {
        &self.permissions
    }

    /// The location-permission posture of this manifest.
    #[must_use]
    pub fn location_claim(&self) -> LocationClaim {
        LocationClaim::from_permissions(&self.permissions)
    }

    /// The declared components, in declaration order.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Whether the manifest declares a long-running service component
    /// (needed to keep updating location after being killed from recents;
    /// background listeners alone survive ordinary backgrounding).
    #[must_use]
    pub fn has_location_service(&self) -> bool {
        self.components
            .iter()
            .any(|c| c.kind == ComponentKind::Service && c.name.contains("LocationService"))
    }

    /// Whether the manifest declares a `BOOT_COMPLETED` receiver (and the
    /// matching permission, which real Android also requires).
    #[must_use]
    pub fn has_boot_receiver(&self) -> bool {
        self.permissions.contains(&Permission::ReceiveBootCompleted) && self.components.iter().any(Component::is_boot_receiver)
    }
}

/// Builds a bare [`Manifest`] without behavior — used by the manifest-XML
/// parser and by tests that only care about the static view.
///
/// # Examples
///
/// ```
/// use backwatch_android::app::ManifestBuilder;
/// use backwatch_android::permission::Permission;
///
/// let mut b = ManifestBuilder::new("com.example.app");
/// b.add_permission(Permission::AccessCoarseLocation);
/// let manifest = b.build();
/// assert!(manifest.location_claim().declares_location());
/// ```
#[derive(Debug, Clone)]
pub struct ManifestBuilder {
    package: String,
    permissions: BTreeSet<Permission>,
    components: Vec<Component>,
}

impl ManifestBuilder {
    /// Starts a manifest for `package`.
    ///
    /// # Panics
    ///
    /// Panics if `package` is empty or contains whitespace.
    #[must_use]
    pub fn new(package: impl Into<String>) -> Self {
        let package = package.into();
        assert!(
            !package.is_empty() && !package.contains(char::is_whitespace),
            "package name must be non-empty and free of whitespace: {package:?}"
        );
        Self {
            package,
            permissions: BTreeSet::new(),
            components: Vec::new(),
        }
    }

    /// Declares a permission.
    pub fn add_permission(&mut self, p: Permission) {
        self.permissions.insert(p);
    }

    /// Declares a component.
    pub fn add_component(&mut self, c: Component) {
        self.components.push(c);
    }

    /// Marks the manifest as declaring a location service component
    /// (adds or removes the conventional `.LocationService` declaration).
    pub fn set_location_service(&mut self, yes: bool) {
        let is_loc = |c: &Component| c.kind == ComponentKind::Service && c.name.contains("LocationService");
        if yes {
            if !self.components.iter().any(is_loc) {
                self.components
                    .push(Component::new(ComponentKind::Service, ".LocationService"));
            }
        } else {
            self.components.retain(|c| !is_loc(c));
        }
    }

    /// Finishes the manifest.
    #[must_use]
    pub fn build(self) -> Manifest {
        Manifest {
            package: self.package,
            permissions: self.permissions,
            components: self.components,
        }
    }
}

/// What an app does with the fixes it collects — the exfiltration ground
/// truth the taint pass recovers statically.
///
/// `via_sdk` routes the upload through the embedded ad-SDK's tracker
/// (`ir::SDK_GEO_CLASS`) instead of an app-owned connection; the flow
/// then crosses the app→SDK fragment boundary before reaching the
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exfiltration {
    /// Fixes never leave the device.
    None,
    /// Coordinates are truncated to `decimals` digits before upload.
    Sanitized {
        /// Decimal digits kept on the wire (0..=`ir::MAX_SANITIZER_DEGREE`).
        decimals: u8,
        /// Upload through the shared ad SDK rather than directly.
        via_sdk: bool,
    },
    /// Full-precision coordinates are uploaded.
    Raw {
        /// Upload through the shared ad SDK rather than directly.
        via_sdk: bool,
    },
}

impl Exfiltration {
    /// Whether any fix leaves the device.
    #[must_use]
    pub fn exfiltrates(&self) -> bool {
        !matches!(self, Exfiltration::None)
    }

    /// The sanitizer degree applied on the upload path, if sanitized.
    #[must_use]
    pub fn decimals(&self) -> Option<u8> {
        match self {
            Exfiltration::Sanitized { decimals, .. } => Some(*decimals),
            _ => None,
        }
    }

    /// Whether the upload is routed through the shared ad SDK.
    #[must_use]
    pub fn via_sdk(&self) -> bool {
        match self {
            Exfiltration::None => false,
            Exfiltration::Sanitized { via_sdk, .. } | Exfiltration::Raw { via_sdk } => *via_sdk,
        }
    }
}

/// What the app actually does with location at run time — the ground truth
/// that dynamic analysis recovers.
///
/// Constructed via the provided combinators:
///
/// ```
/// use backwatch_android::app::LocationBehavior;
/// use backwatch_android::provider::ProviderKind;
///
/// let b = LocationBehavior::requester([ProviderKind::Gps, ProviderKind::Network], 5)
///     .auto_start(true)
///     .background_interval(30);
/// assert!(b.accesses_in_background());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationBehavior {
    providers: Vec<ProviderKind>,
    foreground_interval_s: i64,
    background_interval_s: Option<i64>,
    auto_start: bool,
    exfiltration: Exfiltration,
}

impl LocationBehavior {
    /// An app that never requests location (the over-privileged case: it
    /// may still *declare* permissions in its manifest).
    #[must_use]
    pub fn inert() -> Self {
        Self {
            providers: Vec::new(),
            foreground_interval_s: 0,
            background_interval_s: None,
            auto_start: false,
            exfiltration: Exfiltration::None,
        }
    }

    /// An app that requests location from `providers` every
    /// `interval_s` seconds while in the foreground.
    ///
    /// # Panics
    ///
    /// Panics if `providers` is empty or `interval_s < 1`.
    #[must_use]
    pub fn requester<I: IntoIterator<Item = ProviderKind>>(providers: I, interval_s: i64) -> Self {
        let providers: Vec<ProviderKind> = providers.into_iter().collect();
        assert!(!providers.is_empty(), "a requester needs at least one provider");
        assert!(interval_s >= 1, "interval must be at least 1 s, got {interval_s}");
        Self {
            providers,
            foreground_interval_s: interval_s,
            background_interval_s: None,
            auto_start: false,
            exfiltration: Exfiltration::None,
        }
    }

    /// Sets whether the app registers its listeners immediately on launch
    /// (385 of the paper's 528 functional apps do) or only after a user
    /// interaction.
    #[must_use]
    pub fn auto_start(mut self, yes: bool) -> Self {
        self.auto_start = yes;
        self
    }

    /// Makes the app keep updating location in the background, every
    /// `interval_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s < 1` or the behavior is inert.
    #[must_use]
    pub fn background_interval(mut self, interval_s: i64) -> Self {
        assert!(interval_s >= 1, "interval must be at least 1 s, got {interval_s}");
        assert!(self.requests_location(), "an inert app cannot poll in background");
        self.background_interval_s = Some(interval_s);
        self
    }

    /// Sets what the app does with collected fixes.
    ///
    /// # Panics
    ///
    /// Panics if the behavior is inert (an app that never obtains a fix
    /// has nothing to exfiltrate) or a sanitized degree exceeds
    /// `ir::MAX_SANITIZER_DEGREE`.
    #[must_use]
    pub fn exfiltrate(mut self, exfiltration: Exfiltration) -> Self {
        if exfiltration.exfiltrates() {
            assert!(self.requests_location(), "an inert app cannot exfiltrate location");
        }
        if let Some(d) = exfiltration.decimals() {
            assert!(
                d <= crate::ir::MAX_SANITIZER_DEGREE,
                "sanitizer degree {d} exceeds the recognized maximum"
            );
        }
        self.exfiltration = exfiltration;
        self
    }

    /// What the app does with the fixes it collects.
    #[must_use]
    pub fn exfiltration(&self) -> Exfiltration {
        self.exfiltration
    }

    /// Whether the app functionally requests location at all.
    #[must_use]
    pub fn requests_location(&self) -> bool {
        !self.providers.is_empty()
    }

    /// Whether the app keeps accessing location in the background.
    #[must_use]
    pub fn accesses_in_background(&self) -> bool {
        self.background_interval_s.is_some()
    }

    /// Whether registration happens on launch without user action.
    #[must_use]
    pub fn is_auto_start(&self) -> bool {
        self.auto_start
    }

    /// The providers the app registers.
    #[must_use]
    pub fn providers(&self) -> &[ProviderKind] {
        &self.providers
    }

    /// Foreground update interval, seconds.
    #[must_use]
    pub fn foreground_interval_s(&self) -> i64 {
        self.foreground_interval_s
    }

    /// Background update interval, seconds, if the app polls in background.
    #[must_use]
    pub fn background_interval_s(&self) -> Option<i64> {
        self.background_interval_s
    }
}

/// A complete app: manifest plus runtime behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct App {
    manifest: Manifest,
    behavior: LocationBehavior,
}

impl App {
    /// The static manifest.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The runtime behavior.
    #[must_use]
    pub fn behavior(&self) -> &LocationBehavior {
        &self.behavior
    }
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.manifest.package, self.manifest.location_claim())
    }
}

/// Builder for [`App`].
///
/// # Examples
///
/// ```
/// use backwatch_android::app::{AppBuilder, LocationBehavior};
/// use backwatch_android::permission::Permission;
/// use backwatch_android::provider::ProviderKind;
///
/// let app = AppBuilder::new("com.example.weather")
///     .permission(Permission::AccessCoarseLocation)
///     .permission(Permission::Internet)
///     .behavior(LocationBehavior::requester([ProviderKind::Network], 60))
///     .build();
/// assert!(app.manifest().location_claim().declares_location());
/// ```
#[derive(Debug, Clone)]
pub struct AppBuilder {
    manifest: ManifestBuilder,
    behavior: LocationBehavior,
}

impl AppBuilder {
    /// Starts building an app with the given package name.
    ///
    /// # Panics
    ///
    /// Panics if `package` is empty or contains whitespace.
    #[must_use]
    pub fn new(package: impl Into<String>) -> Self {
        Self {
            manifest: ManifestBuilder::new(package),
            behavior: LocationBehavior::inert(),
        }
    }

    /// Declares a permission.
    #[must_use]
    pub fn permission(mut self, p: Permission) -> Self {
        self.manifest.add_permission(p);
        self
    }

    /// Declares the permissions of a [`LocationClaim`] wholesale.
    #[must_use]
    pub fn location_claim(mut self, claim: LocationClaim) -> Self {
        for p in claim.to_permissions() {
            self.manifest.add_permission(p);
        }
        self
    }

    /// Declares a component.
    #[must_use]
    pub fn component(mut self, c: Component) -> Self {
        self.manifest.add_component(c);
        self
    }

    /// Declares a long-running location service component.
    #[must_use]
    pub fn location_service(mut self, yes: bool) -> Self {
        self.manifest.set_location_service(yes);
        self
    }

    /// Sets the runtime behavior.
    #[must_use]
    pub fn behavior(mut self, behavior: LocationBehavior) -> Self {
        self.behavior = behavior;
        self
    }

    /// Finishes the app.
    #[must_use]
    pub fn build(self) -> App {
        App {
            manifest: self.manifest.build(),
            behavior: self.behavior,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_manifest() {
        let app = AppBuilder::new("com.x.y")
            .permission(Permission::AccessFineLocation)
            .permission(Permission::Internet)
            .location_service(true)
            .build();
        assert_eq!(app.manifest().package(), "com.x.y");
        assert_eq!(app.manifest().location_claim(), LocationClaim::FineOnly);
        assert!(app.manifest().has_location_service());
        assert!(!app.behavior().requests_location());
    }

    #[test]
    fn claim_bulk_declaration() {
        let app = AppBuilder::new("a.b").location_claim(LocationClaim::FineAndCoarse).build();
        assert_eq!(app.manifest().location_claim(), LocationClaim::FineAndCoarse);
    }

    #[test]
    fn behavior_flags() {
        let b = LocationBehavior::requester([ProviderKind::Passive], 10);
        assert!(b.requests_location());
        assert!(!b.accesses_in_background());
        let b = b.background_interval(600);
        assert!(b.accesses_in_background());
        assert_eq!(b.background_interval_s(), Some(600));
    }

    #[test]
    #[should_panic(expected = "at least one provider")]
    fn requester_needs_providers() {
        let _ = LocationBehavior::requester([], 10);
    }

    #[test]
    #[should_panic(expected = "inert app")]
    fn inert_cannot_go_background() {
        let _ = LocationBehavior::inert().background_interval(10);
    }

    #[test]
    fn exfiltration_flags() {
        let b = LocationBehavior::requester([ProviderKind::Gps], 10);
        assert_eq!(b.exfiltration(), Exfiltration::None);
        assert!(!b.exfiltration().exfiltrates());
        let b = b.exfiltrate(Exfiltration::Sanitized {
            decimals: 3,
            via_sdk: true,
        });
        assert!(b.exfiltration().exfiltrates());
        assert_eq!(b.exfiltration().decimals(), Some(3));
        assert!(b.exfiltration().via_sdk());
        let raw = Exfiltration::Raw { via_sdk: false };
        assert_eq!(raw.decimals(), None);
        assert!(!raw.via_sdk());
    }

    #[test]
    #[should_panic(expected = "inert app cannot exfiltrate")]
    fn inert_cannot_exfiltrate() {
        let _ = LocationBehavior::inert().exfiltrate(Exfiltration::Raw { via_sdk: false });
    }

    #[test]
    #[should_panic(expected = "exceeds the recognized maximum")]
    fn oversharp_sanitizer_degree_panics() {
        let _ = LocationBehavior::requester([ProviderKind::Gps], 10).exfiltrate(Exfiltration::Sanitized {
            decimals: 5,
            via_sdk: false,
        });
    }

    #[test]
    #[should_panic(expected = "package name")]
    fn empty_package_panics() {
        let _ = AppBuilder::new("");
    }

    #[test]
    fn components_round_trip_through_builders() {
        let app = AppBuilder::new("com.x.y")
            .component(Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN))
            .component(Component::new(ComponentKind::Receiver, ".BootReceiver").with_action(ACTION_BOOT_COMPLETED))
            .permission(Permission::ReceiveBootCompleted)
            .location_service(true)
            .build();
        assert_eq!(app.manifest().components().len(), 3);
        assert!(app.manifest().has_location_service());
        assert!(app.manifest().has_boot_receiver());
    }

    #[test]
    fn boot_receiver_requires_both_filter_and_permission() {
        let only_component = AppBuilder::new("a.b")
            .component(Component::new(ComponentKind::Receiver, ".BootReceiver").with_action(ACTION_BOOT_COMPLETED))
            .build();
        assert!(!only_component.manifest().has_boot_receiver());
        let only_permission = AppBuilder::new("a.b").permission(Permission::ReceiveBootCompleted).build();
        assert!(!only_permission.manifest().has_boot_receiver());
    }

    #[test]
    fn location_service_toggle_is_idempotent() {
        let mut b = ManifestBuilder::new("a.b");
        b.set_location_service(true);
        b.set_location_service(true);
        let m = b.build();
        assert_eq!(m.components().len(), 1);
        let mut b = ManifestBuilder::new("a.b");
        b.set_location_service(true);
        b.set_location_service(false);
        assert!(!b.build().has_location_service());
    }

    #[test]
    fn class_path_resolves_relative_and_qualified_names() {
        let rel = Component::new(ComponentKind::Activity, ".ui.MainActivity");
        assert_eq!(rel.class_path("com.example.nav"), "com/example/nav/ui/MainActivity");
        let full = Component::new(ComponentKind::Service, "com.vendor.sdk.TrackService");
        assert_eq!(full.class_path("com.example.nav"), "com/vendor/sdk/TrackService");
    }

    #[test]
    fn display_shows_claim() {
        let app = AppBuilder::new("p.q").location_claim(LocationClaim::CoarseOnly).build();
        assert_eq!(app.to_string(), "p.q [coarse]");
    }
}
