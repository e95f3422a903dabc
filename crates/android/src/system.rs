//! The simulated device: app lifecycle, the `LocationManager`, and the
//! access log.

use crate::app::App;
use crate::energy::EnergyModel;
use crate::lifecycle::{apply, AppState, Transition};
use crate::provider::{Granularity, ProviderKind};
use backwatch_geo::{Grid, LatLon, Meters};
use backwatch_trace::{Timestamp, Trace, TracePoint};
use std::error::Error;
use std::fmt;

/// Handle to an installed app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub(crate) usize);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// One location delivery, as recorded by the device's access log —
/// the information `dumpsys` exposes and the paper's study harvests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessRecord {
    /// When the fix was delivered.
    pub time: Timestamp,
    /// Which app received it.
    pub app: AppId,
    /// Which provider produced it.
    pub provider: ProviderKind,
    /// Granularity of the delivered fix.
    pub granularity: Granularity,
    /// Whether the app was in the background at delivery time.
    pub background: bool,
    /// The delivered coordinate (already coarsened if applicable).
    pub pos: LatLon,
}

/// Where the simulated device physically is over time.
#[derive(Debug, Clone, PartialEq)]
pub enum PositionSource {
    /// The device sits still (the bench setup of the paper's lab study).
    Fixed(LatLon),
    /// The device follows a recorded trace: its position at time `t` is
    /// the last fix at or before `t` (clamped to the trace's ends).
    Trace(Trace),
}

impl PositionSource {
    /// The device position at simulation second `t`.
    ///
    /// # Panics
    ///
    /// Panics if the source is an empty trace.
    #[must_use]
    pub fn position_at(&self, t: i64) -> LatLon {
        match self {
            PositionSource::Fixed(p) => *p,
            PositionSource::Trace(trace) => {
                let pts = trace.points();
                assert!(!pts.is_empty(), "position trace must not be empty");
                let idx = pts.partition_point(|p| p.time.as_secs() <= t);
                if idx == 0 {
                    pts[0].pos
                } else {
                    pts[idx - 1].pos
                }
            }
        }
    }
}

/// Errors surfaced by [`Device`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The app handle does not refer to an installed app.
    UnknownApp(AppId),
    /// An illegal lifecycle transition was requested.
    Lifecycle(crate::lifecycle::TransitionError),
    /// The app tried to register a provider its permissions do not allow —
    /// the simulation's `SecurityException`.
    PermissionDenied {
        /// The offending app.
        app: AppId,
        /// The provider it tried to register.
        provider: ProviderKind,
    },
    /// A user interaction was directed at an app that is not on screen.
    NotInForeground(AppId),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::UnknownApp(id) => write!(f, "no installed app with handle {id}"),
            DeviceError::Lifecycle(e) => write!(f, "lifecycle violation: {e}"),
            DeviceError::PermissionDenied { app, provider } => {
                write!(f, "security exception: {app} lacks the permission for provider {provider}")
            }
            DeviceError::NotInForeground(id) => write!(f, "{id} is not in the foreground"),
        }
    }
}

impl Error for DeviceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeviceError::Lifecycle(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::lifecycle::TransitionError> for DeviceError {
    fn from(e: crate::lifecycle::TransitionError) -> Self {
        DeviceError::Lifecycle(e)
    }
}

/// A per-app delivery policy — the MockDroid/TISSA idea: the OS decides,
/// per app, whether to hand out real, degraded, fake, or no location
/// data, without the app being able to tell the difference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LocationPolicy {
    /// Deliver real fixes (default Android behavior).
    #[default]
    Allow,
    /// Degrade every delivery to coarse granularity regardless of the
    /// provider (LP-Guardian's treatment of background requesters).
    Coarsen,
    /// Deliver a fixed fake position (MockDroid's "fake data" choice).
    Fake(LatLon),
    /// Silently deliver nothing; the registration stays alive so the app
    /// cannot detect the block.
    Block,
}

#[derive(Debug, Clone)]
struct InstalledApp {
    app: App,
    state: AppState,
    /// Whether the app has registered its location listeners (auto-start
    /// apps do this at launch; others after a user interaction).
    listeners_armed: bool,
    policy: LocationPolicy,
}

#[derive(Debug, Clone)]
struct Registration {
    app: AppId,
    provider: ProviderKind,
    interval_s: i64,
    next_due: i64,
    /// Sequence number of the last cache entry delivered (passive only).
    last_cache_seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct CachedFix {
    pos: LatLon,
    granularity: Granularity,
    time: i64,
    seq: u64,
}

/// Cell size used to degrade fine positions into coarse fixes, matching the
/// few-hundred-meter precision of cell/wifi positioning.
const COARSE_CELL_M: Meters = Meters::new(300.0);

/// The simulated Android device.
///
/// See the [crate docs](crate) for a walkthrough. All time is integer
/// seconds from an arbitrary zero; [`Device::advance`] moves the clock.
#[derive(Debug, Clone)]
pub struct Device {
    apps: Vec<InstalledApp>,
    registrations: Vec<Registration>,
    clock: i64,
    position: PositionSource,
    cache: Option<CachedFix>,
    log: Vec<AccessRecord>,
    coarse_grid: Grid,
    foreground: Option<AppId>,
    energy_model: EnergyModel,
    energy: Vec<f64>,
    indicator_fg_secs: i64,
    indicator_bg_secs: i64,
}

impl Default for Device {
    fn default() -> Self {
        Self::new()
    }
}

impl Device {
    /// A stationary device parked at the paper's lab (college of W&M,
    /// Williamsburg VA).
    #[must_use]
    pub fn new() -> Self {
        Self::with_position(PositionSource::Fixed(
            LatLon::new(37.2707, -76.7075).expect("campus is a valid coordinate"),
        ))
    }

    /// A device that follows the given position source.
    #[must_use]
    pub fn with_position(position: PositionSource) -> Self {
        let anchor = position.position_at(0);
        Self {
            apps: Vec::new(),
            registrations: Vec::new(),
            clock: 0,
            position,
            cache: None,
            log: Vec::new(),
            coarse_grid: Grid::new(anchor, COARSE_CELL_M),
            foreground: None,
            energy_model: EnergyModel::default(),
            energy: Vec::new(),
            indicator_fg_secs: 0,
            indicator_bg_secs: 0,
        }
    }

    /// Replaces the per-fix energy model.
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`EnergyModel::validate`].
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        model.validate();
        self.energy_model = model;
    }

    /// Energy charged to an app so far, in the model's units.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownApp`] for stale handles.
    pub fn energy_used(&self, id: AppId) -> Result<f64, DeviceError> {
        self.energy.get(id.0).copied().ok_or(DeviceError::UnknownApp(id))
    }

    /// Total energy spent on location across all apps.
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.energy.iter().sum()
    }

    /// Seconds the status-bar location indicator has been lit, split into
    /// `(attributable to the foreground app, background-only)`.
    ///
    /// The paper's observation that "users may mistake that the location
    /// access from a background app is from the foreground app" is
    /// exactly the first bucket absorbing the second: whenever a
    /// foreground app also uses location, the user has no way to tell a
    /// background listener is live too.
    #[must_use]
    pub fn indicator_seconds(&self) -> (i64, i64) {
        (self.indicator_fg_secs, self.indicator_bg_secs)
    }

    /// The current simulation time in seconds.
    #[must_use]
    pub fn now(&self) -> i64 {
        self.clock
    }

    /// Sets the clock without ticking (useful to align the device with a
    /// trace that starts late).
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the current clock.
    pub fn set_clock(&mut self, t: i64) {
        assert!(t >= self.clock, "clock cannot move backwards ({t} < {})", self.clock);
        self.clock = t;
    }

    /// Installs an app, returning its handle.
    pub fn install(&mut self, app: App) -> AppId {
        self.apps.push(InstalledApp {
            app,
            state: AppState::Stopped,
            listeners_armed: false,
            policy: LocationPolicy::Allow,
        });
        self.energy.push(0.0);
        AppId(self.apps.len() - 1)
    }

    /// Sets the delivery policy for one app (user-side defense à la
    /// MockDroid/TISSA). Takes effect from the next delivery.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownApp`] for stale handles.
    pub fn set_location_policy(&mut self, id: AppId, policy: LocationPolicy) -> Result<(), DeviceError> {
        let installed = self.apps.get_mut(id.0).ok_or(DeviceError::UnknownApp(id))?;
        installed.policy = policy;
        Ok(())
    }

    /// The delivery policy currently applied to an app.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownApp`] for stale handles.
    pub fn location_policy(&self, id: AppId) -> Result<LocationPolicy, DeviceError> {
        self.apps.get(id.0).map(|ia| ia.policy).ok_or(DeviceError::UnknownApp(id))
    }

    /// Number of installed apps.
    #[must_use]
    pub fn installed_count(&self) -> usize {
        self.apps.len()
    }

    /// The app behind a handle.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownApp`] for stale handles.
    pub fn app(&self, id: AppId) -> Result<&App, DeviceError> {
        self.apps.get(id.0).map(|ia| &ia.app).ok_or(DeviceError::UnknownApp(id))
    }

    /// The lifecycle state of an app.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownApp`] for stale handles.
    pub fn state(&self, id: AppId) -> Result<AppState, DeviceError> {
        self.apps.get(id.0).map(|ia| ia.state).ok_or(DeviceError::UnknownApp(id))
    }

    /// Launches an app to the foreground. Any app currently in the
    /// foreground is moved to the background first (only one activity is
    /// on top of the screen).
    ///
    /// Auto-start apps register their location listeners immediately; this
    /// is where permission enforcement bites.
    ///
    /// # Errors
    ///
    /// - [`DeviceError::UnknownApp`] for stale handles.
    /// - [`DeviceError::Lifecycle`] if the app is already running.
    /// - [`DeviceError::PermissionDenied`] if an auto-start app registers a
    ///   provider its permissions do not allow; the app is left stopped
    ///   (the real app would have crashed on its `SecurityException`).
    pub fn launch(&mut self, id: AppId) -> Result<(), DeviceError> {
        let state = self.state(id)?;
        let new_state = apply(state, Transition::Launch)?;
        if let Some(fg) = self.foreground {
            if fg != id {
                self.demote_to_background(fg);
            }
        }
        self.apps[id.0].state = new_state;
        self.foreground = Some(id);
        let auto = self.apps[id.0].app.behavior().is_auto_start();
        if auto {
            if let Err(e) = self.arm_listeners(id) {
                // the app crashes: back to stopped, nothing registered
                self.apps[id.0].state = AppState::Stopped;
                self.foreground = None;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Simulates the user interacting with the foreground app in a way
    /// that makes it request location (tapping "find me", etc.). This is
    /// how the paper's authors triggered the 135 apps that do not
    /// auto-start.
    ///
    /// # Errors
    ///
    /// - [`DeviceError::UnknownApp`] for stale handles.
    /// - [`DeviceError::NotInForeground`] if the app is not on screen.
    /// - [`DeviceError::PermissionDenied`] on a disallowed registration.
    pub fn trigger_location_use(&mut self, id: AppId) -> Result<(), DeviceError> {
        if self.state(id)? != AppState::Foreground {
            return Err(DeviceError::NotInForeground(id));
        }
        self.arm_listeners(id)
    }

    /// Sends an app to the background (home button). If the app does not
    /// poll location in the background its listeners are unregistered, as
    /// foreground-only apps stop receiving updates off screen; otherwise
    /// the listeners are rescheduled at the app's background interval.
    ///
    /// # Errors
    ///
    /// - [`DeviceError::UnknownApp`] for stale handles.
    /// - [`DeviceError::Lifecycle`] if the app is not in the foreground.
    pub fn move_to_background(&mut self, id: AppId) -> Result<(), DeviceError> {
        let state = self.state(id)?;
        let new_state = apply(state, Transition::ToBackground)?;
        self.apps[id.0].state = new_state;
        if self.foreground == Some(id) {
            self.foreground = None;
        }
        let behavior = self.apps[id.0].app.behavior().clone();
        if let Some(bg_interval) = behavior.background_interval_s() {
            for reg in self.registrations.iter_mut().filter(|r| r.app == id) {
                reg.interval_s = bg_interval;
                reg.next_due = reg.next_due.min(self.clock + bg_interval);
            }
        } else {
            self.registrations.retain(|r| r.app != id);
        }
        Ok(())
    }

    /// Brings a background app back on screen, restoring its foreground
    /// update interval.
    ///
    /// # Errors
    ///
    /// - [`DeviceError::UnknownApp`] for stale handles.
    /// - [`DeviceError::Lifecycle`] if the app is not in the background.
    pub fn bring_to_foreground(&mut self, id: AppId) -> Result<(), DeviceError> {
        let state = self.state(id)?;
        let new_state = apply(state, Transition::ToForeground)?;
        if let Some(fg) = self.foreground {
            if fg != id {
                self.demote_to_background(fg);
            }
        }
        self.apps[id.0].state = new_state;
        self.foreground = Some(id);
        let fg_interval = self.apps[id.0].app.behavior().foreground_interval_s();
        if fg_interval > 0 {
            for reg in self.registrations.iter_mut().filter(|r| r.app == id) {
                reg.interval_s = fg_interval;
            }
        }
        // a previously foreground-only app that lost its listeners when
        // backgrounded re-arms them on return
        if self.apps[id.0].listeners_armed && !self.registrations.iter().any(|r| r.app == id) {
            self.apps[id.0].listeners_armed = false;
            self.arm_listeners(id)?;
        }
        Ok(())
    }

    /// Stops (kills) an app, removing all its registrations.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownApp`] for stale handles.
    pub fn stop(&mut self, id: AppId) -> Result<(), DeviceError> {
        let state = self.state(id)?;
        let new_state = apply(state, Transition::Stop).expect("stop is always legal");
        self.apps[id.0].state = new_state;
        self.apps[id.0].listeners_armed = false;
        if self.foreground == Some(id) {
            self.foreground = None;
        }
        self.registrations.retain(|r| r.app != id);
        Ok(())
    }

    fn demote_to_background(&mut self, id: AppId) {
        // Internal helper: the checked path is move_to_background; this is
        // invoked when another launch displaces the foreground app.
        let _ = self.move_to_background(id);
    }

    fn arm_listeners(&mut self, id: AppId) -> Result<(), DeviceError> {
        let installed = &self.apps[id.0];
        if installed.listeners_armed {
            return Ok(());
        }
        let behavior = installed.app.behavior().clone();
        if !behavior.requests_location() {
            return Ok(());
        }
        let claim = installed.app.manifest().location_claim();
        // Validate first so registration is atomic.
        for &p in behavior.providers() {
            if !p.permitted_for(claim) {
                return Err(DeviceError::PermissionDenied { app: id, provider: p });
            }
        }
        let interval = behavior.foreground_interval_s().max(1);
        for &p in behavior.providers() {
            self.registrations.push(Registration {
                app: id,
                provider: p,
                interval_s: interval,
                next_due: self.clock,
                last_cache_seq: 0,
            });
        }
        self.apps[id.0].listeners_armed = true;
        Ok(())
    }

    /// Advances simulated time by `secs`, delivering due location updates.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative.
    pub fn advance(&mut self, secs: i64) {
        assert!(secs >= 0, "cannot advance by negative time");
        let end = self.clock + secs;
        while self.clock < end {
            self.clock += 1;
            self.tick();
        }
    }

    fn tick(&mut self) {
        let t = self.clock;
        let true_pos = self.position.position_at(t);
        // Status-bar indicator accounting: the icon is lit while any
        // running app holds an active-provider registration. If the
        // foreground app is among the holders, the user attributes the
        // icon to it — even when background listeners are live too.
        let mut fg_holds = false;
        let mut bg_holds = false;
        for reg in &self.registrations {
            if !reg.provider.is_active() {
                continue;
            }
            match self.apps[reg.app.0].state {
                AppState::Foreground => fg_holds = true,
                AppState::Background => bg_holds = true,
                AppState::Stopped => {}
            }
        }
        if fg_holds {
            self.indicator_fg_secs += 1;
        } else if bg_holds {
            self.indicator_bg_secs += 1;
        }
        // Active providers produce fixes and refresh the cache.
        let mut produced: Vec<(usize, LatLon, Granularity, ProviderKind)> = Vec::new();
        for (i, reg) in self.registrations.iter().enumerate() {
            if !reg.provider.is_active() || t < reg.next_due {
                continue;
            }
            if !self.apps[reg.app.0].state.is_running() {
                continue;
            }
            let claim = self.apps[reg.app.0].app.manifest().location_claim();
            let gran = reg
                .provider
                .fix_granularity(claim)
                .expect("active providers have inherent granularity");
            let pos = match gran {
                Granularity::Fine => true_pos,
                Granularity::Coarse => self.coarse_grid.snap(true_pos),
            };
            produced.push((i, pos, gran, reg.provider));
        }
        for (i, pos, gran, provider) in produced {
            let reg = &mut self.registrations[i];
            reg.next_due = t + reg.interval_s;
            let app = reg.app;
            self.energy[app.0] += self.energy_model.cost_of(provider);
            // The platform computed a real fix: the cache always holds it
            // (other apps piggyback reality even when this app is fed
            // fakes).
            let seq = self.cache.map_or(0, |c| c.seq) + 1;
            self.cache = Some(CachedFix {
                pos,
                granularity: gran,
                time: t,
                seq,
            });
            // The per-app delivery policy decides what the app sees.
            let Some((pos, gran)) = self.apply_policy(app, pos, gran) else {
                continue;
            };
            let background = self.apps[app.0].state == AppState::Background;
            self.log.push(AccessRecord {
                time: Timestamp::from_secs(t),
                app,
                provider,
                granularity: gran,
                background,
                pos,
            });
        }
        // Passive listeners piggyback on fresh cache entries.
        if let Some(cache) = self.cache {
            let mut deliveries: Vec<(usize, AccessRecord)> = Vec::new();
            for (i, reg) in self.registrations.iter().enumerate() {
                if reg.provider != ProviderKind::Passive || t < reg.next_due || cache.seq <= reg.last_cache_seq {
                    continue;
                }
                if !self.apps[reg.app.0].state.is_running() {
                    continue;
                }
                let claim = self.apps[reg.app.0].app.manifest().location_claim();
                // Coarse-only apps receive a degraded copy of a fine cache.
                let (pos, gran) = if cache.granularity == Granularity::Fine && !claim.allows_fine() {
                    (self.coarse_grid.snap(cache.pos), Granularity::Coarse)
                } else {
                    (cache.pos, cache.granularity)
                };
                let background = self.apps[reg.app.0].state == AppState::Background;
                deliveries.push((
                    i,
                    AccessRecord {
                        time: Timestamp::from_secs(t),
                        app: reg.app,
                        provider: ProviderKind::Passive,
                        granularity: gran,
                        background,
                        pos,
                    },
                ));
            }
            for (i, mut record) in deliveries {
                let reg = &mut self.registrations[i];
                reg.next_due = t + reg.interval_s;
                reg.last_cache_seq = cache.seq;
                self.energy[record.app.0] += self.energy_model.cost_of(ProviderKind::Passive);
                let Some((pos, gran)) = self.apply_policy(record.app, record.pos, record.granularity) else {
                    continue;
                };
                record.pos = pos;
                record.granularity = gran;
                self.log.push(record);
            }
        }
    }

    /// Applies the app's delivery policy to a fix; `None` means nothing
    /// is delivered.
    fn apply_policy(&self, app: AppId, pos: LatLon, gran: Granularity) -> Option<(LatLon, Granularity)> {
        match self.apps[app.0].policy {
            LocationPolicy::Allow => Some((pos, gran)),
            LocationPolicy::Coarsen => Some((self.coarse_grid.snap(pos), Granularity::Coarse)),
            LocationPolicy::Fake(fake) => Some((fake, gran)),
            LocationPolicy::Block => None,
        }
    }

    /// Every location delivery so far, in time order.
    #[must_use]
    pub fn access_log(&self) -> &[AccessRecord] {
        &self.log
    }

    /// Drops the access log (the registrations stay).
    pub fn clear_access_log(&mut self) {
        self.log.clear();
    }

    /// The trace of fixes delivered to one app — what that app's backend
    /// has learned about the user.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownApp`] for stale handles.
    pub fn collected_trace(&self, id: AppId) -> Result<Trace, DeviceError> {
        if id.0 >= self.apps.len() {
            return Err(DeviceError::UnknownApp(id));
        }
        Ok(self
            .log
            .iter()
            .filter(|r| r.app == id)
            .map(|r| TracePoint::new(r.time, r.pos))
            .collect())
    }

    /// Snapshot of the live listener registrations, for `dumpsys`.
    #[must_use]
    pub(crate) fn registrations_snapshot(&self) -> Vec<(String, ProviderKind, i64, AppState)> {
        self.registrations
            .iter()
            .map(|r| {
                (
                    self.apps[r.app.0].app.manifest().package().to_owned(),
                    r.provider,
                    r.interval_s,
                    self.apps[r.app.0].state,
                )
            })
            .collect()
    }

    /// The last cached fix, if any: `(position, granularity, age_secs)`.
    #[must_use]
    pub fn last_known_location(&self) -> Option<(LatLon, Granularity, i64)> {
        self.cache.map(|c| (c.pos, c.granularity, self.clock - c.time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, LocationBehavior};
    use crate::permission::{LocationClaim, Permission};

    fn gps_app(package: &str, fg: i64, bg: Option<i64>) -> App {
        let mut b = LocationBehavior::requester([ProviderKind::Gps], fg).auto_start(true);
        if let Some(i) = bg {
            b = b.background_interval(i);
        }
        AppBuilder::new(package)
            .permission(Permission::AccessFineLocation)
            .behavior(b)
            .build()
    }

    #[test]
    fn foreground_app_receives_updates_at_interval() {
        let mut d = Device::new();
        let id = d.install(gps_app("com.a", 5, None));
        d.launch(id).unwrap();
        d.advance(20);
        let n = d.access_log().iter().filter(|r| r.app == id).count();
        assert_eq!(n, 4, "expected fixes at t=1,6,11,16");
        assert!(d.access_log().iter().all(|r| !r.background));
    }

    #[test]
    fn foreground_only_app_goes_silent_in_background() {
        let mut d = Device::new();
        let id = d.install(gps_app("com.a", 5, None));
        d.launch(id).unwrap();
        d.advance(10);
        let before = d.access_log().len();
        d.move_to_background(id).unwrap();
        d.advance(60);
        assert_eq!(d.access_log().len(), before, "no updates after backgrounding");
    }

    #[test]
    fn background_app_keeps_polling_at_bg_interval() {
        let mut d = Device::new();
        let id = d.install(gps_app("com.a", 1, Some(10)));
        d.launch(id).unwrap();
        d.move_to_background(id).unwrap();
        d.advance(100);
        let bg: Vec<_> = d.access_log().iter().filter(|r| r.background).collect();
        assert!((9..=11).contains(&bg.len()), "got {} bg fixes", bg.len());
        // spacing respects the background interval
        for w in bg.windows(2) {
            assert!(w[1].time - w[0].time >= 10);
        }
    }

    #[test]
    fn permission_denied_for_gps_without_fine() {
        let mut d = Device::new();
        let app = AppBuilder::new("com.bad")
            .permission(Permission::AccessCoarseLocation)
            .behavior(LocationBehavior::requester([ProviderKind::Gps], 5).auto_start(true))
            .build();
        let id = d.install(app);
        let err = d.launch(id).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::PermissionDenied {
                provider: ProviderKind::Gps,
                ..
            }
        ));
        assert_eq!(d.state(id).unwrap(), AppState::Stopped);
        d.advance(30);
        assert!(d.access_log().is_empty());
    }

    #[test]
    fn network_provider_delivers_coarse_fixes() {
        let mut d = Device::new();
        let app = AppBuilder::new("com.coarse")
            .location_claim(LocationClaim::CoarseOnly)
            .behavior(LocationBehavior::requester([ProviderKind::Network], 5).auto_start(true))
            .build();
        let id = d.install(app);
        d.launch(id).unwrap();
        d.advance(10);
        assert!(!d.access_log().is_empty());
        assert!(d.access_log().iter().all(|r| r.granularity == Granularity::Coarse));
    }

    #[test]
    fn passive_app_piggybacks_on_active_app() {
        let mut d = Device::new();
        let active = d.install(gps_app("com.active", 5, Some(5)));
        let passive_app = AppBuilder::new("com.passive")
            .location_claim(LocationClaim::FineAndCoarse)
            .behavior(
                LocationBehavior::requester([ProviderKind::Passive], 1)
                    .auto_start(true)
                    .background_interval(1),
            )
            .build();
        let passive = d.install(passive_app);
        d.launch(passive).unwrap();
        d.advance(30);
        // nothing active yet: passive alone receives nothing
        assert!(d.collected_trace(passive).unwrap().is_empty());
        d.launch(active).unwrap(); // passive app is displaced to background
        d.advance(30);
        let got = d.collected_trace(passive).unwrap();
        assert!(!got.is_empty(), "passive app should piggyback on gps fixes");
        // and the deliveries happened in background
        assert!(d
            .access_log()
            .iter()
            .filter(|r| r.app == passive && r.time.as_secs() > 30)
            .all(|r| r.background));
    }

    #[test]
    fn passive_fix_degraded_for_coarse_only_app() {
        let mut d = Device::new();
        // active app keeps polling gps in background
        let active = d.install(gps_app("com.active", 5, Some(5)));
        let passive_app = AppBuilder::new("com.passive")
            .location_claim(LocationClaim::CoarseOnly)
            .behavior(LocationBehavior::requester([ProviderKind::Passive], 1).auto_start(true))
            .build();
        let passive = d.install(passive_app);
        d.launch(active).unwrap();
        d.advance(3);
        // passive app comes to the foreground; active is displaced to
        // background but keeps producing fine fixes for the cache
        d.launch(passive).unwrap();
        d.advance(20);
        let deliveries: Vec<_> = d.access_log().iter().filter(|r| r.app == passive).collect();
        assert!(!deliveries.is_empty());
        assert!(deliveries.iter().all(|r| r.granularity == Granularity::Coarse));
    }

    #[test]
    fn launching_second_app_backgrounds_first() {
        let mut d = Device::new();
        let a = d.install(gps_app("com.a", 5, Some(10)));
        let b = d.install(gps_app("com.b", 5, None));
        d.launch(a).unwrap();
        d.launch(b).unwrap();
        assert_eq!(d.state(a).unwrap(), AppState::Background);
        assert_eq!(d.state(b).unwrap(), AppState::Foreground);
    }

    #[test]
    fn trigger_requires_foreground() {
        let mut d = Device::new();
        let app = AppBuilder::new("com.manual")
            .location_claim(LocationClaim::FineAndCoarse)
            .behavior(LocationBehavior::requester([ProviderKind::Gps], 5))
            .build();
        let id = d.install(app);
        assert!(matches!(d.trigger_location_use(id), Err(DeviceError::NotInForeground(_))));
        d.launch(id).unwrap();
        d.advance(10);
        assert!(d.access_log().is_empty(), "non-auto-start app is silent until triggered");
        d.trigger_location_use(id).unwrap();
        d.advance(10);
        assert!(!d.access_log().is_empty());
    }

    #[test]
    fn stop_removes_registrations() {
        let mut d = Device::new();
        let id = d.install(gps_app("com.a", 1, Some(1)));
        d.launch(id).unwrap();
        d.move_to_background(id).unwrap();
        d.advance(5);
        let n = d.access_log().len();
        assert!(n > 0);
        d.stop(id).unwrap();
        d.advance(20);
        assert_eq!(d.access_log().len(), n);
    }

    #[test]
    fn collected_trace_follows_device_movement() {
        use backwatch_trace::sampling;
        // Device rides a straight-line trace; the bg app's collected trace
        // is the downsampled version of it.
        let pts: Vec<TracePoint> = (0..200)
            .map(|i| {
                TracePoint::new(
                    Timestamp::from_secs(i),
                    LatLon::new(39.9 + f64::from(i as u32) * 1e-5, 116.4).unwrap(),
                )
            })
            .collect();
        let route = Trace::from_points(pts);
        let mut d = Device::with_position(PositionSource::Trace(route.clone()));
        let id = d.install(gps_app("com.stalker", 1, Some(20)));
        d.launch(id).unwrap();
        d.move_to_background(id).unwrap();
        d.advance(200);
        let got = d.collected_trace(id).unwrap();
        assert!(got.len() >= 9, "expected ~10 fixes, got {}", got.len());
        // every collected fix sits on the route (no coarsening for gps)
        let sampled = sampling::downsample(&route, backwatch_geo::Seconds::new(20));
        assert!(got.len() <= sampled.len() + 1);
    }

    #[test]
    fn unknown_app_handle_errors() {
        let d = Device::new();
        assert!(matches!(d.app(AppId(3)), Err(DeviceError::UnknownApp(_))));
        assert!(d.collected_trace(AppId(0)).is_err());
    }

    #[test]
    fn fake_policy_feeds_the_decoy_position() {
        let mut d = Device::new();
        let id = d.install(gps_app("com.spy", 1, Some(5)));
        let decoy = LatLon::new(40.0, 117.0).unwrap();
        d.set_location_policy(id, LocationPolicy::Fake(decoy)).unwrap();
        assert_eq!(d.location_policy(id).unwrap(), LocationPolicy::Fake(decoy));
        d.launch(id).unwrap();
        d.move_to_background(id).unwrap();
        d.advance(30);
        let collected = d.collected_trace(id).unwrap();
        assert!(!collected.is_empty());
        assert!(collected.iter().all(|p| p.pos == decoy));
        // the system cache still holds the real position for other apps
        let (real, _, _) = d.last_known_location().unwrap();
        assert_ne!(real, decoy);
    }

    #[test]
    fn coarsen_policy_degrades_gps_fixes() {
        let mut d = Device::new();
        let id = d.install(gps_app("com.spy", 1, None));
        d.set_location_policy(id, LocationPolicy::Coarsen).unwrap();
        d.launch(id).unwrap();
        d.advance(10);
        assert!(!d.access_log().is_empty());
        assert!(d
            .access_log()
            .iter()
            .filter(|r| r.app == id)
            .all(|r| r.granularity == Granularity::Coarse));
    }

    #[test]
    fn block_policy_delivers_nothing_but_keeps_the_listener() {
        let mut d = Device::new();
        let id = d.install(gps_app("com.spy", 1, Some(1)));
        d.set_location_policy(id, LocationPolicy::Block).unwrap();
        d.launch(id).unwrap();
        d.move_to_background(id).unwrap();
        d.advance(30);
        assert!(d.collected_trace(id).unwrap().is_empty());
        // the registration survives: dumpsys still shows the listener, so
        // the app cannot detect the block
        let report = crate::dumpsys::render(&d);
        assert!(report.contains("com.spy"));
        // and the policy can be lifted at runtime
        d.set_location_policy(id, LocationPolicy::Allow).unwrap();
        d.advance(10);
        assert!(!d.collected_trace(id).unwrap().is_empty());
    }

    #[test]
    fn policy_on_unknown_app_errors() {
        let mut d = Device::new();
        assert!(d.set_location_policy(AppId(9), LocationPolicy::Block).is_err());
        assert!(d.location_policy(AppId(9)).is_err());
    }

    #[test]
    fn energy_is_charged_per_fix() {
        let mut d = Device::new();
        let id = d.install(gps_app("com.a", 5, None));
        d.launch(id).unwrap();
        d.advance(20); // 4 gps fixes at default cost 1.0
        assert!((d.energy_used(id).unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(d.total_energy(), d.energy_used(id).unwrap());
    }

    #[test]
    fn gps_costs_more_than_network() {
        let mut d = Device::new();
        let gps = d.install(gps_app("com.gps", 5, None));
        let net = d.install(
            AppBuilder::new("com.net")
                .location_claim(LocationClaim::FineAndCoarse)
                .behavior(
                    LocationBehavior::requester([ProviderKind::Network], 5)
                        .auto_start(true)
                        .background_interval(5),
                )
                .build(),
        );
        d.launch(net).unwrap();
        d.launch(gps).unwrap(); // net goes to background, keeps polling
        d.advance(60);
        let e_gps = d.energy_used(gps).unwrap();
        let e_net = d.energy_used(net).unwrap();
        assert!(e_gps > e_net, "gps {e_gps} vs network {e_net}");
        assert!(e_net > 0.0);
    }

    #[test]
    fn passive_deliveries_are_free_by_default() {
        let mut d = Device::new();
        let active = d.install(gps_app("com.active", 5, Some(5)));
        let passive = d.install(
            AppBuilder::new("com.passive")
                .location_claim(LocationClaim::FineAndCoarse)
                .behavior(
                    LocationBehavior::requester([ProviderKind::Passive], 1)
                        .auto_start(true)
                        .background_interval(1),
                )
                .build(),
        );
        d.launch(passive).unwrap();
        d.launch(active).unwrap();
        d.advance(60);
        assert!(!d.collected_trace(passive).unwrap().is_empty());
        assert_eq!(d.energy_used(passive).unwrap(), 0.0);
    }

    #[test]
    fn indicator_attributes_background_access_to_foreground_app() {
        let mut d = Device::new();
        // a background poller
        let bg = d.install(gps_app("com.bg", 1, Some(10)));
        d.launch(bg).unwrap();
        d.move_to_background(bg).unwrap();
        d.advance(50);
        let (fg1, bg1) = d.indicator_seconds();
        assert_eq!(fg1, 0);
        assert_eq!(bg1, 50, "bg-only access lights the icon in the bg bucket");
        // now a foreground app also uses location: the user will blame it
        let fg_app = d.install(gps_app("com.fg", 1, None));
        d.launch(fg_app).unwrap();
        d.advance(50);
        let (fg2, bg2) = d.indicator_seconds();
        assert_eq!(fg2, 50, "icon now reads as the foreground app's");
        assert_eq!(bg2, bg1, "the background poller hides behind it");
    }

    #[test]
    fn custom_energy_model_is_honored() {
        use crate::energy::EnergyModel;
        let mut d = Device::new();
        d.set_energy_model(EnergyModel {
            gps: 10.0,
            ..EnergyModel::default()
        });
        let id = d.install(gps_app("com.a", 5, None));
        d.launch(id).unwrap();
        d.advance(10); // 2 fixes
        assert!((d.energy_used(id).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn last_known_location_tracks_cache() {
        let mut d = Device::new();
        assert!(d.last_known_location().is_none());
        let id = d.install(gps_app("com.a", 5, None));
        d.launch(id).unwrap();
        d.advance(6);
        let (_, gran, age) = d.last_known_location().unwrap();
        assert_eq!(gran, Granularity::Fine);
        assert!(age <= 5);
    }
}
