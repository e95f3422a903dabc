//! App lifecycle states on the simulated device.

use std::fmt;

/// Where an installed app currently lives.
///
/// Only one app is in the foreground at a time (Android runs one activity
/// on top of the screen); the device enforces that invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AppState {
    /// Installed but not running.
    #[default]
    Stopped,
    /// Running with its activity on top of the screen.
    Foreground,
    /// Moved off-screen but still cached and able to run listeners and
    /// services.
    Background,
}

impl AppState {
    /// Whether the app's process is alive (listeners can fire).
    #[must_use]
    pub fn is_running(&self) -> bool {
        !matches!(self, AppState::Stopped)
    }
}

impl fmt::Display for AppState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AppState::Stopped => "stopped",
            AppState::Foreground => "foreground",
            AppState::Background => "background",
        })
    }
}

/// A lifecycle transition request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transition {
    /// Start the app and bring it to the foreground.
    Launch,
    /// Send the app to the background (home button / app switch).
    ToBackground,
    /// Bring a background app back on screen.
    ToForeground,
    /// Kill the app.
    Stop,
}

/// Error for an invalid lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// The state the app was in.
    pub from: AppState,
    /// The transition that was requested.
    pub requested: Transition,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot apply {:?} to an app in state {}", self.requested, self.from)
    }
}

impl std::error::Error for TransitionError {}

/// Applies a transition, returning the new state.
///
/// # Errors
///
/// Returns [`TransitionError`] for transitions that make no sense from the
/// current state (launching a running app, backgrounding a stopped one,
/// and so on). Stopping is always allowed.
pub fn apply(state: AppState, transition: Transition) -> Result<AppState, TransitionError> {
    use AppState::{Background, Foreground, Stopped};
    use Transition::{Launch, Stop, ToBackground, ToForeground};
    match (state, transition) {
        (Stopped, Launch) => Ok(Foreground),
        (Foreground, ToBackground) => Ok(Background),
        (Background, ToForeground) => Ok(Foreground),
        (_, Stop) => Ok(Stopped),
        (from, requested) => Err(TransitionError { from, requested }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_cycle() {
        let s = apply(AppState::Stopped, Transition::Launch).unwrap();
        assert_eq!(s, AppState::Foreground);
        let s = apply(s, Transition::ToBackground).unwrap();
        assert_eq!(s, AppState::Background);
        let s = apply(s, Transition::ToForeground).unwrap();
        assert_eq!(s, AppState::Foreground);
        let s = apply(s, Transition::Stop).unwrap();
        assert_eq!(s, AppState::Stopped);
    }

    #[test]
    fn stop_is_always_legal() {
        for s in [AppState::Stopped, AppState::Foreground, AppState::Background] {
            assert_eq!(apply(s, Transition::Stop).unwrap(), AppState::Stopped);
        }
    }

    #[test]
    fn invalid_transitions_error() {
        assert!(apply(AppState::Foreground, Transition::Launch).is_err());
        assert!(apply(AppState::Stopped, Transition::ToBackground).is_err());
        assert!(apply(AppState::Stopped, Transition::ToForeground).is_err());
        assert!(apply(AppState::Background, Transition::ToBackground).is_err());
    }

    #[test]
    fn running_covers_fg_and_bg() {
        assert!(AppState::Foreground.is_running());
        assert!(AppState::Background.is_running());
        assert!(!AppState::Stopped.is_running());
    }

    #[test]
    fn error_message_is_descriptive() {
        let e = apply(AppState::Stopped, Transition::ToBackground).unwrap_err();
        assert!(e.to_string().contains("stopped"));
    }
}
