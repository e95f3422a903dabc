//! A `dumpsys location`-style diagnostic report and its parser.
//!
//! The paper's dynamic analysis never reads app internals: it runs the app
//! and inspects the textual output of `adb shell dumpsys location`, which
//! lists each live listener registration with its provider and requested
//! interval. We reproduce that information channel faithfully — the market
//! crate *renders* the device state to text and *parses* it back, so the
//! measurement pipeline inherits the same observability limits the authors
//! had.

use crate::lifecycle::AppState;
use crate::provider::ProviderKind;
use crate::system::Device;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// One parsed listener line from a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListenerEntry {
    /// Package name of the registered app.
    pub package: String,
    /// Provider the listener is bound to.
    pub provider: ProviderKind,
    /// Requested update interval in seconds.
    pub interval_s: i64,
    /// Whether the app was in the background when the report was taken.
    pub background: bool,
}

/// Renders the device's location-manager state in a `dumpsys`-like layout.
///
/// # Examples
///
/// ```
/// use backwatch_android::{app::{AppBuilder, LocationBehavior}, dumpsys, system::Device};
/// use backwatch_android::permission::Permission;
/// use backwatch_android::provider::ProviderKind;
///
/// let mut d = Device::new();
/// let id = d.install(
///     AppBuilder::new("com.example.nav")
///         .permission(Permission::AccessFineLocation)
///         .behavior(LocationBehavior::requester([ProviderKind::Gps], 5).auto_start(true))
///         .build(),
/// );
/// d.launch(id)?;
/// let report = dumpsys::render(&d);
/// assert!(report.contains("com.example.nav"));
/// assert!(report.contains("Request[gps interval=5s]"));
/// # Ok::<(), backwatch_android::system::DeviceError>(())
/// ```
#[must_use]
pub fn render(device: &Device) -> String {
    crate::obs::register();
    crate::obs::DUMPSYS_RENDERS.inc();
    let mut out = String::new();
    out.push_str("Current Location Manager state:\n");
    out.push_str(&format!("  time={}s\n", device.now()));
    out.push_str("  Location Listeners:\n");
    let mut lines: u64 = 0;
    for (package, provider, interval, state) in device.registrations_snapshot() {
        let tag = match state {
            AppState::Background => " (background)",
            AppState::Foreground => " (foreground)",
            AppState::Stopped => " (stopped)",
        };
        out.push_str(&format!(
            "    Receiver[{package} Request[{provider} interval={interval}s]]{tag}\n"
        ));
        lines += 1;
    }
    crate::obs::DUMPSYS_LINES_RENDERED.add(lines);
    out.push_str("  Last Known Locations:\n");
    if let Some((pos, gran, age)) = device.last_known_location() {
        out.push_str(&format!(
            "    {:.6},{:.6} granularity={gran} age={age}s\n",
            pos.lat(),
            pos.lon()
        ));
    } else {
        out.push_str("    (none)\n");
    }
    out
}

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDumpsysError {
    line: usize,
    reason: String,
}

impl fmt::Display for ParseDumpsysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed dumpsys report at line {}: {}", self.line, self.reason)
    }
}

impl Error for ParseDumpsysError {}

/// Parses the listener entries out of a report produced by [`render`].
///
/// The app-state tag is parsed *strictly*: only `(background)`,
/// `(foreground)`, and `(stopped)` — exactly as [`render`] writes them —
/// are accepted, and only the first maps to `background = true`. Anything
/// else is a parse error, not a silent foreground: a study built on this
/// channel must not misfile listeners it cannot classify.
///
/// # Errors
///
/// Returns [`ParseDumpsysError`] if a `Receiver[...]` line does not match
/// the expected grammar, including an unknown or missing app-state tag.
/// Unknown lines outside the listener section are ignored, mirroring how
/// the study's scripts grepped real `dumpsys` output.
pub fn parse(report: &str) -> Result<Vec<ListenerEntry>, ParseDumpsysError> {
    crate::obs::register();
    let res = parse_inner(report);
    match &res {
        Ok(entries) => crate::obs::DUMPSYS_ENTRIES_PARSED.add(entries.len() as u64),
        Err(_) => crate::obs::DUMPSYS_PARSE_ERRORS.inc(),
    }
    res
}

fn parse_inner(report: &str) -> Result<Vec<ListenerEntry>, ParseDumpsysError> {
    let mut out = Vec::new();
    for (i, line) in report.lines().enumerate() {
        let trimmed = line.trim();
        let Some(rest) = trimmed.strip_prefix("Receiver[") else {
            continue;
        };
        let err = |reason: &str| ParseDumpsysError {
            line: i + 1,
            reason: reason.to_owned(),
        };
        // grammar: Receiver[<pkg> Request[<provider> interval=<n>s]] (<state>)
        let (package, rest) = rest.split_once(' ').ok_or_else(|| err("missing package separator"))?;
        let rest = rest.strip_prefix("Request[").ok_or_else(|| err("missing Request["))?;
        let (provider_str, rest) = rest.split_once(' ').ok_or_else(|| err("missing provider separator"))?;
        let provider = ProviderKind::from_str(provider_str).map_err(|e| err(&e.to_string()))?;
        let rest = rest.strip_prefix("interval=").ok_or_else(|| err("missing interval"))?;
        let (interval_str, rest) = rest.split_once("s]]").ok_or_else(|| err("missing interval unit/closing"))?;
        let interval_s: i64 = interval_str.parse().map_err(|_| err("interval is not an integer"))?;
        if interval_s < 1 {
            return Err(err("interval must be at least 1 second"));
        }
        let background = match rest.trim() {
            "(background)" => true,
            "(foreground)" | "(stopped)" => false,
            other => {
                crate::obs::DUMPSYS_BAD_STATE.inc();
                let reason = if other.is_empty() {
                    "missing app-state tag".to_owned()
                } else {
                    format!("unknown app-state tag {other:?}")
                };
                return Err(err(&reason));
            }
        };
        out.push(ListenerEntry {
            package: package.to_owned(),
            provider,
            interval_s,
            background,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppBuilder, LocationBehavior};
    use crate::permission::LocationClaim;

    fn device_with_bg_app() -> Device {
        let mut d = Device::new();
        let id = d.install(
            AppBuilder::new("com.example.bg")
                .location_claim(LocationClaim::FineAndCoarse)
                .behavior(
                    LocationBehavior::requester([ProviderKind::Gps, ProviderKind::Network], 5)
                        .auto_start(true)
                        .background_interval(30),
                )
                .build(),
        );
        d.launch(id).unwrap();
        d.move_to_background(id).unwrap();
        d.advance(10);
        d
    }

    #[test]
    fn render_parse_round_trip() {
        let d = device_with_bg_app();
        let report = render(&d);
        let entries = parse(&report).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| e.package == "com.example.bg"));
        assert!(entries.iter().all(|e| e.background));
        assert!(entries.iter().all(|e| e.interval_s == 30));
        let providers: Vec<ProviderKind> = entries.iter().map(|e| e.provider).collect();
        assert!(providers.contains(&ProviderKind::Gps));
        assert!(providers.contains(&ProviderKind::Network));
    }

    #[test]
    fn report_includes_last_known_location() {
        let d = device_with_bg_app();
        let report = render(&d);
        assert!(report.contains("Last Known Locations"));
        // gps and network both fired; whichever wrote the cache last, a
        // granularity is reported
        assert!(report.contains("granularity="));
        assert!(!report.contains("(none)"));
    }

    #[test]
    fn empty_device_renders_and_parses_empty() {
        let d = Device::new();
        let report = render(&d);
        assert!(report.contains("(none)"));
        assert!(parse(&report).unwrap().is_empty());
    }

    #[test]
    fn unknown_lines_are_ignored() {
        let report = "garbage\n  more garbage\n";
        assert!(parse(report).unwrap().is_empty());
    }

    #[test]
    fn malformed_receiver_line_errors() {
        let report = "    Receiver[com.x Request[warp interval=5s]] (background)\n";
        let err = parse(report).unwrap_err();
        assert!(err.to_string().contains("unknown location provider"));
    }

    #[test]
    fn bad_interval_errors() {
        let report = "    Receiver[com.x Request[gps interval=zzz s]] (background)\n";
        assert!(parse(report).is_err());
        let report = "    Receiver[com.x Request[gps interval=0s]] (background)\n";
        assert!(parse(report).is_err());
    }

    #[test]
    fn stopped_entries_parse_as_not_background() {
        let report = "    Receiver[com.x Request[gps interval=5s]] (stopped)\n";
        let entries = parse(report).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].background);
    }

    #[test]
    fn unknown_state_tag_errors_instead_of_parsing_as_foreground() {
        for bad in ["(paused)", "(Background)", "(BACKGROUND)", "(background) extra", "background"] {
            let report = format!("    Receiver[com.x Request[gps interval=5s]] {bad}\n");
            let e = parse(&report).unwrap_err();
            assert!(e.to_string().contains("app-state"), "{bad}: {e}");
        }
    }

    #[test]
    fn missing_state_tag_errors() {
        let report = "    Receiver[com.x Request[gps interval=5s]]\n";
        let e = parse(report).unwrap_err();
        assert!(e.to_string().contains("missing app-state"), "{e}");
    }

    #[test]
    fn bad_state_lines_are_counted() {
        crate::obs::register();
        let before = crate::obs::DUMPSYS_BAD_STATE.get();
        let _ = parse("    Receiver[com.x Request[gps interval=5s]] (weird)\n");
        let after = crate::obs::DUMPSYS_BAD_STATE.get();
        // at least our own bump (other tests may add more concurrently)
        assert!(after > before, "bad-state counter did not move");
    }

    #[test]
    fn foreground_entries_not_marked_background() {
        let mut d = Device::new();
        let id = d.install(
            AppBuilder::new("com.fg")
                .location_claim(LocationClaim::FineAndCoarse)
                .behavior(LocationBehavior::requester([ProviderKind::Fused], 10).auto_start(true))
                .build(),
        );
        d.launch(id).unwrap();
        let entries = parse(&render(&d)).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].background);
        assert_eq!(entries[0].provider, ProviderKind::Fused);
    }
}
