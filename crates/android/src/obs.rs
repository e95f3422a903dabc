//! Telemetry statics for the android crate.
//!
//! The dumpsys text channel is the one place the pipeline serializes state
//! to prose and parses it back, so every line is accounted for: the
//! round-trip invariant `lines_rendered == entries_parsed` (with zero
//! parse errors) is asserted by the experiments crate's telemetry tests.

use backwatch_obs::Counter;
use std::sync::Once;

/// Dumpsys reports rendered.
pub static DUMPSYS_RENDERS: Counter = Counter::new();
/// Listener lines written into rendered reports.
pub static DUMPSYS_LINES_RENDERED: Counter = Counter::new();
/// Listener entries successfully parsed back out of reports.
pub static DUMPSYS_ENTRIES_PARSED: Counter = Counter::new();
/// Reports rejected by the parser (any grammar violation).
pub static DUMPSYS_PARSE_ERRORS: Counter = Counter::new();
/// Listener lines whose app-state tag was not one of the three known
/// states — the silent-foreground bug this counter was added to expose.
pub static DUMPSYS_BAD_STATE: Counter = Counter::new();
/// IR programs rendered to text.
pub static IR_RENDERS: Counter = Counter::new();
/// IR programs successfully parsed from text.
pub static IR_PROGRAMS_PARSED: Counter = Counter::new();
/// IR texts rejected by the parser (any grammar violation).
pub static IR_PARSE_ERRORS: Counter = Counter::new();
/// Apps lowered to IR (the simulated Apktool decompilations).
pub static IR_APPS_LOWERED: Counter = Counter::new();

static REGISTER: Once = Once::new();

/// Registers this crate's metrics with the global registry (idempotent).
pub fn register() {
    REGISTER.call_once(|| {
        backwatch_obs::register_counter("android.dumpsys.renders_total", "dumpsys reports rendered", &DUMPSYS_RENDERS);
        backwatch_obs::register_counter(
            "android.dumpsys.lines_rendered_total",
            "listener lines rendered into reports",
            &DUMPSYS_LINES_RENDERED,
        );
        backwatch_obs::register_counter(
            "android.dumpsys.entries_parsed_total",
            "listener entries parsed from reports",
            &DUMPSYS_ENTRIES_PARSED,
        );
        backwatch_obs::register_counter(
            "android.dumpsys.parse_errors_total",
            "reports rejected by the dumpsys parser",
            &DUMPSYS_PARSE_ERRORS,
        );
        backwatch_obs::register_counter(
            "android.dumpsys.bad_state_total",
            "listener lines with an unrecognized app-state tag",
            &DUMPSYS_BAD_STATE,
        );
        backwatch_obs::register_counter("android.ir.renders_total", "IR programs rendered to text", &IR_RENDERS);
        backwatch_obs::register_counter(
            "android.ir.programs_parsed_total",
            "IR programs parsed from text",
            &IR_PROGRAMS_PARSED,
        );
        backwatch_obs::register_counter(
            "android.ir.parse_errors_total",
            "IR texts rejected by the parser",
            &IR_PARSE_ERRORS,
        );
        backwatch_obs::register_counter("android.ir.apps_lowered_total", "apps lowered to IR", &IR_APPS_LOWERED);
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_is_idempotent() {
        super::register();
        super::register();
        let snap = backwatch_obs::snapshot();
        assert!(snap.counter("android.dumpsys.renders_total").is_some());
    }
}
