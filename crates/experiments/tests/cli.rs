//! The experiment binaries' command lines: an argument a binary does not
//! take stops it with a usage line and exit status 2 before any work, so
//! a typo such as `--smal` cannot silently start a paper-scale run.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use std::process::Command;

/// Runs `bin` with `args` and asserts it was refused: exit status 2, no
/// stdout (nothing ran), and the usage line on stderr.
fn assert_refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary starts");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran before refusing");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: "), "{bin} {args:?}");
}

#[test]
fn experiment_bins_refuse_anything_but_a_lone_small_flag() {
    assert_refused(env!("CARGO_BIN_EXE_fig3"), &["--smal"]);
    assert_refused(env!("CARGO_BIN_EXE_fig3"), &["--small", "--small"]);
    assert_refused(env!("CARGO_BIN_EXE_ext_taint"), &["small"]);
    assert_refused(env!("CARGO_BIN_EXE_market_stats"), &["--small", "extra"]);
}

#[test]
fn repro_all_refuses_unknown_flags_and_malformed_values() {
    let bin = env!("CARGO_BIN_EXE_repro_all");
    assert_refused(bin, &["--smal"]);
    assert_refused(bin, &["--small", "--verbose"]);
    assert_refused(bin, &["--small", "--threads"]);
    assert_refused(bin, &["--small", "--threads", "four"]);
    assert_refused(bin, &["--small", "--csv"]);
}
