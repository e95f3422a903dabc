//! Adversarial corpus for the app-IR parser: every fixture under
//! `tests/ir_corpus/` is a hostile or degenerate program — duplicate
//! classes, nested methods, unterminated blocks, instructions outside a
//! method body, sink-named non-sink methods, call-graph cycles, CRLF
//! transfers. The parser's contract is *parse-or-counted-error, never
//! panic*: each fixture declares its expected outcome in an inert
//! first-line directive (`#expect: error` / `#expect: ok <n>`), and this
//! test holds the parser to it, checks that failures bump the
//! `android.ir.parse_errors_total` counter, and that parsing is idempotent
//! and stable under a render round-trip.
//!
//! Add a fixture by dropping an `.ir` file in the directory — no code
//! change needed. Directive lines start with `#`, which the grammar
//! treats as comments, so the full file (directives included) is fed to
//! `parse`. A second optional `#class:` directive carries the expected
//! reachability class (with a `#providers:` directive naming the
//! inferred provider set), and an optional `#taint:` directive (plus
//! `#taint-sdk: shared` to compose the shared SDK fragment) the expected
//! taint class; they are consumed by the market crate's `reach_corpus`
//! and `taint_corpus` tests, not here.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test/bench/example target: panics are failures by design

use backwatch_android::ir;
use std::fs;
use std::path::PathBuf;

/// The outcome a fixture's `#expect:` directive declares.
#[derive(Debug, PartialEq, Eq)]
enum Expect {
    Error,
    Ok(usize),
}

fn parse_directive(fixture: &str, text: &str) -> Expect {
    let first = text.lines().next().unwrap_or_default();
    let rest = first
        .strip_prefix("#expect:")
        .unwrap_or_else(|| panic!("{fixture}: first line must be an #expect: directive, got {first:?}"))
        .trim();
    if rest == "error" {
        Expect::Error
    } else if let Some(n) = rest.strip_prefix("ok ") {
        Expect::Ok(
            n.trim()
                .parse()
                .unwrap_or_else(|_| panic!("{fixture}: bad class count in directive {first:?}")),
        )
    } else {
        panic!("{fixture}: directive must be `error` or `ok <n>`, got {first:?}");
    }
}

#[test]
fn every_ir_fixture_parses_or_errors_without_panicking() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/ir_corpus");
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("ir_corpus directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 20,
        "ir corpus shrank to {} fixtures — expected the full adversarial set",
        fixtures.len()
    );

    let obs_enabled = backwatch_obs::enabled();
    for path in fixtures {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_owned();
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: unreadable fixture: {e}"));
        let expect = parse_directive(&name, &text);

        let errors_before = backwatch_android::obs::IR_PARSE_ERRORS.get();
        let outcome = ir::parse(&text);
        match (&expect, &outcome) {
            (Expect::Error, Err(e)) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("malformed IR at line"),
                    "{name}: error does not name the offending line: {msg}"
                );
                // line() is 1-based, with 0 reserved for end-of-input errors
                assert!(
                    e.line() >= 1 || msg.contains("end of input"),
                    "{name}: line 0 is reserved for end-of-input errors: {msg}"
                );
                if obs_enabled {
                    assert!(
                        backwatch_android::obs::IR_PARSE_ERRORS.get() > errors_before,
                        "{name}: parse error was not counted"
                    );
                }
            }
            (Expect::Ok(n), Ok(program)) => {
                assert_eq!(program.classes.len(), *n, "{name}: wrong class count");
                for class in &program.classes {
                    assert!(!class.name.is_empty(), "{name}: empty class name survived parsing");
                    for method in &class.methods {
                        assert!(!method.name.is_empty(), "{name}: empty method name survived parsing");
                    }
                }
                // render discards comments but preserves the program: the
                // round-trip re-parses to the same structure
                let rendered = ir::render(program);
                assert_eq!(
                    ir::parse(&rendered).as_ref(),
                    Ok(program),
                    "{name}: render/parse round-trip diverged"
                );
            }
            (want, got) => panic!("{name}: expected {want:?}, got {got:?}"),
        }

        // parsing is pure: a second pass over the same bytes agrees
        assert_eq!(outcome, ir::parse(&text), "{name}: parse is not idempotent");
    }
}
