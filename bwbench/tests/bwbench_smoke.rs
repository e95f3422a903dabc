//! Smoke test: every workload at `--scale smoke`, untraced and traced,
//! checked against the output format `BENCHMARK.json` declares.

use bwbench::json::{self, Json};
use bwbench::metrics::{END_TO_END, PER_LAYER};
use bwbench::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bwbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bwbench"))
        .args(args)
        .output()
        .expect("the bwbench binary runs")
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable")).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {k}"))
            };
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

/// Runs one smoke workload; returns the stamped record and the final line.
fn smoke(workload: &str, traced: bool) -> (Json, Json) {
    let trace = if traced { "1" } else { "0" };
    let out = bwbench(&[
        "--workload",
        workload,
        "--scale",
        "smoke",
        "--seconds",
        "0.2",
        "--trace",
        trace,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} (trace {trace}) failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., record, last] = lines.as_slice() else {
        panic!("{workload}: expected a record line and a result line, got {stdout:?}");
    };
    (
        json::parse(record).expect("record line is JSON"),
        json::parse(last).expect("result line is JSON"),
    )
}

fn assert_result(workload: &str, result: &Json, expected: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{workload}: result keys");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: output checks failed"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: failed units"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
    let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics object");
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{workload}: {name} has no finite value");
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap_or_default().to_owned(),
            )
        })
        .collect();
    assert_eq!(
        emitted, expected,
        "{workload}: metrics must be exactly the declared ones, once each, with units"
    );
}

#[test]
fn benchmark_json_matches_the_binary() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, NAMES);
    let own =
        |table: &[(&str, &str)]| -> Vec<(String, String)> { table.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect() };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    assert_eq!(doc.get("paths"), Some(&Json::Arr(vec![Json::Str("bwbench".to_owned())])));
}

#[test]
fn every_workload_runs_checks_and_traces() {
    let doc = benchmark_json();
    let (e2e, per_layer) = (declared(&doc, "end_to_end"), declared(&doc, "per_layer"));
    for workload in NAMES {
        let (record, result) = smoke(workload, false);
        assert_result(workload, &result, &e2e);
        for (name, m) in result.get("metrics").and_then(Json::as_obj).into_iter().flatten() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or_default();
            assert!(value > 0.0, "{workload}: end-to-end metric {name} is {value}");
        }

        let (traced_record, traced) = smoke(workload, true);
        assert_result(workload, &traced, &per_layer);
        let coverage = traced
            .get("metrics")
            .and_then(|m| m.get("trace.coverage"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_default();
        assert!(coverage >= 0.90, "{workload}: trace coverage {coverage}");

        let digest = |r: &Json| {
            r.get("bwbench")
                .and_then(|s| s.get("digest"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        assert!(digest(&record).is_some());
        assert_eq!(
            digest(&record),
            digest(&traced_record),
            "{workload}: traced output differs from untraced"
        );
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "nope"],
        &["--workload", "figures", "--trace", "2"],
        &["--workload", "figures", "--seconds", "0"],
        &["--workload", "figures", "--threads", "0"],
        &["--workload", "figures", "--bogus"],
        &["agree", "only-one-file"],
    ] {
        let out = bwbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn agree_compares_medians_against_the_bounds() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let record = |items_per_s: f64| {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "items_per_s" { items_per_s } else { 1.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"bwbench\":{{\"workload\":\"figures\",\"trace\":false}},\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{{}}}}}\n",
            metrics.join(",")
        )
    };
    let write = |name: &str, values: &[f64]| {
        let path = dir.join(name);
        std::fs::write(&path, values.iter().map(|&v| record(v)).collect::<String>()).expect("temp file writes");
        path.to_string_lossy().into_owned()
    };
    let a = write("agree_a.jsonl", &[100.0, 101.0, 99.0]);
    let b = write("agree_b.jsonl", &[102.0, 100.0, 98.0]);
    let c = write("agree_c.jsonl", &[150.0, 151.0, 149.0]);
    assert_eq!(bwbench(&["agree", &a, &b]).status.code(), Some(0));
    let over = bwbench(&["agree", &a, &c]);
    assert_eq!(over.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&over.stdout).contains("OVER"));
}
