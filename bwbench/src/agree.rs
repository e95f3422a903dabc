//! `bwbench agree A B`: do two sets of untraced runs agree within the
//! benchmark's own bounds?
//!
//! Each file holds the standard output of any number of runs (one per
//! line is fine); the lines carrying a `bwbench` stamp are the records.
//! For every (workload, end-to-end metric) pair the medians of the two
//! sets are compared, and the relative difference |B − A| / A is printed
//! against the metric's `bound` from `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::metrics::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
///
/// # Errors
///
/// The file cannot be read or is not the expected shape.
pub fn bounds(benchmark_json: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(benchmark_json).map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_owned(), bound))
        })
        .collect()
}

/// workload → metric → values, from the untraced records in `path`.
type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn records(path: &Path) -> Result<Sets, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets = Sets::new();
    for line in text.lines().filter(|l| l.contains("\"bwbench\"")) {
        let record = json::parse(line)?;
        let stamp = record.get("bwbench").ok_or("record without a stamp")?;
        if stamp.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = stamp
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("stamp without a workload")?;
        let metrics = record.get("metrics").and_then(Json::as_obj).ok_or("record without metrics")?;
        let by_metric = sets.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(sets)
}

/// Compares the two sets; returns the report and whether every pair
/// agrees within its bound.
///
/// # Errors
///
/// Unreadable or malformed input files.
pub fn run(benchmark_json: &Path, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (sa, sb) = (records(a)?, records(b)?);
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<9} {:<16} {:>5} {:>5} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "n_a", "n_b", "median_a", "median_b", "rel_diff", "bound"
    );
    let workloads: std::collections::BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
    for w in workloads {
        for (metric, bound) in &bounds {
            let va = sa.get(w).and_then(|m| m.get(metric)).map_or(&[][..], Vec::as_slice);
            let vb = sb.get(w).and_then(|m| m.get(metric)).map_or(&[][..], Vec::as_slice);
            if va.is_empty() || vb.is_empty() {
                ok = false;
                let _ = writeln!(out, "{w:<9} {metric:<16} {:>5} {:>5}  MISSING", va.len(), vb.len());
                continue;
            }
            let (ma, mb) = (median(va), median(vb));
            let rel = if ma == 0.0 {
                if mb == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                (mb - ma).abs() / ma.abs()
            };
            let agrees = rel <= *bound;
            ok &= agrees;
            let _ = writeln!(
                out,
                "{w:<9} {metric:<16} {:>5} {:>5} {ma:>14.6} {mb:>14.6} {rel:>8.4} {bound:>6.3}  {}",
                va.len(),
                vb.len(),
                if agrees { "ok" } else { "OVER" }
            );
        }
    }
    Ok((out, ok))
}
