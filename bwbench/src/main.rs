//! bwbench command line.
//!
//! ```text
//! bwbench [trace] --workload figures|leakage|market|serve [--seed N] [--seconds S]
//!         [--trace 0|1] [--threads T] [--scale full|smoke]
//! bwbench agree A B
//! ```
//!
//! A run prints a stamped record line and then, as the last line of
//! standard output, the result object; a traced run also writes its spans
//! to `out/trace-<workload>.json` under this package. Bad arguments exit
//! with code 2 before any work.

use bwbench::harness::{self, Opts, Scale};
use bwbench::json::Json;
use bwbench::{agree, sys, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: bwbench [trace] --workload figures|leakage|market|serve [--seed N] [--seconds S] \
                     [--trace 0|1] [--threads T] [--scale full|smoke]\n       bwbench agree A B";

/// Measuring time when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

fn parse(args: &[String], trace: bool) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace,
        threads: 1,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--threads" => {
                let threads: usize = value()?.parse().map_err(|_| "--threads takes a whole number")?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
                opts.threads = threads.min(sys::nproc());
            }
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err("--scale takes full or smoke".to_owned()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workloads::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", workloads::NAMES.join(", ")));
    }
    Ok(opts)
}

fn write_trace(report: &harness::Report, workload: &str) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, harness::trace_json(report).render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let malloc_pinned = sys::pin_malloc();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        let [a, b] = &args[1..] else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let benchmark_json = harness::repo_root().join("BENCHMARK.json");
        return match agree::run(&benchmark_json, Path::new(a), Path::new(b)) {
            Ok((table, ok)) => {
                print!("{table}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => {
                eprintln!("bwbench agree: {e}");
                ExitCode::from(2)
            }
        };
    }
    let traced = args.first().map(String::as_str) == Some("trace");
    let opts = match parse(&args[usize::from(traced)..], traced) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("bwbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut report) = workloads::run(&opts) else {
        unreachable!("the workload name was validated");
    };
    report.stamp.push(("malloc_pinned".to_owned(), Json::Bool(malloc_pinned)));
    eprint!("bwbench {}:\n{}", opts.workload, harness::render_table(&report));
    if opts.trace {
        match write_trace(&report, &opts.workload) {
            Ok(path) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  spans not written: {e}"),
        }
    }
    println!("{}", harness::result_json(&report, true).render());
    println!("{}", harness::result_json(&report, false).render());
    ExitCode::SUCCESS
}
