//! The four workloads. Each stresses different layers, so a change to one
//! layer shows on the workload that runs it and not on the others.

pub mod figures;
pub mod leakage;
pub mod market;
pub mod serve;

use crate::harness::{self, Opts, Report};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["figures", "leakage", "market", "serve"];

/// Runs the workload `opts.workload` names; `None` if it names none.
#[must_use]
pub fn run(opts: &Opts) -> Option<Report> {
    Some(match opts.workload.as_str() {
        "figures" => harness::run::<figures::Figures>(opts),
        "leakage" => harness::run::<leakage::Leakage>(opts),
        "market" => harness::run::<market::Market>(opts),
        "serve" => harness::run::<serve::Serve>(opts),
        _ => return None,
    })
}
