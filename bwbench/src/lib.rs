//! bwbench: the repository's benchmark. Four workloads — `figures`,
//! `leakage`, `market`, `serve` — each timed only through the public
//! functions of the backwatch crates, each output checked, reported as
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//! See `README.md` for the workloads, metrics and commands.

pub mod agree;
pub mod golden;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod span;
pub mod sys;
pub mod workloads;
