//! Trajectory substrate for the `backwatch` workspace.
//!
//! The paper's evaluation (§IV-C) runs on the Geolife GPS dataset: per-user
//! location traces sampled at roughly 1 Hz. That dataset cannot be
//! redistributed, so this crate provides both the trace *types* the
//! evaluation needs and a synthetic *generator* that produces Geolife-like
//! mobility with known ground truth:
//!
//! - [`TracePoint`] / [`Trace`] — timestamped location sequences with
//!   ordering invariants.
//! - [`sampling`] — interval downsampling, which models an app polling
//!   location every `k` seconds (the paper's "access frequency"), plus
//!   prefix and random-start windows used by Figure 4.
//! - [`soa`] — a trace projected once into flat planar meters and stored
//!   column-wise, so the per-interval experiment sweep pays the spherical
//!   trigonometry a single time and every downsampled/rotated view reuses
//!   it; [`projected`] holds its point type and envelope analysis.
//! - [`coarsen`] — grid snapping and Gaussian jitter, modelling coarse
//!   location providers and GPS noise.
//! - [`synth`] — the mobility model: each synthetic user has a home, an
//!   optional workplace, and Zipf-popular secondary places; days are
//!   simulated as dwell episodes connected by movement legs and recorded at
//!   1 Hz with GPS noise. Ground-truth visits are returned alongside the
//!   recorded trace so extractors can be *validated*, not just run.
//! - [`dataset`] — multi-user datasets and (de)serialization in a
//!   Geolife-compatible PLT text format and CSV.
//!
//! # Examples
//!
//! ```
//! use backwatch_trace::synth::{SynthConfig, generate_user};
//!
//! let cfg = SynthConfig::small();
//! let user = generate_user(&cfg, 0);
//! assert!(!user.trace.is_empty());
//! assert!(!user.true_visits.is_empty());
//! ```

pub mod chunks;
pub mod coarsen;
pub mod dataset;
pub mod interleave;
pub mod modes;
pub mod obs;
pub mod point;
pub mod projected;
pub mod sampling;
pub mod simplify;
pub mod soa;
pub mod stats;
pub mod synth;
pub mod trajectory;

pub use dataset::Dataset;
pub use point::{Timestamp, TracePoint};
pub use projected::ProjectedPoint;
pub use soa::SoaProjectedTrace;
pub use trajectory::{Trace, TraceError};
