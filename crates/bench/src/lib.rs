//! Experiment harness for the VLP reproduction.
//!
//! The binaries in `src/bin/` regenerate every figure of the paper's
//! evaluation (§5); this library holds the shared scenario builders and
//! metric plumbing they use. See `DESIGN.md` (per-experiment index) and
//! `EXPERIMENTS.md` (paper-vs-measured) at the repository root.
//!
//! Run a figure with, e.g.:
//!
//! ```text
//! cargo run --release -p vlp-bench --bin fig11_vs_2db
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artifact;
pub mod report;
pub mod scenarios;
pub mod streams;
