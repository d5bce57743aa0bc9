//! The distcommit repository benchmark.
//!
//! One command runs a named workload through the public API of
//! `distdb`, `distlocks` and `simkernel`, checks its outputs, and prints
//! its metrics by name and unit; see `perfbench/README.md` for the
//! workloads and what each metric should move.

pub mod bench;
pub mod digest;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workloads;
