//! # distdb — the distributed-database simulator
//!
//! A detailed closed queueing model of a distributed database system,
//! built to reproduce *"Revisiting Commit Processing in Distributed
//! Database Systems"* (Gupta, Haritsa & Ramamritham, SIGMOD 1997).
//!
//! The model (§4 of the paper): `NumSites` sites, each with `NumCPUs`
//! processors behind one queue (message processing has priority over
//! data processing), `NumDataDisks` data disks and `NumLogDisks` log
//! disks with per-disk queues; `DBSize` pages uniformly spread over the
//! sites; `MPL` transactions per site in a closed loop; distributed
//! strict 2PL with immediate global deadlock detection; and a commit
//! protocol chosen from 2PC, Presumed Abort, Presumed Commit, 3PC, the
//! OPT lending variants, or the CENT/DPCC baselines.
//!
//! Entry points:
//!
//! * [`config::SystemConfig`] — the full parameter set (Table 1),
//!   with [`config::SystemConfig::paper_baseline`] reproducing Table 2;
//! * [`engine::Simulation::run`] — one run, one protocol, one seed,
//!   returning a [`metrics::SimReport`];
//! * [`engine::Simulation::run_observed`] — the same run, feeding the
//!   caller's [`engine::Observers`] as it executes: a trace sink (Chrome
//!   trace, flamegraph fold, buffered [`engine::Trace`]) and a windowed
//!   series, buffered or streamed, together or apart;
//! * [`experiments`] — ready-made presets that regenerate every figure
//!   and table of the paper's evaluation section;
//! * [`output`] — plain-text rendering of experiment series.

pub mod analysis;
pub mod config;
pub mod engine;
pub mod experiments;
mod json;
pub mod metrics;
pub mod output;
pub mod runner;
pub mod workload;

/// The protocol taxonomy, re-exported for convenience.
pub mod protocol {
    pub use commitproto::{BaseProtocol, Outcome, Overheads, ProtocolSpec};
}
