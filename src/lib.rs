//! # distcommit
//!
//! A complete Rust reproduction of *"Revisiting Commit Processing in
//! Distributed Database Systems"* (Gupta, Haritsa & Ramamritham,
//! SIGMOD 1997).
//!
//! The paper studies the transaction-throughput cost of distributed
//! commit protocols with a detailed closed queueing model, and proposes
//! **OPT**: a commit protocol in which transactions may *optimistically
//! borrow* data held by cohorts in the prepared state, with the abort
//! chain provably bounded at length one.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`sim`] — the discrete-event simulation kernel (calendar,
//!   resource stations, statistics, deterministic RNG),
//! * [`locks`] — the strict-2PL lock manager with prepared-data lending
//!   and immediate global deadlock detection,
//! * [`proto`] — the commit-protocol taxonomy and its analytic
//!   overhead model (Tables 3 and 4 of the paper),
//! * [`db`] — the distributed-DBMS simulator itself: configuration,
//!   workload generator, master/cohort state machines, metrics, and the
//!   experiment presets that regenerate every figure and table.
//!
//! ## Quickstart
//!
//! ```
//! use distcommit::db::{config::SystemConfig, engine::Simulation, protocol::ProtocolSpec};
//!
//! // Paper baseline (Table 2), 2PC vs OPT at MPL 4.
//! let cfg = SystemConfig::paper_baseline()
//!     .with_mpl(4)
//!     .with_run_length(50, 500); // short demo run
//!
//! let two_pc = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 1).unwrap();
//! let opt = Simulation::run(&cfg, ProtocolSpec::OPT_2PC, 1).unwrap();
//! assert!(opt.throughput > 0.0 && two_pc.throughput > 0.0);
//! ```

pub mod cli;

pub use commitproto as proto;
pub use distdb as db;
pub use distlocks as locks;
pub use simkernel as sim;
