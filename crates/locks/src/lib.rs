//! # distlocks — strict 2PL with prepared-data lending
//!
//! The concurrency-control substrate of the SIGMOD'97 commit-processing
//! study. Each site of the distributed database runs one
//! [`LockManager`]: a strict two-phase-locking table with read/update
//! modes, FCFS queues, and — when the OPT commit protocol is in use —
//! **lending** of data held by *prepared* cohorts (§3 of the paper):
//!
//! > "prepared cohorts lend uncommitted data to concurrently executing
//! > transactions … there is no danger of incurring cascading aborts
//! > since the borrowing is done in a controlled manner."
//!
//! The lock manager tracks borrow edges so that, when a lender's global
//! decision arrives, the engine can either dissolve the edges (commit)
//! or abort every immediate borrower (abort) — the abort chain is
//! bounded at length one because a borrower is never allowed to reach
//! the prepared state while it has live borrows.
//!
//! An owner requests each page once, in its final mode: the paper's
//! cohorts "set read locks on pages that they read and update locks on
//! pages that need to be updated" (§4.2), and the workload draws
//! distinct pages per cohort. The table debug-asserts this contract,
//! so it has no upgrades and no owner both holds a page and waits for
//! it.
//!
//! Deadlock handling follows §4.2: detection is *immediate* (checked at
//! every lock conflict) and *global* (the wait-for graph spans sites).
//! Each table names the owners a waiting request waits on —
//! [`LockManager::blockers_of`], or allocation-free
//! [`LockManager::for_each_blocker`] — so the engine can stitch the
//! per-site edges into one transaction-level graph: it records them
//! when a request blocks and searches its records from both ends.
//! [`deadlock::find_cycle`] runs the reference detection over a
//! caller-supplied edge expansion; the engine checks its own search
//! against it in debug builds.

pub mod deadlock;
pub mod table;

pub use table::{Grant, LockManager, LockMode, OwnerId, PageId, RequestOutcome};
