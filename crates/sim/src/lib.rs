//! # simkernel — discrete-event simulation kernel
//!
//! The substrate underneath the distributed-database model of
//! *"Revisiting Commit Processing in Distributed Database Systems"*
//! (SIGMOD 1997). It provides exactly the machinery a detailed closed
//! queueing model needs:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time,
//!   so runs are bit-for-bit deterministic,
//! * [`Calendar`] — a radix-heap future-event list that fires
//!   simultaneous events in the order they were scheduled,
//! * [`resource::Station`] — a multi-server FCFS queueing station with
//!   two priority classes (the paper gives message processing priority
//!   over data processing at the CPUs) and an *infinite-server* mode
//!   (used for the pure data-contention experiments, where "the
//!   physical resources were made infinite, that is, there is no
//!   queueing for these resources"),
//! * [`stats`] — tallies, time-weighted averages, and batch-means
//!   confidence intervals (the paper reports 90% confidence intervals
//!   with relative half-widths below 10%),
//! * [`rng::SimRng`] — a seeded RNG facade for workload sampling.
//!
//! The kernel is deliberately free of any database semantics; it is
//! reusable for any closed queueing-network study.

pub mod calendar;
pub mod resource;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use calendar::Calendar;
pub use resource::{JobClass, Station};
pub use rng::{mix_seed, SimRng};
pub use slab::{Slab, SlabKey};
pub use time::{SimDuration, SimTime};
