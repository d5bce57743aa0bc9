//! # commitproto — the commit-protocol taxonomy
//!
//! Declarative descriptions of every commit protocol evaluated in the
//! SIGMOD'97 study, plus the analytic overhead model behind Tables 3
//! and 4 of the paper.
//!
//! A protocol is a [`ProtocolSpec`]: a [`BaseProtocol`] (the
//! message/logging schedule) optionally combined with the **OPT**
//! optimistic-borrowing rule, which is orthogonal to the schedule —
//! "OPT can be combined with current industry standard protocols such
//! as Presumed Commit and Presumed Abort" (§1) and with 3PC (§5.6).
//!
//! Each schedule is one row of the declarative [`SpecTable`] — voting
//! scheme, message [`Routing`], which records are forced, who
//! acknowledges what, the [`Takeover`] behaviour on coordinator crash
//! — and that row is the *single source of truth*: the simulator's
//! generic interpreter and the analytic overhead model
//! ([`ProtocolSpec::overheads`]) both read the same columns,
//! so a disagreement between analysis and simulation is impossible by
//! construction. The unit tests pin the derived numbers to the paper's
//! Table 3 (DistDegree = 3) and Table 4 (DistDegree = 6), and the
//! engine cross-checks every simulated commit against the row it ran.

pub mod overheads;
pub mod spec;

pub use overheads::{Outcome, Overheads};
pub use spec::{
    BaseProtocol, ByOutcome, Presumption, ProtocolSpec, RecoveryAction, RecoveryRecord, Routing,
    SpecTable, Takeover,
};
