//! Protocol tracing: an optional, per-run recording of every message
//! transfer, forced log write, and transaction milestone.
//!
//! Tracing exists for *verification*, not metrics: the test-suite uses
//! it to assert that each protocol's choreography matches the paper's
//! §2 descriptions step by step (e.g. a 2PC commit is PREPARE out →
//! prepare records forced → YES votes → master commit record → COMMIT
//! out → cohort commit records → ACKs, in that causal order).
//!
//! A run feeds the events to a [`TraceSink`] the caller lends it through
//! [`super::Observers`]; the caller keeps the sink, concrete type and
//! all, and reads its results after the run.

use super::types::{CohortId, TxnId};
use crate::workload::SiteId;
use simkernel::SimTime;

/// The kind of message transfer, stripped of payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgLabel {
    /// Cohort initiation (execution phase).
    InitCohort,
    /// WORKDONE (execution phase).
    WorkDone,
    /// PREPARE request.
    Prepare,
    /// YES vote.
    VoteYes,
    /// NO vote.
    VoteNo,
    /// READ vote (Read-Only optimization, §3.2).
    VoteReadOnly,
    /// 3PC PRECOMMIT.
    PreCommit,
    /// 3PC precommit acknowledgement.
    PreAck,
    /// Global COMMIT decision.
    DecisionCommit,
    /// Global ABORT decision.
    DecisionAbort,
    /// Decision acknowledgement.
    Ack,
    /// Termination-protocol state request (after a 3PC master crash).
    TermStateReq,
    /// Termination-protocol state report.
    TermStateRep,
    /// Paxos Commit: a cohort's YES vote to one acceptor.
    PaxosVoteYes,
    /// Paxos Commit: a cohort's NO vote to one acceptor.
    PaxosVoteNo,
    /// Paxos Commit: an acceptor's ACCEPTED report to the leader.
    Accepted,
    /// Replicated 2PC: the decision record copy to a backup replica.
    RepDecision,
    /// Replicated 2PC: a backup replica's copy acknowledgement.
    RepAck,
}

/// The kind of forced log write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogLabel {
    /// A cohort's prepare record.
    Prepare,
    /// A NO voter's abort record.
    NoVoteAbort,
    /// A cohort's 3PC precommit record.
    CohortPrecommit,
    /// A cohort's commit record.
    CohortCommit,
    /// A cohort's abort record (after a global abort).
    CohortAbort,
    /// The master's PC collecting record.
    Collecting,
    /// The master's 3PC precommit record.
    MasterPrecommit,
    /// The master's commit record.
    MasterCommit,
    /// The master's abort record.
    MasterAbort,
    /// A Paxos acceptor's vote bundle (replaces the master record).
    AcceptorBundle,
    /// A replicated-2PC backup's copy of the master decision record.
    ReplicaDecision,
}

/// One traced step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message left its sender (same-site transfers are traced too,
    /// marked `local`, even though they are free).
    Send {
        at: SimTime,
        txn: TxnId,
        label: MsgLabel,
        from: SiteId,
        to: SiteId,
        local: bool,
    },
    /// A forced log write was *issued* at `site`.
    ForceLog {
        at: SimTime,
        txn: TxnId,
        label: LogLabel,
        site: SiteId,
    },
    /// A forced log write completed.
    LogDone {
        at: SimTime,
        txn: TxnId,
        label: LogLabel,
        site: SiteId,
    },
    /// A cohort entered the prepared state.
    Prepared {
        at: SimTime,
        txn: TxnId,
        cohort: CohortId,
        site: SiteId,
    },
    /// A cohort borrowed pages from prepared lenders.
    Borrowed {
        at: SimTime,
        txn: TxnId,
        cohort: CohortId,
        lenders: usize,
    },
    /// A cohort went on the OPT shelf.
    Shelved {
        at: SimTime,
        txn: TxnId,
        cohort: CohortId,
    },
    /// A shelved cohort was released (all lenders committed).
    Unshelved {
        at: SimTime,
        txn: TxnId,
        cohort: CohortId,
    },
    /// The master reached its global decision.
    Decided {
        at: SimTime,
        txn: TxnId,
        commit: bool,
    },
    /// The transaction incarnation was aborted (restart scheduled).
    Aborted { at: SimTime, txn: TxnId },
    /// The master crashed at its decision point (failure injection).
    MasterCrashed { at: SimTime, txn: TxnId },
    /// A cohort crashed at one of the injection points — during the
    /// execution phase, or right after forcing its prepare/precommit
    /// record (failure injection).
    CohortCrashed {
        at: SimTime,
        txn: TxnId,
        cohort: CohortId,
        site: SiteId,
    },
    /// A crashed cohort restarted and replayed its log.
    CohortRecovered {
        at: SimTime,
        txn: TxnId,
        cohort: CohortId,
    },
    /// A remote transfer was lost in-flight (failure injection).
    MsgLost {
        at: SimTime,
        txn: TxnId,
        label: MsgLabel,
    },
    /// A sender timed out and repeated a lost transfer.
    Retransmitted {
        at: SimTime,
        txn: TxnId,
        label: MsgLabel,
        attempt: u32,
    },
    /// 3PC termination began; `coordinator` is the elected cohort.
    TerminationStarted {
        at: SimTime,
        txn: TxnId,
        coordinator: CohortId,
    },
    /// Paxos leader failover began after the leader crashed; `leader`
    /// is the acceptor site that takes over.
    FailoverStarted {
        at: SimTime,
        txn: TxnId,
        leader: SiteId,
    },
}

impl TraceEvent {
    /// The transaction this event belongs to.
    pub fn txn(&self) -> TxnId {
        match *self {
            TraceEvent::Send { txn, .. }
            | TraceEvent::ForceLog { txn, .. }
            | TraceEvent::LogDone { txn, .. }
            | TraceEvent::Prepared { txn, .. }
            | TraceEvent::Borrowed { txn, .. }
            | TraceEvent::Shelved { txn, .. }
            | TraceEvent::Unshelved { txn, .. }
            | TraceEvent::Decided { txn, .. }
            | TraceEvent::Aborted { txn, .. }
            | TraceEvent::MasterCrashed { txn, .. }
            | TraceEvent::CohortCrashed { txn, .. }
            | TraceEvent::CohortRecovered { txn, .. }
            | TraceEvent::MsgLost { txn, .. }
            | TraceEvent::Retransmitted { txn, .. }
            | TraceEvent::TerminationStarted { txn, .. }
            | TraceEvent::FailoverStarted { txn, .. } => txn,
        }
    }

    /// Event time.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Send { at, .. }
            | TraceEvent::ForceLog { at, .. }
            | TraceEvent::LogDone { at, .. }
            | TraceEvent::Prepared { at, .. }
            | TraceEvent::Borrowed { at, .. }
            | TraceEvent::Shelved { at, .. }
            | TraceEvent::Unshelved { at, .. }
            | TraceEvent::Decided { at, .. }
            | TraceEvent::Aborted { at, .. }
            | TraceEvent::MasterCrashed { at, .. }
            | TraceEvent::CohortCrashed { at, .. }
            | TraceEvent::CohortRecovered { at, .. }
            | TraceEvent::MsgLost { at, .. }
            | TraceEvent::Retransmitted { at, .. }
            | TraceEvent::TerminationStarted { at, .. }
            | TraceEvent::FailoverStarted { at, .. } => at,
        }
    }
}

/// A consumer of trace events, fed by the engine as the simulation
/// runs.
///
/// The engine calls [`TraceSink::record`] for every event of a traced
/// transaction, in occurrence order, and [`TraceSink::finish`] exactly
/// once after the run completes. Implementations choose what to keep:
/// [`Trace`] buffers everything (fine for tests and short runs), while
/// streaming sinks such as [`super::ChromeStreamSink`] write each event
/// out immediately so memory stays bounded no matter how long the run
/// is, and [`super::FoldSink`] keeps only per-transaction aggregation
/// state.
///
/// The caller lends the sink to [`super::Simulation::run_observed`]
/// and reads it after the run; `Send` so the simulation (which borrows
/// the sink) stays shippable across the parallel runner's workers.
pub trait TraceSink: Send {
    /// Observe one event. Events arrive in simulation order.
    fn record(&mut self, event: &TraceEvent);

    /// The run is over; flush any buffered state. Called exactly once.
    fn finish(&mut self) {}
}

/// A recorded trace: events in simulation order, bounded by the number
/// of transactions requested in [`super::Observers::trace`].
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// All recorded events, in occurrence order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for Trace {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

impl Trace {
    /// Events belonging to one transaction, in order.
    pub fn of_txn(&self, txn: TxnId) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.txn() == txn).collect()
    }

    /// Transaction ids seen in the trace, ascending.
    pub fn txns(&self) -> Vec<TxnId> {
        let mut ids: Vec<TxnId> = self.events.iter().map(TraceEvent::txn).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Count of `Send` events with this label for a transaction,
    /// excluding free same-site transfers.
    pub fn remote_sends(&self, txn: TxnId, label: MsgLabel) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { txn: t, label: l, local: false, .. } if *t == txn && *l == label))
            .count()
    }

    /// Count of `Send` events with this label including local ones.
    pub fn all_sends(&self, txn: TxnId, label: MsgLabel) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { txn: t, label: l, .. } if *t == txn && *l == label))
            .count()
    }

    /// Count of completed forced writes with this label for a txn.
    pub fn forced_writes(&self, txn: TxnId, label: LogLabel) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::LogDone { txn: t, label: l, .. } if *t == txn && *l == label))
            .count()
    }

    /// Index of the first event matching `pred`, if any.
    pub fn position(&self, pred: impl Fn(&TraceEvent) -> bool) -> Option<usize> {
        self.events.iter().position(pred)
    }

    /// Index of the last event matching `pred`, if any.
    pub fn rposition(&self, pred: impl Fn(&TraceEvent) -> bool) -> Option<usize> {
        self.events.iter().rposition(pred)
    }

    /// Render one transaction's events as a human-readable timeline
    /// (time-ordered, one line per event) — the view the
    /// `trace_explorer` example prints.
    pub fn render_txn(&self, txn: TxnId) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let events = self.of_txn(txn);
        let t0 = events.first().map(|e| e.at()).unwrap_or(SimTime::ZERO);
        let _ = writeln!(out, "txn {txn} — {} events", events.len());
        for e in events {
            let dt = e.at().since(t0).as_millis_f64();
            let line = match e {
                TraceEvent::Send {
                    label,
                    from,
                    to,
                    local,
                    ..
                } => {
                    if *local {
                        format!("{label:?} (site {from}, local/free)")
                    } else {
                        format!("{label:?} site {from} -> site {to}")
                    }
                }
                TraceEvent::ForceLog { label, site, .. } => {
                    format!("force-write {label:?} issued at site {site}")
                }
                TraceEvent::LogDone { label, site, .. } => {
                    format!("force-write {label:?} durable at site {site}")
                }
                TraceEvent::Prepared { cohort, site, .. } => {
                    format!("cohort {cohort} PREPARED at site {site}")
                }
                TraceEvent::Borrowed {
                    cohort, lenders, ..
                } => {
                    format!("cohort {cohort} borrowed a page from {lenders} lender(s)")
                }
                TraceEvent::Shelved { cohort, .. } => {
                    format!("cohort {cohort} ON SHELF (withholding WORKDONE)")
                }
                TraceEvent::Unshelved { cohort, .. } => {
                    format!("cohort {cohort} off the shelf, WORKDONE released")
                }
                TraceEvent::Decided { commit, .. } => {
                    format!(
                        "GLOBAL DECISION: {}",
                        if *commit { "COMMIT" } else { "ABORT" }
                    )
                }
                TraceEvent::Aborted { .. } => "incarnation aborted; restart scheduled".into(),
                TraceEvent::MasterCrashed { .. } => "MASTER CRASHED at decision point".into(),
                TraceEvent::CohortCrashed { cohort, site, .. } => {
                    format!("cohort {cohort} CRASHED at site {site}")
                }
                TraceEvent::CohortRecovered { cohort, .. } => {
                    format!("cohort {cohort} recovered, log replayed")
                }
                TraceEvent::MsgLost { label, .. } => {
                    format!("{label:?} LOST in transit")
                }
                TraceEvent::Retransmitted { label, attempt, .. } => {
                    format!("{label:?} retransmitted (attempt {attempt})")
                }
                TraceEvent::TerminationStarted { coordinator, .. } => {
                    format!("termination protocol started, coordinator = cohort {coordinator}")
                }
                TraceEvent::FailoverStarted { leader, .. } => {
                    format!("leader failover started, new leader = site {leader}")
                }
            };
            let _ = writeln!(out, "  +{dt:>9.3} ms  {line}");
        }
        out
    }

    /// Assert that every event matching `before` precedes every event
    /// matching `after`; returns the violating pair's indices on
    /// failure.
    pub fn check_order(
        &self,
        before: impl Fn(&TraceEvent) -> bool,
        after: impl Fn(&TraceEvent) -> bool,
    ) -> Result<(), (usize, usize)> {
        let last_before = self.rposition(&before);
        let first_after = self.position(&after);
        match (last_before, first_after) {
            (Some(b), Some(a)) if b > a => Err((b, a)),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(txn: TxnId, label: MsgLabel, local: bool) -> TraceEvent {
        TraceEvent::Send {
            at: SimTime(0),
            txn,
            label,
            from: 0,
            to: 1,
            local,
        }
    }

    #[test]
    fn trace_filters_by_txn() {
        let tr = Trace {
            events: vec![
                send(1, MsgLabel::Prepare, false),
                send(2, MsgLabel::Prepare, false),
                send(1, MsgLabel::VoteYes, false),
            ],
        };
        assert_eq!(tr.of_txn(1).len(), 2);
        assert_eq!(tr.txns(), vec![1, 2]);
    }

    #[test]
    fn remote_vs_all_sends() {
        let tr = Trace {
            events: vec![
                send(1, MsgLabel::Prepare, false),
                send(1, MsgLabel::Prepare, false),
                send(1, MsgLabel::Prepare, true), // local: free
            ],
        };
        assert_eq!(tr.remote_sends(1, MsgLabel::Prepare), 2);
        assert_eq!(tr.all_sends(1, MsgLabel::Prepare), 3);
    }

    #[test]
    fn order_checking() {
        let tr = Trace {
            events: vec![
                send(1, MsgLabel::Prepare, false),
                send(1, MsgLabel::VoteYes, false),
            ],
        };
        assert!(tr
            .check_order(
                |e| matches!(
                    e,
                    TraceEvent::Send {
                        label: MsgLabel::Prepare,
                        ..
                    }
                ),
                |e| matches!(
                    e,
                    TraceEvent::Send {
                        label: MsgLabel::VoteYes,
                        ..
                    }
                ),
            )
            .is_ok());
        assert_eq!(
            tr.check_order(
                |e| matches!(
                    e,
                    TraceEvent::Send {
                        label: MsgLabel::VoteYes,
                        ..
                    }
                ),
                |e| matches!(
                    e,
                    TraceEvent::Send {
                        label: MsgLabel::Prepare,
                        ..
                    }
                ),
            ),
            Err((1, 0))
        );
    }

    #[test]
    fn accessors_cover_all_variants() {
        let events = vec![
            send(3, MsgLabel::Ack, false),
            TraceEvent::ForceLog {
                at: SimTime(1),
                txn: 3,
                label: LogLabel::Prepare,
                site: 0,
            },
            TraceEvent::LogDone {
                at: SimTime(2),
                txn: 3,
                label: LogLabel::Prepare,
                site: 0,
            },
            TraceEvent::Prepared {
                at: SimTime(3),
                txn: 3,
                cohort: 9,
                site: 0,
            },
            TraceEvent::Borrowed {
                at: SimTime(4),
                txn: 3,
                cohort: 9,
                lenders: 1,
            },
            TraceEvent::Shelved {
                at: SimTime(5),
                txn: 3,
                cohort: 9,
            },
            TraceEvent::Unshelved {
                at: SimTime(6),
                txn: 3,
                cohort: 9,
            },
            TraceEvent::Decided {
                at: SimTime(7),
                txn: 3,
                commit: true,
            },
            TraceEvent::Aborted {
                at: SimTime(8),
                txn: 3,
            },
            TraceEvent::MasterCrashed {
                at: SimTime(9),
                txn: 3,
            },
            TraceEvent::CohortCrashed {
                at: SimTime(10),
                txn: 3,
                cohort: 9,
                site: 2,
            },
            TraceEvent::CohortRecovered {
                at: SimTime(11),
                txn: 3,
                cohort: 9,
            },
            TraceEvent::MsgLost {
                at: SimTime(12),
                txn: 3,
                label: MsgLabel::Prepare,
            },
            TraceEvent::Retransmitted {
                at: SimTime(13),
                txn: 3,
                label: MsgLabel::Prepare,
                attempt: 1,
            },
            TraceEvent::TerminationStarted {
                at: SimTime(14),
                txn: 3,
                coordinator: 9,
            },
            TraceEvent::FailoverStarted {
                at: SimTime(15),
                txn: 3,
                leader: 1,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.txn(), 3);
            if i > 0 {
                assert_eq!(e.at(), SimTime(i as u64));
            }
        }
        let tr = Trace { events };
        assert_eq!(tr.forced_writes(3, LogLabel::Prepare), 1);
    }
}
