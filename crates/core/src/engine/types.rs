//! Engine-internal types: events, resource jobs, messages, and the
//! master/cohort state machines' state.

use crate::workload::{SiteId, TxnTemplate};
use distlocks::OwnerId;
use simkernel::slab::Handle;
use simkernel::{SimTime, SlabKey};

/// A transaction identifier (globally unique, monotonically assigned).
/// External: appears in traces and debug output; never recycled.
pub type TxnId = u64;

/// A cohort identifier (globally unique, monotonically assigned).
/// External: appears in traces and is the registration sequence in the
/// per-site lock tables; never recycled.
pub type CohortId = u64;

/// Dense slab handle of a live transaction in `Simulation::txns`.
/// Generational: a handle to a finished transaction misses on lookup,
/// exactly as a stale never-recycled [`TxnId`] missed in the old map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TxnH(Handle);

impl SlabKey for TxnH {
    fn from_handle(h: Handle) -> Self {
        TxnH(h)
    }
    fn handle(self) -> Handle {
        self.0
    }
}

impl TxnH {
    /// Dense slab slot — the index for stamp arrays sized to the live
    /// transaction population (deadlock-detection scratch).
    pub(crate) fn slot(self) -> usize {
        self.0.index() as usize
    }
}

/// Dense slab handle of a live cohort in `Simulation::cohorts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CohortH(Handle);

impl SlabKey for CohortH {
    fn from_handle(h: Handle) -> Self {
        CohortH(h)
    }
    fn handle(self) -> Handle {
        self.0
    }
}

impl CohortH {
    /// Dense slab slot — the index of the cohort's wait lists in the
    /// wait-for index.
    pub(crate) fn slot(self) -> usize {
        self.0.index() as usize
    }
}

/// Dense slab handle of a parked restart in `Simulation::restarts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RestartH(Handle);

impl SlabKey for RestartH {
    fn from_handle(h: Handle) -> Self {
        RestartH(h)
    }
    fn handle(self) -> Handle {
        self.0
    }
}

/// An aborted transaction waiting out its restart delay: the template
/// its next incarnation re-executes (it "makes the same data accesses
/// as its original incarnation", §4) and the first incarnation's
/// submission instant, where its response time starts.
#[derive(Debug)]
pub(crate) struct Restart {
    pub template: TxnTemplate,
    pub original_birth: SimTime,
}

/// A simulation event.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// Submit a transaction at `home`: the parked restart `restart`, or
    /// a fresh transaction when `None`.
    Submit {
        home: SiteId,
        restart: Option<RestartH>,
    },
    /// A CPU service completed at `site`.
    CpuDone { site: SiteId, job: CpuJob },
    /// A data-disk service completed.
    DataDiskDone {
        site: SiteId,
        disk: usize,
        job: DiskJob,
    },
    /// A log-disk (forced write) service completed.
    LogDiskDone {
        site: SiteId,
        disk: usize,
        job: LogWork,
    },
    /// A group-commit batch of forced writes completed (the batch
    /// contents live in the site's batcher).
    LogBatchDone { site: SiteId, disk: usize },
    /// A crashed master recovered (blocking protocols) — resume the
    /// interrupted decision.
    MasterRecovered { txn: TxnH, commit: bool },
    /// A crashed cohort restarted: replay its last forced log record
    /// and rejoin the protocol per the recovery rule.
    CohortRecovered { cohort: CohortH },
    /// Sender-side retransmission timer for a loss-eligible message
    /// fired; retransmit if the receiver still hasn't progressed.
    MsgRetry { retry: Retry, attempt: u32 },
    /// The cohorts of a crashed 3PC master detected the failure — run
    /// the termination protocol.
    StartTermination { txn: TxnH },
    /// Zero-cost delivery of a same-site message (master and its local
    /// cohort communicate for free).
    LocalMsg { msg: Message },
    /// A remote message finished its wire flight (topology latency)
    /// and reaches the receiver's CPU queue now.
    MsgArrive { msg: Message },
}

/// Work processed by a site CPU.
#[derive(Debug, Clone)]
pub(crate) enum CpuJob {
    /// Page processing for a cohort (`PageCPU`, low priority).
    Data { cohort: CohortH },
    /// Outgoing message processing (`MsgCPU`, high priority).
    MsgSend { msg: Message },
    /// Incoming message processing (`MsgCPU`, high priority).
    MsgRecv { msg: Message },
}

/// Work processed by a data disk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DiskJob {
    /// Read one page on behalf of a cohort.
    Read { cohort: CohortH },
    /// Asynchronous post-commit write of an updated page; nothing waits
    /// on it (§4.1).
    AsyncWrite,
}

/// A forced log write and the state-machine step it unblocks (§4.3:
/// only forced writes are modeled; each costs one disk page write).
#[derive(Debug, Clone, Copy)]
pub(crate) enum LogWork {
    /// A cohort's *prepare* record; completion enters the prepared state.
    CohortPrepare { cohort: CohortH },
    /// A NO-voting cohort's forced abort record (2PC/PC/3PC; PA skips it).
    CohortNoVoteAbort { cohort: CohortH },
    /// A cohort's 3PC *precommit* record.
    CohortPrecommit { cohort: CohortH },
    /// A prepared cohort's decision record.
    CohortDecision { cohort: CohortH, commit: bool },
    /// The Presumed-Commit *collecting* record at the master.
    MasterCollecting { txn: TxnH },
    /// The master's 3PC *precommit* record.
    MasterPrecommit { txn: TxnH },
    /// The master's global decision record — its completion is the
    /// transaction's commit point.
    MasterDecision { txn: TxnH, commit: bool },
    /// Paxos Commit: acceptor `acc`'s vote bundle — one forced record
    /// covering every cohort's vote, replacing the master decision
    /// record (Gray & Lamport §5).
    AcceptorBundle { txn: TxnH, acc: u32 },
    /// Replicated 2PC: backup replica `rep`'s copy of the master
    /// decision record.
    ReplicaDecision { txn: TxnH, rep: u32 },
}

/// A loss-eligible transfer being watched by a retransmission timer
/// (message-loss injection). The timer checks the receiver's recorded
/// progress: if the message evidently arrived, the timer dies;
/// otherwise the transfer is repeated. Requests (master→cohort) carry
/// their own timers; of the replies only WORKDONE does — the others
/// (VOTE, PREACK, ACK) are re-solicited by the requester's timer
/// instead, because a repeated request is answered again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retry {
    /// A PREPARE to `cohort` (chain variant included).
    Prepare { cohort: CohortH },
    /// A 3PC PRECOMMIT to `cohort`.
    PreCommit { cohort: CohortH },
    /// The decision to `cohort`.
    Decision { cohort: CohortH, commit: bool },
    /// A WORKDONE from `cohort` back to protocol control — the one
    /// cohort→master transfer nothing would otherwise re-solicit (the
    /// master is passively collecting in the execution phase).
    WorkDone { cohort: CohortH },
}

/// A network message. Transfers between distinct sites cost `MsgCPU`
/// at the sender and at the receiver; same-site messages are free.
/// Under a topology, remote transfers additionally spend the site
/// pair's wire latency in flight between the two CPU services.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Message {
    /// Sender site — keys the wire-latency lookup.
    pub from: SiteId,
    pub to: SiteId,
    pub kind: MsgKind,
    /// Fault injection decided this transfer is lost: the sender still
    /// pays `MsgCPU`, but the receiver never processes it.
    pub lost: bool,
    /// Retransmission ordinal: 0 for the first transfer, incremented by
    /// each timer-driven resend. Receivers of a request remember the
    /// highest attempt seen and stamp it on their replies, so a reply
    /// to an escalated (final, loss-exempt) request is itself
    /// loss-exempt — that closes the termination argument for
    /// reply-direction loss.
    pub attempt: u32,
}

/// A cohort's vote in the first protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Vote {
    /// Prepared; will obey the global decision.
    Yes,
    /// Veto; the cohort aborted unilaterally.
    No,
    /// Read-Only optimization (§3.2): nothing to make durable, the
    /// cohort released its locks and drops out of phase two.
    ReadOnly,
}

/// Message payloads of the execution phase and of every commit
/// protocol's phases.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MsgKind {
    /// Master → remote site: start this cohort (execution phase).
    InitCohort { cohort: CohortH },
    /// Cohort → master: local work complete (execution phase).
    WorkDone { txn: TxnH, cohort: CohortH },
    /// Master → cohort: phase one of the vote.
    Prepare { cohort: CohortH },
    /// Cohort → master: the phase-one vote.
    Vote {
        txn: TxnH,
        cohort: CohortH,
        vote: Vote,
    },
    /// Master → cohort: 3PC precommit.
    PreCommit { cohort: CohortH },
    /// Cohort → master: 3PC precommit acknowledgement.
    PreAck { txn: TxnH, cohort: CohortH },
    /// Master → cohort: the global decision.
    Decision { cohort: CohortH, commit: bool },
    /// Cohort → master: decision acknowledgement.
    Ack { txn: TxnH, cohort: CohortH },
    /// Termination coordinator → cohort: report your protocol state.
    TermStateReq { cohort: CohortH },
    /// Cohort → termination coordinator: state report (all cohorts are
    /// precommitted at the modeled crash point).
    TermStateRep { txn: TxnH },
    /// Linear 2PC: PREPARE travelling down the chain (the accumulated
    /// vote so far is YES; a NO stops forward propagation).
    ChainPrepare { cohort: CohortH },
    /// Linear 2PC: the decision travelling back up the chain.
    ChainDecision { cohort: CohortH, commit: bool },
    /// Linear 2PC: the decision's final backward hop to the master.
    ChainBack { txn: TxnH, commit: bool },
    /// Paxos Commit: a cohort's vote, fanned out to acceptor `acc` of
    /// the home shard's replica group (instead of a single VOTE to the
    /// master).
    PaxosVote { txn: TxnH, acc: u32, yes: bool },
    /// Paxos Commit: acceptor `acc` has forced its vote bundle and
    /// reports the outcome it accepted to the leader.
    Accepted { txn: TxnH, commit: bool },
    /// Replicated 2PC: the master's decision record, copied to backup
    /// replica `rep` before the decision is announced.
    RepDecision { txn: TxnH, rep: u32 },
    /// Replicated 2PC: a backup replica has forced its copy.
    RepAck { txn: TxnH },
    /// Paxos leader failover: the new leader queries acceptor `acc` for
    /// its accepted state (the quorum-read of the recovery round).
    AccStateReq { txn: TxnH, acc: u32 },
    /// Paxos leader failover: an acceptor's state report.
    AccStateRep { txn: TxnH },
}

impl MsgKind {
    /// Execution-phase messages vs commit-phase messages — the split
    /// reported in the paper's Tables 3 and 4.
    pub fn is_execution(self) -> bool {
        matches!(self, MsgKind::InitCohort { .. } | MsgKind::WorkDone { .. })
    }

    /// The payload-free label used by the protocol trace.
    pub fn label(self) -> super::trace::MsgLabel {
        use super::trace::MsgLabel as L;
        match self {
            MsgKind::InitCohort { .. } => L::InitCohort,
            MsgKind::WorkDone { .. } => L::WorkDone,
            MsgKind::Prepare { .. } => L::Prepare,
            MsgKind::Vote {
                vote: Vote::Yes, ..
            } => L::VoteYes,
            MsgKind::Vote { vote: Vote::No, .. } => L::VoteNo,
            MsgKind::Vote {
                vote: Vote::ReadOnly,
                ..
            } => L::VoteReadOnly,
            MsgKind::PreCommit { .. } => L::PreCommit,
            MsgKind::PreAck { .. } => L::PreAck,
            MsgKind::Decision { commit: true, .. } => L::DecisionCommit,
            MsgKind::Decision { commit: false, .. } => L::DecisionAbort,
            MsgKind::Ack { .. } => L::Ack,
            MsgKind::TermStateReq { .. } => L::TermStateReq,
            MsgKind::TermStateRep { .. } => L::TermStateRep,
            // The chain hops are the linear analogues of PREPARE and
            // the decision; they share those labels in traces.
            MsgKind::ChainPrepare { .. } => L::Prepare,
            MsgKind::ChainDecision { commit: true, .. } => L::DecisionCommit,
            MsgKind::ChainDecision { commit: false, .. } => L::DecisionAbort,
            MsgKind::ChainBack { commit: true, .. } => L::DecisionCommit,
            MsgKind::ChainBack { commit: false, .. } => L::DecisionAbort,
            MsgKind::PaxosVote { yes: true, .. } => L::PaxosVoteYes,
            MsgKind::PaxosVote { yes: false, .. } => L::PaxosVoteNo,
            MsgKind::Accepted { .. } => L::Accepted,
            MsgKind::RepDecision { .. } => L::RepDecision,
            MsgKind::RepAck { .. } => L::RepAck,
            // The failover round is the replicated analogue of the 3PC
            // termination state exchange; it shares those labels.
            MsgKind::AccStateReq { .. } => L::TermStateReq,
            MsgKind::AccStateRep { .. } => L::TermStateRep,
        }
    }
}

impl LogWork {
    /// The payload-free label used by the protocol trace.
    pub fn label(self) -> super::trace::LogLabel {
        use super::trace::LogLabel as L;
        match self {
            LogWork::CohortPrepare { .. } => L::Prepare,
            LogWork::CohortNoVoteAbort { .. } => L::NoVoteAbort,
            LogWork::CohortPrecommit { .. } => L::CohortPrecommit,
            LogWork::CohortDecision { commit: true, .. } => L::CohortCommit,
            LogWork::CohortDecision { commit: false, .. } => L::CohortAbort,
            LogWork::MasterCollecting { .. } => L::Collecting,
            LogWork::MasterPrecommit { .. } => L::MasterPrecommit,
            LogWork::MasterDecision { commit: true, .. } => L::MasterCommit,
            LogWork::MasterDecision { commit: false, .. } => L::MasterAbort,
            LogWork::AcceptorBundle { .. } => L::AcceptorBundle,
            LogWork::ReplicaDecision { .. } => L::ReplicaDecision,
        }
    }
}

/// Master-side transaction phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnPhase {
    /// Data processing in progress; waiting for WORKDONE messages.
    Executing,
    /// Presumed Commit: forcing the collecting record.
    Collecting,
    /// PREPAREs sent; waiting for votes.
    Voting,
    /// 3PC: precommit round in flight.
    Precommitting,
    /// Forcing the master decision record.
    LoggingDecision { commit: bool },
    /// Decision taken and announced; draining ACKs / cohort tails.
    Decided { commit: bool },
}

/// One in-flight transaction (master side).
#[derive(Debug)]
pub(crate) struct Txn {
    /// External id — appears in traces and debug output.
    pub id: TxnId,
    pub home: SiteId,
    pub template: TxnTemplate,
    /// Submission instant of this incarnation (deadlock victims are the
    /// *youngest*, judged by this).
    pub birth: SimTime,
    /// Submission instant of the first incarnation (response time runs
    /// from here).
    pub original_birth: SimTime,
    pub cohorts: Vec<CohortH>,
    pub phase: TxnPhase,
    pub pending_workdone: usize,
    pub pending_votes: usize,
    pub pending_preacks: usize,
    pub pending_acks: usize,
    pub no_vote: bool,
    /// Cohorts currently blocked on a lock (block-ratio accounting).
    pub blocked_cohorts: u32,
    /// Next cohort to start, for sequential transactions.
    pub next_seq_cohort: usize,
    /// Cohorts not yet `Done` (cleanup refcount).
    pub open_cohorts: usize,
    /// Master has finished its part (decision taken, ACKs drained).
    pub master_done: bool,
    /// After a 3PC master crash, the site of the cohort elected as
    /// termination coordinator; protocol control moves there.
    pub coordinator_site: Option<SiteId>,
    /// Outstanding termination state reports.
    pub pending_term_reps: usize,
    /// Paxos Commit: votes still missing per acceptor of the home
    /// shard's replica group (indexed by acceptor ordinal; empty for
    /// non-quorum protocols). An acceptor forces its bundle when its
    /// entry reaches zero.
    pub acc_pending: Vec<u32>,
    /// Paxos Commit: ACCEPTED reports the leader has not yet received;
    /// cleanup waits for straggler acceptors so the overhead check sees
    /// every forced bundle.
    pub accepts_outstanding: usize,
    /// Replicated 2PC: backup replicas that have not yet acknowledged
    /// their copy of the decision record.
    pub pending_rep_acks: usize,
    /// When this incarnation entered commit processing (all WORKDONEs
    /// collected) — the execution/voting phase boundary.
    pub commit_started: Option<SimTime>,
    /// When the master's decision became durable — the voting/decision
    /// phase boundary.
    pub decided_at: Option<SimTime>,
    /// Execution-phase remote messages sent on behalf of this
    /// incarnation (overhead cross-check against Tables 3–4).
    pub msg_exec: u64,
    /// Commit-phase remote messages sent on behalf of this incarnation.
    pub msg_commit: u64,
    /// Forced log writes issued on behalf of this incarnation.
    pub forced: u64,
    /// A fault hit this incarnation (master/cohort crash or message
    /// loss) — the recovery/retransmission traffic puts it outside the
    /// analytic model.
    pub crashed: bool,
    /// Instant of the first crash that hit this incarnation, for the
    /// blocked-on-crash lock-hold accounting.
    pub crashed_at: Option<SimTime>,
}

impl Txn {
    /// The site protocol control currently lives at: the master's home,
    /// or the elected termination coordinator after a 3PC crash.
    pub fn control_site(&self) -> SiteId {
        self.coordinator_site.unwrap_or(self.home)
    }
}

/// Cohort-side phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CohortPhase {
    /// Created; initiation message still in flight (or, for sequential
    /// transactions, predecessor cohorts still running).
    Starting,
    /// Working through the access list (may be waiting on a lock, a
    /// disk, or a CPU).
    Executing,
    /// OPT: finished its work but borrowed from still-undecided
    /// lenders, so WORKDONE is withheld (§3, "put on the shelf").
    OnShelf,
    /// WORKDONE sent; all locks held; waiting for PREPARE.
    WorkDone,
    /// Forcing the prepare record.
    Preparing,
    /// Prepared: voted YES, holding update locks, waiting for the
    /// decision (lendable under OPT).
    Prepared,
    /// 3PC: forcing the precommit record.
    Precommitting,
    /// 3PC: precommit acknowledged; waiting for the final decision.
    Precommitted,
    /// Forcing the decision record. A finished cohort is normally
    /// removed from the engine's map outright…
    Deciding { commit: bool },
    /// …except under message-loss injection, where a cohort whose final
    /// reply (read-only vote, NO vote, or ACK) may have been lost
    /// lingers here — locks released, resources freed — purely to
    /// answer duplicate requests with its stored [`Cohort::parting_reply`]
    /// until the master confirms receipt.
    Parted,
}

/// One in-flight cohort.
#[derive(Debug)]
pub(crate) struct Cohort {
    /// External id — appears in traces; also the registration sequence
    /// in the site's lock table.
    pub id: CohortId,
    pub txn: TxnH,
    pub site: SiteId,
    /// Index of this cohort's access list in `txn.template.accesses`.
    /// The accesses are read from the template; they are not cloned
    /// per incarnation.
    pub acc_index: usize,
    /// Length of that access list.
    pub n_accesses: usize,
    pub next_access: usize,
    pub phase: CohortPhase,
    /// This cohort's registered owner handle in `site`'s lock table.
    pub lock_owner: OwnerId,
    /// Blocked on a lock right now (subset of `Executing`); its
    /// blockers are recorded in the wait-for index meanwhile.
    pub waiting_lock: bool,
    /// When it went on the shelf (for shelf-time statistics).
    pub shelf_since: Option<SimTime>,
    /// When it entered the prepared state (for prepared-time statistics).
    pub prepared_since: Option<SimTime>,
    /// Highest request attempt seen from protocol control; stamped on
    /// every reply so replies to escalated requests are loss-exempt
    /// (see [`Message::attempt`]).
    pub req_attempt: u32,
    /// Crashed and not yet recovered: requests delivered meanwhile are
    /// recorded (the site's log survives) but never answered — the
    /// recovery path resends the withheld reply.
    pub down: bool,
    /// Master has received this cohort's WORKDONE (kills the cohort's
    /// retransmission timer; deduplicates late resends).
    pub wd_seen: bool,
    /// Master has received this cohort's VOTE.
    pub vote_seen: bool,
    /// Master has received this cohort's PREACK.
    pub preack_seen: bool,
    /// The final reply stored when entering [`CohortPhase::Parted`],
    /// resent verbatim on duplicate requests.
    pub parting_reply: Option<MsgKind>,
}

impl Cohort {
    /// True once the cohort has issued every access.
    pub fn work_complete(&self) -> bool {
        self.next_access >= self.n_accesses
    }
}
