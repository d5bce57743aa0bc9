//! Protocol identities and the declarative spec table.
//!
//! A commit protocol here is **data, not code**: every behavioural
//! difference between the protocols of §2 of the paper (and the
//! replicated-coordinator family of Gray & Lamport's "Consensus on
//! Transaction Commit") is a column of [`SpecTable`], and each
//! [`BaseProtocol`] is one row. The simulation engine is a generic
//! interpreter of the table — it never matches on the protocol
//! identity — and the analytic overhead model of Tables 3–4
//! ([`crate::overheads`]) is derived from the same row, so the two can
//! be cross-checked per transaction.

use std::fmt;
use std::str::FromStr;

/// The message/logging schedule of a commit protocol (§2 of the paper),
/// independent of the OPT lending rule. Each variant is a row of the
/// declarative [`SpecTable`]; see [`BaseProtocol::table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseProtocol {
    /// CENT baseline (§5.1): a centralized system of equivalent
    /// aggregate resources; commit is a single forced decision record,
    /// no messages at all.
    Centralized,
    /// DPCC baseline (§5.1): "distributed processing, centralized
    /// commit" — data processing is distributed, but commit is a single
    /// forced decision record at the master and zero commit messages.
    /// Artificial by construction; an upper bound for real protocols.
    Dpcc,
    /// Classical two-phase commit (§2.1).
    TwoPC,
    /// Presumed Abort (§2.2): 2PC minus abort-side acknowledgements and
    /// forced abort records ("in case of doubt, abort").
    PresumedAbort,
    /// Presumed Commit (§2.3): commit-side acknowledgements and forced
    /// cohort commit records dropped, at the price of a forced
    /// *collecting* record at the master before the protocol starts.
    PresumedCommit,
    /// Three-phase commit (§2.4): non-blocking thanks to an extra
    /// precommit phase with its own round of messages and forced
    /// writes.
    ThreePC,
    /// Linear (chained) 2PC (§2.5, the paper's ref. \[14\]): "message
    /// overheads are
    /// reduced by ordering the sites in a linear chain for
    /// communication purposes". PREPARE travels down the chain with the
    /// accumulated vote; the decision travels back up. Message count
    /// drops from `4(d−1)` to `2(d−1)` at the price of serializing the
    /// protocol — and of a much longer prepared state for early-chain
    /// cohorts, which is precisely where OPT lending helps (§3.2).
    Linear2PC,
    /// Paxos Commit (Gray & Lamport): votes go to a replica group of
    /// `2F+1` acceptors instead of the coordinator alone; each acceptor
    /// force-writes one vote-bundle record, and the leader decides once
    /// a majority (`F+1`) of acceptors have accepted. 2PC is the `F=0`
    /// degenerate case (one acceptor, co-located with the master).
    /// Non-blocking for `F ≥ 1`: a backup acceptor takes over as leader
    /// after a coordinator crash.
    PaxosCommit,
    /// 2PC over a replicated coordinator: classical 2PC whose decision
    /// record is additionally copied (and force-written) at `2F`
    /// replica sites before the decision is announced. The replication
    /// buys durability, not availability — a coordinator that crashes
    /// *before* replicating its decision still blocks the prepared
    /// cohorts until it recovers, which is exactly the baseline Paxos
    /// Commit is measured against.
    RepTwoPC,
}

/// A per-outcome flag pair: does a rule apply on commit, on abort?
/// The presumption protocols differ from 2PC precisely in which side
/// of these pairs they drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByOutcome {
    /// The rule applies when the decision is commit.
    pub commit: bool,
    /// The rule applies when the decision is abort.
    pub abort: bool,
}

impl ByOutcome {
    /// Applies on both outcomes (2PC, 3PC).
    pub const BOTH: ByOutcome = ByOutcome {
        commit: true,
        abort: true,
    };
    /// Applies on neither outcome (the baselines; linear acks).
    pub const NEITHER: ByOutcome = ByOutcome {
        commit: false,
        abort: false,
    };
    /// Commit side only (Presumed Abort drops the abort side).
    pub const COMMIT_ONLY: ByOutcome = ByOutcome {
        commit: true,
        abort: false,
    };
    /// Abort side only (Presumed Commit drops the commit side).
    pub const ABORT_ONLY: ByOutcome = ByOutcome {
        commit: false,
        abort: true,
    };

    /// Does the rule apply for this outcome?
    pub const fn on(self, commit: bool) -> bool {
        if commit {
            self.commit
        } else {
            self.abort
        }
    }
}

/// How the voting phase's messages are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routing {
    /// Star topology: the coordinator sends PREPARE to every cohort and
    /// collects the votes itself.
    Direct,
    /// Linear 2PC: PREPARE rides a chain through the cohorts carrying
    /// the accumulated vote; the decision rides the chain back (the
    /// backward pass doubles as the acknowledgement).
    Chain,
    /// Paxos Commit: every cohort sends its vote to all `2F+1`
    /// acceptors of the transaction's replica group; acceptors report
    /// ACCEPTED to the leader, which decides at a majority.
    Quorum,
}

/// What happens to prepared cohorts when the coordinator crashes at
/// the decision point (the classic blocking window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Takeover {
    /// Nobody can take over: cohorts hold their locks until the
    /// coordinator recovers (2PC, PA, PC, linear 2PC, replicated 2PC).
    Block,
    /// 3PC: the cohorts detect the failure, elect a termination
    /// coordinator among themselves, and finish from the precommitted
    /// state.
    CohortTermination,
    /// Paxos Commit: a backup acceptor becomes leader after the
    /// detection timeout and completes the protocol from the acceptor
    /// states (needs `F ≥ 1`; the `F=0` degenerate case blocks exactly
    /// like 2PC).
    LeaderFailover,
}

/// What a restarted participant presumes about an in-doubt transaction
/// for which it finds no decision record — the "presumed" in Presumed
/// Abort / Presumed Commit. Descriptive for the engine (the replay
/// rules of [`BaseProtocol::recovery_action`] are shared); drives the
/// docs and tooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Presumption {
    /// No presumption: the in-doubt participant must ask (2PC, 3PC).
    Neither,
    /// Missing information means abort (Presumed Abort).
    Abort,
    /// Missing information means commit (Presumed Commit).
    Commit,
}

/// One row of the declarative protocol table: the complete
/// message/forced-write schedule of a commit protocol, as data.
///
/// | column | meaning |
/// |---|---|
/// | `voting` | runs a prepare/vote phase at all (baselines do not) |
/// | `init_record` | master forces a *collecting* record before phase 1 (PC) |
/// | `precommit` | inserts the 3PC precommit round |
/// | `routing` | how phase-1 messages travel ([`Routing`]) |
/// | `centralized` | all sites merge into one resource pool (CENT) |
/// | `replicated_decision` | decision record copied to `2F` replicas before announcement |
/// | `no_vote_abort_forced` | a NO voter forces its abort record before voting |
/// | `master_decision_forced` | master's decision record forced, per outcome |
/// | `cohort_decision_forced` | prepared cohort's decision record forced, per outcome |
/// | `cohort_ack` | prepared cohort acknowledges the decision, per outcome |
/// | `takeover` | what prepared cohorts do on coordinator crash ([`Takeover`]) |
/// | `presumption` | recovery presumption for in-doubt participants |
///
/// The engine interprets these columns generically; adding a protocol
/// means adding a row (plus, for a genuinely new mechanism like quorum
/// routing, teaching the interpreter the new column value once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecTable {
    /// Does the protocol run a voting (prepare) phase at all?
    pub voting: bool,
    /// Master forces a collecting record naming the cohorts before
    /// initiating the protocol (Presumed Commit).
    pub init_record: bool,
    /// Insert the 3PC precommit phase (one more message round-trip plus
    /// forced precommit records at master and every cohort).
    pub precommit: bool,
    /// Phase-1 message routing.
    pub routing: Routing,
    /// Merge every site's hardware into one station pool (CENT, §5.1).
    pub centralized: bool,
    /// Force the decision record at `2F` replica sites before the
    /// decision is announced (replicated-coordinator 2PC).
    pub replicated_decision: bool,
    /// A NO voter force-writes its abort record before sending the vote.
    pub no_vote_abort_forced: bool,
    /// Is the master's global decision record force-written?
    pub master_decision_forced: ByOutcome,
    /// Is a prepared cohort's decision record force-written?
    pub cohort_decision_forced: ByOutcome,
    /// Does a prepared cohort acknowledge the decision message?
    pub cohort_ack: ByOutcome,
    /// Crash behaviour at the decision point.
    pub takeover: Takeover,
    /// Recovery presumption for in-doubt participants.
    pub presumption: Presumption,
}

/// Shared shape of the no-voting baselines (CENT/DPCC): commit is one
/// forced decision record at the master, nothing else.
const BASELINE: SpecTable = SpecTable {
    voting: false,
    init_record: false,
    precommit: false,
    routing: Routing::Direct,
    centralized: false,
    replicated_decision: false,
    no_vote_abort_forced: false,
    master_decision_forced: ByOutcome::BOTH,
    cohort_decision_forced: ByOutcome::NEITHER,
    cohort_ack: ByOutcome::NEITHER,
    takeover: Takeover::Block,
    presumption: Presumption::Neither,
};

/// Classical 2PC — the reference row the variants are diffs against.
const TWO_PC_ROW: SpecTable = SpecTable {
    voting: true,
    init_record: false,
    precommit: false,
    routing: Routing::Direct,
    centralized: false,
    replicated_decision: false,
    no_vote_abort_forced: true,
    master_decision_forced: ByOutcome::BOTH,
    cohort_decision_forced: ByOutcome::BOTH,
    cohort_ack: ByOutcome::BOTH,
    takeover: Takeover::Block,
    presumption: Presumption::Neither,
};

impl BaseProtocol {
    /// All base protocols: the paper's seven in presentation order,
    /// then the replicated family.
    pub const ALL: [BaseProtocol; 9] = [
        BaseProtocol::Centralized,
        BaseProtocol::Dpcc,
        BaseProtocol::TwoPC,
        BaseProtocol::PresumedAbort,
        BaseProtocol::PresumedCommit,
        BaseProtocol::ThreePC,
        BaseProtocol::Linear2PC,
        BaseProtocol::PaxosCommit,
        BaseProtocol::RepTwoPC,
    ];

    /// The protocol's row of the declarative table.
    pub const fn table(self) -> SpecTable {
        match self {
            BaseProtocol::Centralized => SpecTable {
                centralized: true,
                ..BASELINE
            },
            BaseProtocol::Dpcc => BASELINE,
            BaseProtocol::TwoPC => TWO_PC_ROW,
            // "in case of doubt, abort": every abort-side overhead of
            // 2PC is dropped.
            BaseProtocol::PresumedAbort => SpecTable {
                no_vote_abort_forced: false,
                master_decision_forced: ByOutcome::COMMIT_ONLY,
                cohort_decision_forced: ByOutcome::COMMIT_ONLY,
                cohort_ack: ByOutcome::COMMIT_ONLY,
                presumption: Presumption::Abort,
                ..TWO_PC_ROW
            },
            // Commit-side cohort records and acks dropped, paid for
            // with the forced collecting record up front.
            BaseProtocol::PresumedCommit => SpecTable {
                init_record: true,
                cohort_decision_forced: ByOutcome::ABORT_ONLY,
                cohort_ack: ByOutcome::ABORT_ONLY,
                presumption: Presumption::Commit,
                ..TWO_PC_ROW
            },
            BaseProtocol::ThreePC => SpecTable {
                precommit: true,
                takeover: Takeover::CohortTermination,
                ..TWO_PC_ROW
            },
            // The backward pass of the chain *is* the acknowledgement.
            BaseProtocol::Linear2PC => SpecTable {
                routing: Routing::Chain,
                cohort_ack: ByOutcome::NEITHER,
                ..TWO_PC_ROW
            },
            // The 2F+1 forced acceptor bundles replace the master's
            // forced decision record.
            BaseProtocol::PaxosCommit => SpecTable {
                routing: Routing::Quorum,
                master_decision_forced: ByOutcome::NEITHER,
                takeover: Takeover::LeaderFailover,
                ..TWO_PC_ROW
            },
            BaseProtocol::RepTwoPC => SpecTable {
                replicated_decision: true,
                ..TWO_PC_ROW
            },
        }
    }

    /// Two-phase protocols are susceptible to blocking on master
    /// failure; a protocol is non-blocking iff some takeover rule lets
    /// the survivors finish without the crashed master.
    pub fn is_blocking(self) -> bool {
        let t = self.table();
        t.voting && matches!(t.takeover, Takeover::Block)
    }

    /// Short paper name of the base protocol.
    pub fn name(self) -> &'static str {
        match self {
            BaseProtocol::Centralized => "CENT",
            BaseProtocol::Dpcc => "DPCC",
            BaseProtocol::TwoPC => "2PC",
            BaseProtocol::PresumedAbort => "PA",
            BaseProtocol::PresumedCommit => "PC",
            BaseProtocol::ThreePC => "3PC",
            BaseProtocol::Linear2PC => "L2PC",
            BaseProtocol::PaxosCommit => "PAXOS",
            BaseProtocol::RepTwoPC => "REP2PC",
        }
    }
}

impl fmt::Display for BaseProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The last record a restarting cohort finds force-written in its log
/// for an in-doubt transaction (recovery-log replay, §2.2–2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryRecord {
    /// No forced record for the transaction survived the crash.
    None,
    /// The cohort's forced prepare record.
    Prepared,
    /// The cohort's forced 3PC precommit record.
    Precommitted,
}

/// What a restarted cohort does after replaying its log, per the
/// protocol's presumption rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryAction {
    /// No record ⇒ the cohort never voted, so the master cannot have
    /// committed; the cohort aborts unilaterally (the in-case-of-doubt
    /// rule every variant shares before the prepare record is forced).
    PresumeAbort,
    /// A prepare record ⇒ the cohort is in doubt: it re-sends its YES
    /// vote and asks the master for the outcome.
    ResendVote,
    /// A 3PC precommit record ⇒ re-send the precommit ack; the
    /// termination rule commits from this state.
    ResendPreAck,
}

impl BaseProtocol {
    /// The action a restarted cohort takes for a transaction whose last
    /// forced log record is `record`. Baselines never crash-recover a
    /// cohort (they have no cohort records), so they presume abort for
    /// every record state.
    pub fn recovery_action(self, record: RecoveryRecord) -> RecoveryAction {
        let t = self.table();
        if !t.voting {
            return RecoveryAction::PresumeAbort;
        }
        match record {
            RecoveryRecord::None => RecoveryAction::PresumeAbort,
            RecoveryRecord::Prepared => RecoveryAction::ResendVote,
            // Only 3PC writes precommit records; a precommitted cohort
            // re-announces that state so termination can commit.
            RecoveryRecord::Precommitted => {
                if t.precommit {
                    RecoveryAction::ResendPreAck
                } else {
                    RecoveryAction::ResendVote
                }
            }
        }
    }
}

/// A complete protocol choice: a base schedule plus, optionally, the
/// OPT lending rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtocolSpec {
    /// The message/logging schedule.
    pub base: BaseProtocol,
    /// Whether prepared cohorts lend uncommitted data (§3).
    pub opt: bool,
}

impl ProtocolSpec {
    /// Centralized baseline.
    pub const CENT: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::Centralized,
        opt: false,
    };
    /// Distributed-processing / centralized-commit baseline.
    pub const DPCC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::Dpcc,
        opt: false,
    };
    /// Classical two-phase commit.
    pub const TWO_PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::TwoPC,
        opt: false,
    };
    /// Presumed Abort.
    pub const PA: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::PresumedAbort,
        opt: false,
    };
    /// Presumed Commit.
    pub const PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::PresumedCommit,
        opt: false,
    };
    /// Three-phase commit.
    pub const THREE_PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::ThreePC,
        opt: false,
    };
    /// The paper's OPT (2PC base).
    pub const OPT_2PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::TwoPC,
        opt: true,
    };
    /// OPT combined with Presumed Abort.
    pub const OPT_PA: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::PresumedAbort,
        opt: true,
    };
    /// OPT combined with Presumed Commit.
    pub const OPT_PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::PresumedCommit,
        opt: true,
    };
    /// Non-blocking OPT (3PC base, §5.6).
    pub const OPT_3PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::ThreePC,
        opt: true,
    };
    /// Linear (chained) 2PC (§2.5).
    pub const LINEAR_2PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::Linear2PC,
        opt: false,
    };
    /// OPT over linear 2PC — the §3.2 synergy case (the chain extends
    /// the prepared state, so there is more to lend).
    pub const OPT_LINEAR_2PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::Linear2PC,
        opt: true,
    };
    /// Paxos Commit over a replica group of `2F+1` acceptors.
    pub const PAXOS: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::PaxosCommit,
        opt: false,
    };
    /// 2PC with the decision record replicated to `2F` backup sites.
    pub const REP_2PC: ProtocolSpec = ProtocolSpec {
        base: BaseProtocol::RepTwoPC,
        opt: false,
    };

    /// Every spec the paper evaluates, the linear-2PC extension, and
    /// the replicated family.
    pub const ALL: [ProtocolSpec; 14] = [
        ProtocolSpec::CENT,
        ProtocolSpec::DPCC,
        ProtocolSpec::TWO_PC,
        ProtocolSpec::PA,
        ProtocolSpec::PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::OPT_PA,
        ProtocolSpec::OPT_PC,
        ProtocolSpec::OPT_3PC,
        ProtocolSpec::LINEAR_2PC,
        ProtocolSpec::OPT_LINEAR_2PC,
        ProtocolSpec::PAXOS,
        ProtocolSpec::REP_2PC,
    ];

    /// The accepted spellings of every spec, in [`ProtocolSpec::ALL`]
    /// order; the first alias of each entry is the canonical name.
    /// This single vocabulary drives [`ProtocolSpec::from_str`], its
    /// error text, and the CLI usage screen (as the key tables
    /// `FailureConfig::KEYS` and `Topology::KEYS` do for `--faults`
    /// and `--topology`).
    pub const CLI_NAMES: [(ProtocolSpec, &'static [&'static str]); 14] = [
        (ProtocolSpec::CENT, &["CENT", "CENTRALIZED"]),
        (ProtocolSpec::DPCC, &["DPCC"]),
        (ProtocolSpec::TWO_PC, &["2PC"]),
        (ProtocolSpec::PA, &["PA", "PRESUMED-ABORT"]),
        (ProtocolSpec::PC, &["PC", "PRESUMED-COMMIT"]),
        (ProtocolSpec::THREE_PC, &["3PC"]),
        (ProtocolSpec::OPT_2PC, &["OPT", "OPT-2PC"]),
        (ProtocolSpec::OPT_PA, &["OPT-PA"]),
        (ProtocolSpec::OPT_PC, &["OPT-PC"]),
        (ProtocolSpec::OPT_3PC, &["OPT-3PC"]),
        (ProtocolSpec::LINEAR_2PC, &["L2PC", "LINEAR-2PC"]),
        (
            ProtocolSpec::OPT_LINEAR_2PC,
            &["OPT-L2PC", "OPT-LINEAR-2PC"],
        ),
        (ProtocolSpec::PAXOS, &["PAXOS", "PAXOS-COMMIT"]),
        (ProtocolSpec::REP_2PC, &["REP2PC", "REP-2PC"]),
    ];

    /// The canonical names, in [`ProtocolSpec::ALL`] order — the list
    /// printed by the CLI usage screen and by parse errors.
    pub fn valid_names() -> impl Iterator<Item = &'static str> {
        Self::CLI_NAMES.iter().map(|(_, aliases)| aliases[0])
    }

    /// Paper name ("OPT" alone denotes OPT on a 2PC base).
    pub fn name(self) -> &'static str {
        if !self.opt {
            return self.base.name();
        }
        match self.base {
            BaseProtocol::TwoPC => "OPT",
            BaseProtocol::PresumedAbort => "OPT-PA",
            BaseProtocol::PresumedCommit => "OPT-PC",
            BaseProtocol::ThreePC => "OPT-3PC",
            BaseProtocol::Linear2PC => "OPT-L2PC",
            // OPT over the baselines is meaningless (no prepared
            // state), and the replicated family does not model lending;
            // name misuse explicitly so it is visible.
            BaseProtocol::Centralized => "OPT-CENT(invalid)",
            BaseProtocol::Dpcc => "OPT-DPCC(invalid)",
            BaseProtocol::PaxosCommit => "OPT-PAXOS(invalid)",
            BaseProtocol::RepTwoPC => "OPT-REP2PC(invalid)",
        }
    }

    /// Is this spec meaningful? OPT needs a prepared state to lend
    /// from, so it cannot be combined with the baselines; the
    /// replicated family does not model lending.
    pub fn is_valid(self) -> bool {
        !self.opt || (self.base.table().voting && !self.is_replicated())
    }

    /// Non-blocking protocols survive master failure without stalling
    /// prepared cohorts. (Paxos Commit counts as non-blocking: its
    /// failover needs `F ≥ 1`, and `F = 0` is the 2PC degenerate case.)
    pub fn is_non_blocking(self) -> bool {
        !self.base.is_blocking()
    }

    /// Does this spec involve a replica group (acceptors or a
    /// replicated coordinator)? These are the specs that honour a
    /// nonzero replication factor `F`.
    pub fn is_replicated(self) -> bool {
        let t = self.base.table();
        matches!(t.routing, Routing::Quorum) || t.replicated_decision
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`ProtocolSpec::from_str`] for unknown names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError(pub String);

impl fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown protocol name: {:?} (valid: ", self.0)?;
        for (i, name) in ProtocolSpec::valid_names().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(name)?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseProtocolError {}

impl FromStr for ProtocolSpec {
    type Err = ParseProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let up = s.trim().to_ascii_uppercase();
        for (spec, aliases) in ProtocolSpec::CLI_NAMES {
            if aliases.iter().any(|&a| a == up) {
                return Ok(spec);
            }
        }
        Err(ParseProtocolError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parsing() {
        for spec in ProtocolSpec::ALL {
            let parsed: ProtocolSpec = spec.name().parse().unwrap();
            assert_eq!(parsed, spec, "{}", spec.name());
        }
    }

    #[test]
    fn cli_vocabulary_is_in_all_order_and_canonical() {
        assert_eq!(ProtocolSpec::CLI_NAMES.len(), ProtocolSpec::ALL.len());
        for (i, (spec, aliases)) in ProtocolSpec::CLI_NAMES.iter().enumerate() {
            assert_eq!(*spec, ProtocolSpec::ALL[i], "vocabulary order");
            assert_eq!(aliases[0], spec.name(), "first alias is canonical");
            for alias in *aliases {
                assert_eq!(alias.parse::<ProtocolSpec>().unwrap(), *spec, "{alias}");
            }
        }
    }

    #[test]
    fn parsing_is_case_insensitive() {
        assert_eq!(
            "opt-3pc".parse::<ProtocolSpec>().unwrap(),
            ProtocolSpec::OPT_3PC
        );
        assert_eq!(
            " 2pc ".parse::<ProtocolSpec>().unwrap(),
            ProtocolSpec::TWO_PC
        );
        assert_eq!(
            "paxos-commit".parse::<ProtocolSpec>().unwrap(),
            ProtocolSpec::PAXOS
        );
    }

    #[test]
    fn unknown_name_errors_list_the_vocabulary() {
        let err = "4PC".parse::<ProtocolSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("4PC"));
        // The error names every valid spelling's canonical form.
        for name in ProtocolSpec::valid_names() {
            assert!(msg.contains(name), "error text misses {name}");
        }
    }

    #[test]
    fn blocking_classification_matches_paper() {
        // "two-phase commit protocols are susceptible to blocking whereas
        //  three-phase commit protocols are non-blocking"
        assert!(!ProtocolSpec::TWO_PC.is_non_blocking());
        assert!(!ProtocolSpec::PA.is_non_blocking());
        assert!(!ProtocolSpec::PC.is_non_blocking());
        assert!(ProtocolSpec::THREE_PC.is_non_blocking());
        assert!(ProtocolSpec::OPT_3PC.is_non_blocking());
        assert!(!ProtocolSpec::OPT_2PC.is_non_blocking());
        // The replicated family: consensus fails over, a replicated
        // log alone does not.
        assert!(ProtocolSpec::PAXOS.is_non_blocking());
        assert!(!ProtocolSpec::REP_2PC.is_non_blocking());
    }

    #[test]
    fn opt_requires_a_voting_phase() {
        assert!(ProtocolSpec::OPT_2PC.is_valid());
        assert!(ProtocolSpec::OPT_3PC.is_valid());
        for base in [
            BaseProtocol::Centralized,
            BaseProtocol::Dpcc,
            BaseProtocol::PaxosCommit,
            BaseProtocol::RepTwoPC,
        ] {
            assert!(!ProtocolSpec { base, opt: true }.is_valid(), "{base}");
        }
        for spec in ProtocolSpec::ALL {
            assert!(spec.is_valid());
        }
    }

    #[test]
    fn replicated_family_classification() {
        for spec in ProtocolSpec::ALL {
            let expect = matches!(
                spec.base,
                BaseProtocol::PaxosCommit | BaseProtocol::RepTwoPC
            );
            assert_eq!(spec.is_replicated(), expect, "{}", spec.name());
        }
    }

    #[test]
    fn presumed_abort_row() {
        let pa = BaseProtocol::PresumedAbort.table();
        // PA behaves identically to 2PC for committing transactions...
        assert!(pa.master_decision_forced.on(true));
        assert!(pa.cohort_decision_forced.on(true));
        assert!(pa.cohort_ack.on(true));
        // ...but drops all abort-side overheads.
        assert!(!pa.master_decision_forced.on(false));
        assert!(!pa.cohort_decision_forced.on(false));
        assert!(!pa.cohort_ack.on(false));
        assert!(!pa.no_vote_abort_forced);
        assert_eq!(pa.presumption, Presumption::Abort);
    }

    #[test]
    fn presumed_commit_row() {
        let pc = BaseProtocol::PresumedCommit.table();
        assert!(pc.init_record);
        assert!(pc.master_decision_forced.on(true));
        // cohorts neither force the commit record nor ACK commit...
        assert!(!pc.cohort_decision_forced.on(true));
        assert!(!pc.cohort_ack.on(true));
        // ...but pay full price on abort.
        assert!(pc.cohort_decision_forced.on(false));
        assert!(pc.cohort_ack.on(false));
        assert!(pc.no_vote_abort_forced);
        assert_eq!(pc.presumption, Presumption::Commit);
    }

    #[test]
    fn three_pc_has_extra_phase() {
        assert!(BaseProtocol::ThreePC.table().precommit);
        assert_eq!(
            BaseProtocol::ThreePC.table().takeover,
            Takeover::CohortTermination
        );
    }

    #[test]
    fn baselines_have_no_voting() {
        for b in [BaseProtocol::Centralized, BaseProtocol::Dpcc] {
            let t = b.table();
            assert!(!t.voting);
            assert_eq!(t.cohort_decision_forced, ByOutcome::NEITHER);
            assert_eq!(t.cohort_ack, ByOutcome::NEITHER);
            assert!(t.master_decision_forced.on(true));
            assert!(t.master_decision_forced.on(false));
        }
        assert!(BaseProtocol::Centralized.table().centralized);
        assert!(!BaseProtocol::Dpcc.table().centralized);
    }

    #[test]
    fn linear_row_chains_without_acks() {
        let lin = BaseProtocol::Linear2PC.table();
        assert_eq!(lin.routing, Routing::Chain);
        // The backward pass of the chain *is* the acknowledgement.
        assert_eq!(lin.cohort_ack, ByOutcome::NEITHER);
        assert_eq!(lin.cohort_decision_forced, ByOutcome::BOTH);
        assert_eq!(lin.takeover, Takeover::Block);
    }

    #[test]
    fn paxos_row_replaces_the_master_record_with_acceptor_bundles() {
        let px = BaseProtocol::PaxosCommit.table();
        assert_eq!(px.routing, Routing::Quorum);
        assert_eq!(px.master_decision_forced, ByOutcome::NEITHER);
        assert_eq!(px.cohort_decision_forced, ByOutcome::BOTH);
        assert_eq!(px.cohort_ack, ByOutcome::BOTH);
        assert_eq!(px.takeover, Takeover::LeaderFailover);
        assert!(!px.replicated_decision);
    }

    #[test]
    fn rep2pc_row_is_2pc_plus_replica_copies() {
        let rep = BaseProtocol::RepTwoPC.table();
        let two = BaseProtocol::TwoPC.table();
        assert!(rep.replicated_decision);
        assert_eq!(
            SpecTable {
                replicated_decision: false,
                ..rep
            },
            two
        );
    }

    #[test]
    fn by_outcome_truth_table() {
        assert!(ByOutcome::BOTH.on(true) && ByOutcome::BOTH.on(false));
        assert!(!ByOutcome::NEITHER.on(true) && !ByOutcome::NEITHER.on(false));
        assert!(ByOutcome::COMMIT_ONLY.on(true) && !ByOutcome::COMMIT_ONLY.on(false));
        assert!(!ByOutcome::ABORT_ONLY.on(true) && ByOutcome::ABORT_ONLY.on(false));
    }

    #[test]
    fn recovery_replay_follows_presumption_rules() {
        use RecoveryAction::*;
        use RecoveryRecord::*;
        // No forced record: every protocol presumes abort.
        for b in BaseProtocol::ALL {
            assert_eq!(b.recovery_action(None), PresumeAbort, "{b}");
        }
        // A prepare record leaves a voting cohort in doubt.
        for b in BaseProtocol::ALL {
            if b.table().voting {
                assert_eq!(b.recovery_action(Prepared), ResendVote, "{b}");
            }
        }
        // Only 3PC recovers into the precommitted state.
        assert_eq!(
            BaseProtocol::ThreePC.recovery_action(Precommitted),
            ResendPreAck
        );
        assert_eq!(
            BaseProtocol::TwoPC.recovery_action(Precommitted),
            ResendVote
        );
        // Baselines have no cohort log records at all.
        assert_eq!(
            BaseProtocol::Centralized.recovery_action(Prepared),
            PresumeAbort
        );
        assert_eq!(
            BaseProtocol::Dpcc.recovery_action(Precommitted),
            PresumeAbort
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ProtocolSpec::OPT_2PC.to_string(), "OPT");
        assert_eq!(ProtocolSpec::TWO_PC.to_string(), "2PC");
        assert_eq!(ProtocolSpec::CENT.to_string(), "CENT");
        assert_eq!(BaseProtocol::PresumedCommit.to_string(), "PC");
        assert_eq!(ProtocolSpec::PAXOS.to_string(), "PAXOS");
        assert_eq!(ProtocolSpec::REP_2PC.to_string(), "REP2PC");
    }
}
