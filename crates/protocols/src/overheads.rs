//! The analytic overhead model (Tables 3 and 4 of the paper).
//!
//! Counts of messages and forced log writes per transaction, derived
//! from the declarative [`crate::spec::SpecTable`] row — the same data
//! the simulation engine interprets, so the two can be cross-checked
//! per transaction. Conventions, matching the paper's tables:
//!
//! * A "message" is one network transfer. The master and its
//!   co-located cohort communicate for free, so with `DistDegree = d`
//!   there are `d − 1` *remote* cohorts and e.g. 2PC commits with
//!   `4(d−1)` commit messages (PREPARE, YES, COMMIT, ACK each to/from
//!   every remote cohort) — 8 at `d = 3`, exactly Table 3.
//! * A "forced write" is one synchronous log-disk write; *every* cohort
//!   (including the master-site cohort) logs, so 2PC commits with
//!   `2d + 1` forced writes (prepare + commit per cohort, plus the
//!   master decision record) — 7 at `d = 3`.

use crate::spec::{ProtocolSpec, Routing};

/// Message and forced-write counts for one transaction outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Overheads {
    /// Messages exchanged during the execution phase (cohort initiation
    /// plus WORKDONE, remote cohorts only).
    pub exec_messages: u64,
    /// Messages exchanged by the commit protocol proper.
    pub commit_messages: u64,
    /// Synchronous (forced) log writes across all sites.
    pub forced_writes: u64,
}

impl Overheads {
    /// Total messages, execution plus commit.
    pub fn total_messages(&self) -> u64 {
        self.exec_messages + self.commit_messages
    }
}

/// One transaction outcome for the analytic model: how many cohorts
/// take part, how the transaction ends, which of them leave after
/// phase one and where the replica group sits. Message counts depend on
/// *where* the departing cohorts sit, because local messages are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Degree of distribution (number of cohorts, master site included).
    pub dist_degree: u32,
    /// The global decision.
    pub commit: bool,
    /// Remote cohorts that leave after phase one: the READ voters of a
    /// commit under the Read-Only optimization (§3.2), the NO voters of
    /// an abort (§5.7). Neither kind forces a prepare record, hears the
    /// decision or acknowledges it.
    pub remote_out: u32,
    /// Does the master-site cohort leave after phase one?
    pub local_out: bool,
    /// Replication degree F: a replica group of `2F+1` acceptors, or a
    /// coordinator replicated at `2F` backup sites.
    pub f: u32,
    /// (remote cohort, acceptor site) co-location pairs: a remote cohort
    /// on an acceptor site sends that one vote for free.
    pub colocated: u32,
}

impl Outcome {
    /// The plain commit of a `dist_degree`-cohort transaction: every
    /// cohort runs the whole protocol, and there is no replica group.
    pub fn commit(dist_degree: u32) -> Self {
        Outcome {
            dist_degree,
            commit: true,
            remote_out: 0,
            local_out: false,
            f: 0,
            colocated: 0,
        }
    }
}

impl ProtocolSpec {
    /// Overheads of one plain commit at the given degree of
    /// distribution. Reproduces Table 3 (`dist_degree = 3`) and Table 4
    /// (`dist_degree = 6`). OPT does not change the schedule, so the
    /// counts are those of the base protocol.
    pub fn committed_overheads(&self, dist_degree: u32) -> Overheads {
        self.overheads(Outcome::commit(dist_degree))
    }

    /// Overheads of one transaction outcome, from one walk of the
    /// protocol's table row:
    ///
    /// * A commit's departing cohorts vote READ and drop out (§3.2);
    ///   with all cohorts read-only the commit is one phase: PREPARE
    ///   out, READ votes back, nothing forced anywhere except PC's
    ///   collecting record, written before the master learns the votes.
    /// * An abort decided in the voting phase (the paper's "surprise
    ///   abort", §5.7): the NO voters abort unilaterally, the YES voters
    ///   reach the prepared state and are then told to abort. It never
    ///   reaches 3PC's precommit round.
    /// * `F > 0` runs the commit over a replica group. `F = 0` is the
    ///   plain protocol for every spec, which is the Gray & Lamport
    ///   theorem this crate's tests pin: Paxos Commit at `F = 0` *is*
    ///   2PC, count for count.
    ///
    /// # Panics
    ///
    /// On an outcome the model does not cover: a baseline that does
    /// anything but commit, a departing cohort under chained 2PC or the
    /// replicated family (measure those with the simulator), an abort
    /// without a NO voter, `F > 0` for a protocol without a replica
    /// group, or more co-located pairs than vote legs.
    pub fn overheads(&self, o: Outcome) -> Overheads {
        let t = self.base.table();
        assert!(o.dist_degree >= 1, "a transaction has at least one cohort");
        assert!(
            o.remote_out < o.dist_degree,
            "more departing remote cohorts than remote cohorts"
        );
        // Cohorts that leave after phase one.
        let out = u64::from(o.remote_out) + u64::from(o.local_out);
        if out > 0 || !o.commit {
            assert!(
                t.voting,
                "{} has no voting phase, so a departing cohort or an abort does not apply",
                self.name()
            );
            assert!(
                !matches!(t.routing, Routing::Chain),
                "chained 2PC has no departing cohorts: a read-only cohort would break the \
                 chain, and abort costs depend on the NO voter's chain position; measure \
                 them with the simulator instead"
            );
            assert!(
                !self.is_replicated(),
                "departing cohorts are not modelled for the replicated family: their costs \
                 depend on acceptor placement; measure them with the simulator instead"
            );
            assert!(o.commit || out > 0, "an abort needs at least one NO voter");
        }
        assert!(
            o.f == 0 || self.is_replicated(),
            "{} has no replica group and ignores the replication factor",
            self.name()
        );
        let d = u64::from(o.dist_degree);
        let r = d - 1; // remote cohorts
        let f = u64::from(o.f);
        // Cohorts, and remote cohorts, that stay past phase one.
        let stay = d - out;
        let remote_stay = r - u64::from(o.remote_out);
        let exec_messages = if t.centralized { 0 } else { 2 * r };
        if !t.voting {
            // Baselines: commit is one forced decision record.
            return Overheads {
                exec_messages,
                commit_messages: 0,
                forced_writes: 1,
            };
        }
        let mut msgs = 0;
        // Collecting record (PC) before the first phase.
        let mut forced = u64::from(t.init_record);
        // Phase 1.
        match t.routing {
            // PREPARE out, votes (YES, NO or READ) back.
            Routing::Direct => msgs += 2 * r,
            // PREPARE rides the chain through the cohorts (r remote
            // hops; the master→local-cohort hop is free), carrying the
            // accumulated vote — no separate vote messages.
            Routing::Chain => msgs += r,
            // PREPARE out as usual, but every cohort votes to all 2F+1
            // acceptors, and each acceptor reports ACCEPTED to the
            // leader. The home cohort and the leader are co-located
            // with acceptor G(0), so those legs are free.
            Routing::Quorum => {
                let colocated = u64::from(o.colocated);
                assert!(
                    colocated <= r * (2 * f + 1),
                    "more co-located acceptor pairs than vote legs"
                );
                msgs += r; // PREPARE out
                msgs += 2 * f; // home cohort's votes to the remote acceptors
                msgs += r * (2 * f + 1) - colocated; // remote cohorts' votes
                msgs += 2 * f; // ACCEPTED from the remote acceptors
                forced += 2 * f + 1; // one vote-bundle record per acceptor
            }
        }
        forced += stay; // every staying cohort forces a prepare record
        if !o.commit && t.no_vote_abort_forced {
            forced += out; // NO voters force their abort records
        }
        // A commit whose cohorts all voted READ ends here; an abort
        // still reaches the master's decision.
        if stay > 0 || !o.commit {
            // Precommit phase (3PC): PRECOMMIT out, ACK back, both
            // master and cohorts force precommit records.
            if o.commit && t.precommit {
                msgs += 2 * remote_stay;
                forced += 1 + stay;
            }
            if t.master_decision_forced.on(o.commit) {
                forced += 1;
            }
            // Replicated coordinator: the decision record is copied to
            // the 2F backup sites (and force-written there), each copy
            // acked, before the decision is announced.
            if t.replicated_decision {
                msgs += 4 * f;
                forced += 2 * f;
            }
            // The decision goes out to the staying cohorts only (for
            // Chain: the backward pass).
            msgs += remote_stay;
            if t.cohort_decision_forced.on(o.commit) {
                forced += stay;
            }
            if t.cohort_ack.on(o.commit) {
                msgs += remote_stay;
            }
        }
        Overheads {
            exec_messages,
            commit_messages: msgs,
            forced_writes: forced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oh(spec: ProtocolSpec, d: u32) -> (u64, u64, u64) {
        let o = spec.committed_overheads(d);
        (o.exec_messages, o.forced_writes, o.commit_messages)
    }

    /// Table 3 of the paper: protocol overheads at DistDegree = 3, for
    /// committing transactions. Columns: execution messages,
    /// forced writes, commit messages.
    #[test]
    fn table_3_dist_degree_3() {
        assert_eq!(oh(ProtocolSpec::TWO_PC, 3), (4, 7, 8));
        assert_eq!(oh(ProtocolSpec::PA, 3), (4, 7, 8));
        assert_eq!(oh(ProtocolSpec::PC, 3), (4, 5, 6));
        assert_eq!(oh(ProtocolSpec::THREE_PC, 3), (4, 11, 12));
        assert_eq!(oh(ProtocolSpec::DPCC, 3), (4, 1, 0));
        assert_eq!(oh(ProtocolSpec::CENT, 3), (0, 1, 0));
    }

    /// Table 4 of the paper: protocol overheads at DistDegree = 6.
    #[test]
    fn table_4_dist_degree_6() {
        assert_eq!(oh(ProtocolSpec::TWO_PC, 6), (10, 13, 20));
        assert_eq!(oh(ProtocolSpec::PA, 6), (10, 13, 20));
        assert_eq!(oh(ProtocolSpec::PC, 6), (10, 8, 15));
        assert_eq!(oh(ProtocolSpec::THREE_PC, 6), (10, 20, 30));
        assert_eq!(oh(ProtocolSpec::DPCC, 6), (10, 1, 0));
        assert_eq!(oh(ProtocolSpec::CENT, 6), (0, 1, 0));
    }

    #[test]
    fn opt_variants_share_base_overheads() {
        for d in [2, 3, 6, 10] {
            assert_eq!(
                ProtocolSpec::OPT_2PC.committed_overheads(d),
                ProtocolSpec::TWO_PC.committed_overheads(d)
            );
            assert_eq!(
                ProtocolSpec::OPT_PA.committed_overheads(d),
                ProtocolSpec::PA.committed_overheads(d)
            );
            assert_eq!(
                ProtocolSpec::OPT_PC.committed_overheads(d),
                ProtocolSpec::PC.committed_overheads(d)
            );
            assert_eq!(
                ProtocolSpec::OPT_3PC.committed_overheads(d),
                ProtocolSpec::THREE_PC.committed_overheads(d)
            );
        }
    }

    #[test]
    fn pa_commit_equals_2pc_commit() {
        // "the PA protocol behaves identically to 2PC for committing
        //  transactions" (§2.2)
        for d in 1..=12 {
            assert_eq!(
                ProtocolSpec::PA.committed_overheads(d),
                ProtocolSpec::TWO_PC.committed_overheads(d)
            );
        }
    }

    #[test]
    fn single_site_transaction_costs_no_messages() {
        let o = ProtocolSpec::TWO_PC.committed_overheads(1);
        assert_eq!(o.exec_messages, 0);
        assert_eq!(o.commit_messages, 0);
        // Still logs: cohort prepare + commit + master decision.
        assert_eq!(o.forced_writes, 3);
    }

    #[test]
    fn total_messages_adds_up() {
        let o = ProtocolSpec::THREE_PC.committed_overheads(3);
        assert_eq!(o.total_messages(), 16);
    }

    // ----- abort side (§5.7 and the protocol descriptions of §2) -----

    fn abort_all_prepared_but_one_remote(d: u32) -> Outcome {
        Outcome {
            commit: false,
            remote_out: 1,
            ..Outcome::commit(d)
        }
    }

    #[test]
    fn pa_abort_is_cheaper_than_2pc_abort() {
        let sc = abort_all_prepared_but_one_remote(3);
        let two_pc = ProtocolSpec::TWO_PC.overheads(sc);
        let pa = ProtocolSpec::PA.overheads(sc);
        // 2PC, d=3, one remote NO voter: prepared = 2.
        // forced: 2 prepare + 1 NO-voter abort + 1 master + 2 cohort aborts = 6
        // commit msgs: prepare 2 + votes 2 + abort 1 + ack 1 = 6
        assert_eq!(two_pc.forced_writes, 6);
        assert_eq!(two_pc.commit_messages, 6);
        // PA: forced: 2 prepare only; msgs: prepare 2 + votes 2 + abort 1 = 5
        assert_eq!(pa.forced_writes, 2);
        assert_eq!(pa.commit_messages, 5);
        assert!(pa.forced_writes < two_pc.forced_writes);
        assert!(pa.commit_messages < two_pc.commit_messages);
    }

    #[test]
    fn pc_abort_is_most_expensive() {
        // PC pays the collecting record *and* the full abort machinery.
        let sc = abort_all_prepared_but_one_remote(3);
        let pc = ProtocolSpec::PC.overheads(sc);
        let two_pc = ProtocolSpec::TWO_PC.overheads(sc);
        assert_eq!(pc.forced_writes, two_pc.forced_writes + 1);
        assert_eq!(pc.commit_messages, two_pc.commit_messages);
    }

    #[test]
    fn local_no_voter_saves_messages() {
        let remote = abort_all_prepared_but_one_remote(3);
        let local = Outcome {
            commit: false,
            local_out: true,
            ..Outcome::commit(3)
        };
        let a = ProtocolSpec::TWO_PC.overheads(remote);
        let b = ProtocolSpec::TWO_PC.overheads(local);
        // Same forced writes, but the local NO voter's vote is free while
        // both remote prepared cohorts must be told to abort and ACK.
        assert_eq!(a.forced_writes, b.forced_writes);
        assert_eq!(b.commit_messages - a.commit_messages, 2);
    }

    #[test]
    fn all_cohorts_vote_no() {
        let sc = Outcome {
            commit: false,
            remote_out: 2,
            local_out: true,
            ..Outcome::commit(3)
        };
        let o = ProtocolSpec::TWO_PC.overheads(sc);
        // No prepared cohorts: no abort messages, no acks.
        // msgs = prepare 2 + votes 2; forced = 3 NO-voter aborts + 1 master.
        assert_eq!(o.commit_messages, 4);
        assert_eq!(o.forced_writes, 4);
    }

    #[test]
    fn three_pc_voting_phase_abort_equals_2pc() {
        // An abort decided in the voting phase never pays precommit costs.
        let sc = abort_all_prepared_but_one_remote(6);
        assert_eq!(
            ProtocolSpec::THREE_PC.overheads(sc),
            ProtocolSpec::TWO_PC.overheads(sc)
        );
    }

    #[test]
    fn paper_quoted_abort_rates_at_27_percent() {
        // §5.7: "in the 27 percent transaction abort probability case, 2PC
        // incurs about 8.8 forced writes ... per committed transaction,
        // whereas the corresponding values for PA are 7.7".
        // Sanity-check the inputs to that arithmetic: commit costs 7 forced
        // writes and an abort with one NO voter costs 6 (2PC) vs 2 (PA), so
        // amortized overhead per *committed* txn rises with the abort rate
        // and PA's rises more slowly.
        let commit = ProtocolSpec::TWO_PC.committed_overheads(3).forced_writes as f64;
        let sc = abort_all_prepared_but_one_remote(3);
        let abort_2pc = ProtocolSpec::TWO_PC.overheads(sc).forced_writes as f64;
        let abort_pa = ProtocolSpec::PA.overheads(sc).forced_writes as f64;
        // With p = txn abort probability, mean attempts per commit is
        // 1/(1-p); extra (aborted) attempts cost the abort overheads.
        let p: f64 = 0.27;
        let per_commit_2pc = commit + p / (1.0 - p) * abort_2pc;
        let per_commit_pa = commit + p / (1.0 - p) * abort_pa;
        assert!((per_commit_2pc - 9.2).abs() < 0.5, "got {per_commit_2pc}");
        assert!((per_commit_pa - 7.7).abs() < 0.5, "got {per_commit_pa}");
        assert!(per_commit_pa < per_commit_2pc);
    }

    // ----- linear 2PC (§2.5 extension) -----

    #[test]
    fn linear_2pc_halves_commit_messages() {
        for d in [2u32, 3, 6] {
            let lin = ProtocolSpec::LINEAR_2PC.committed_overheads(d);
            let par = ProtocolSpec::TWO_PC.committed_overheads(d);
            assert_eq!(lin.commit_messages * 2, par.commit_messages, "d={d}");
            assert_eq!(lin.forced_writes, par.forced_writes, "d={d}");
            assert_eq!(lin.exec_messages, par.exec_messages, "d={d}");
        }
        // d = 3 concretely: 4 commit messages vs 2PC's 8.
        assert_eq!(
            ProtocolSpec::LINEAR_2PC
                .committed_overheads(3)
                .commit_messages,
            4
        );
    }

    #[test]
    fn opt_linear_shares_linear_costs() {
        assert_eq!(
            ProtocolSpec::OPT_LINEAR_2PC.committed_overheads(3),
            ProtocolSpec::LINEAR_2PC.committed_overheads(3)
        );
    }

    #[test]
    #[should_panic(expected = "chain position")]
    fn linear_abort_analytics_unsupported() {
        ProtocolSpec::LINEAR_2PC.overheads(abort_all_prepared_but_one_remote(3));
    }

    #[test]
    #[should_panic(expected = "break the chain")]
    fn linear_read_only_unsupported() {
        ProtocolSpec::LINEAR_2PC.overheads(Outcome {
            remote_out: 1,
            ..Outcome::commit(3)
        });
    }

    // ----- the replicated family (Gray & Lamport) -----

    #[test]
    fn paxos_at_f0_is_2pc_count_for_count() {
        // The degenerate-case theorem: one acceptor, co-located with
        // the master, makes Paxos Commit exactly 2PC.
        for d in 1..=12 {
            assert_eq!(
                ProtocolSpec::PAXOS.committed_overheads(d),
                ProtocolSpec::TWO_PC.committed_overheads(d),
                "d={d}"
            );
            assert_eq!(
                ProtocolSpec::REP_2PC.committed_overheads(d),
                ProtocolSpec::TWO_PC.committed_overheads(d),
                "d={d}"
            );
        }
    }

    #[test]
    fn paxos_f1_concrete_counts() {
        // d=3, F=1, no co-located acceptors: PREPARE 2, votes 2 (home
        // cohort) + 2*3 (remote cohorts), ACCEPTED 2, COMMIT 2, ACK 2
        // = 16 messages; forced = 3 prepare + 3 bundles + 3 cohort
        // decisions = 9 (no master decision record).
        let o = ProtocolSpec::PAXOS.overheads(Outcome {
            f: 1,
            ..Outcome::commit(3)
        });
        assert_eq!(o.exec_messages, 4);
        assert_eq!(o.commit_messages, 16);
        assert_eq!(o.forced_writes, 9);
        // Each co-located (remote cohort, acceptor) pair saves one
        // vote message and nothing else.
        let near = ProtocolSpec::PAXOS.overheads(Outcome {
            f: 1,
            colocated: 2,
            ..Outcome::commit(3)
        });
        assert_eq!(near.commit_messages, 14);
        assert_eq!(near.forced_writes, 9);
    }

    #[test]
    fn rep2pc_pays_4f_messages_and_2f_forced_over_2pc() {
        for d in [2u32, 3, 6] {
            for f in [1u32, 2] {
                let rep = ProtocolSpec::REP_2PC.overheads(Outcome {
                    f,
                    ..Outcome::commit(d)
                });
                let two = ProtocolSpec::TWO_PC.committed_overheads(d);
                assert_eq!(rep.commit_messages, two.commit_messages + 4 * f as u64);
                assert_eq!(rep.forced_writes, two.forced_writes + 2 * f as u64);
                assert_eq!(rep.exec_messages, two.exec_messages);
            }
        }
    }

    #[test]
    #[should_panic(expected = "ignores the replication factor")]
    fn classic_protocols_reject_nonzero_f() {
        ProtocolSpec::TWO_PC.overheads(Outcome {
            f: 1,
            ..Outcome::commit(3)
        });
    }

    #[test]
    #[should_panic(expected = "acceptor placement")]
    fn replicated_abort_analytics_unsupported() {
        ProtocolSpec::PAXOS.overheads(abort_all_prepared_but_one_remote(3));
    }

    #[test]
    #[should_panic(expected = "not modelled for the replicated family")]
    fn replicated_read_only_unsupported() {
        ProtocolSpec::PAXOS.overheads(Outcome {
            remote_out: 1,
            ..Outcome::commit(3)
        });
    }

    // ----- read-only optimization (§3.2) -----

    #[test]
    fn read_only_none_equals_plain_commit() {
        for spec in [
            ProtocolSpec::TWO_PC,
            ProtocolSpec::PA,
            ProtocolSpec::PC,
            ProtocolSpec::THREE_PC,
        ] {
            for d in [2, 3, 6] {
                assert_eq!(
                    spec.overheads(Outcome::commit(d)),
                    spec.committed_overheads(d),
                    "{} d={d}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn fully_read_only_transaction_is_one_phase() {
        let sc = Outcome {
            remote_out: 2,
            local_out: true,
            ..Outcome::commit(3)
        };
        let o = ProtocolSpec::TWO_PC.overheads(sc);
        // PREPARE out (2), READ votes back (2), nothing forced.
        assert_eq!(o.commit_messages, 4);
        assert_eq!(o.forced_writes, 0);
        // PC still pays its collecting record (written before the votes).
        let pc = ProtocolSpec::PC.overheads(sc);
        assert_eq!(pc.forced_writes, 1);
        // 3PC skips the whole precommit round when nobody participates.
        let tpc = ProtocolSpec::THREE_PC.overheads(sc);
        assert_eq!(tpc.commit_messages, 4);
        assert_eq!(tpc.forced_writes, 0);
    }

    #[test]
    fn partially_read_only_costs_in_between() {
        let o = ProtocolSpec::TWO_PC.overheads(Outcome {
            remote_out: 1,
            ..Outcome::commit(3)
        });
        // participants = 2 (local + 1 remote), remote participants = 1.
        // msgs: prepare 2 + votes 2 + decision 1 + ack 1 = 6
        // forced: 2 prepare + 1 master + 2 cohort commit = 5
        assert_eq!(o.commit_messages, 6);
        assert_eq!(o.forced_writes, 5);
        let full = ProtocolSpec::TWO_PC.committed_overheads(3);
        assert!(o.commit_messages < full.commit_messages);
        assert!(o.forced_writes < full.forced_writes);
    }

    #[test]
    #[should_panic(expected = "does not apply")]
    fn read_only_rejects_baselines() {
        ProtocolSpec::CENT.overheads(Outcome {
            remote_out: 1,
            ..Outcome::commit(3)
        });
    }

    #[test]
    #[should_panic(expected = "no voting phase")]
    fn baseline_abort_overheads_panic() {
        ProtocolSpec::CENT.overheads(abort_all_prepared_but_one_remote(3));
    }

    #[test]
    #[should_panic(expected = "at least one NO voter")]
    fn abort_without_no_voter_panics() {
        ProtocolSpec::TWO_PC.overheads(Outcome {
            commit: false,
            ..Outcome::commit(3)
        });
    }
}

// Exhaustive sweeps over the (small, finite) input spaces the former
// proptest suite sampled — strictly stronger coverage, no dependency.
#[cfg(test)]
mod generative_tests {
    use super::*;

    /// Structural monotonicity: overheads never decrease with the
    /// degree of distribution.
    #[test]
    fn overheads_monotone_in_dist_degree() {
        for d in 1u32..20 {
            for spec in ProtocolSpec::ALL {
                let a = spec.committed_overheads(d);
                let b = spec.committed_overheads(d + 1);
                assert!(b.exec_messages >= a.exec_messages);
                assert!(b.commit_messages >= a.commit_messages);
                assert!(b.forced_writes >= a.forced_writes);
            }
        }
    }

    /// 3PC always costs strictly more than 2PC; PC always costs no
    /// more messages/writes than 2PC (for commits).
    #[test]
    fn protocol_cost_ordering() {
        for d in 2u32..20 {
            let two = ProtocolSpec::TWO_PC.committed_overheads(d);
            let three = ProtocolSpec::THREE_PC.committed_overheads(d);
            let pc = ProtocolSpec::PC.committed_overheads(d);
            assert!(three.commit_messages > two.commit_messages);
            assert!(three.forced_writes > two.forced_writes);
            assert!(pc.commit_messages < two.commit_messages);
            assert!(pc.forced_writes < two.forced_writes);
        }
    }

    /// PA aborts are never costlier than 2PC aborts, whatever the
    /// scenario.
    #[test]
    fn pa_abort_dominates() {
        for d in 2u32..12 {
            for remote_no in 0..d {
                for local_no in [false, true] {
                    if remote_no == 0 && !local_no {
                        continue;
                    }
                    let sc = Outcome {
                        commit: false,
                        remote_out: remote_no,
                        local_out: local_no,
                        ..Outcome::commit(d)
                    };
                    let pa = ProtocolSpec::PA.overheads(sc);
                    let two = ProtocolSpec::TWO_PC.overheads(sc);
                    assert!(pa.forced_writes <= two.forced_writes);
                    assert!(pa.commit_messages <= two.commit_messages);
                }
            }
        }
    }
}
