//! In-crate engine unit tests: small, fast checks of internal
//! machinery the integration suite exercises only indirectly.

use super::types::{CohortH, CohortPhase, LogWork, MsgKind, TxnH, Vote};
use super::{Observers, Simulation, Trace};
use crate::config::{ResourceMode, SystemConfig, TransType};
use crate::metrics::{ReportFormat, SimReport};
use commitproto::ProtocolSpec;
use simkernel::slab::Handle;
use simkernel::{SimTime, SlabKey};

/// A transaction handle literal for payload tests (generation 0).
fn th(n: u32) -> TxnH {
    TxnH::from_handle(Handle::new(n, 0))
}

/// A cohort handle literal for payload tests (generation 0).
fn ch(n: u32) -> CohortH {
    CohortH::from_handle(Handle::new(n, 0))
}

fn tiny() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.run.warmup_transactions = 10;
    cfg.run.measured_transactions = 80;
    cfg
}

fn run(cfg: &SystemConfig, spec: ProtocolSpec, seed: u64) -> SimReport {
    Simulation::run(cfg, spec, seed).expect("valid config")
}

#[test]
fn msgkind_labels_are_exhaustive_and_consistent() {
    use super::trace::MsgLabel as L;
    let cases: Vec<(MsgKind, L)> = vec![
        (MsgKind::InitCohort { cohort: ch(1) }, L::InitCohort),
        (
            MsgKind::WorkDone {
                txn: th(1),
                cohort: ch(1),
            },
            L::WorkDone,
        ),
        (MsgKind::Prepare { cohort: ch(1) }, L::Prepare),
        (
            MsgKind::Vote {
                txn: th(1),
                cohort: ch(1),
                vote: Vote::Yes,
            },
            L::VoteYes,
        ),
        (
            MsgKind::Vote {
                txn: th(1),
                cohort: ch(1),
                vote: Vote::No,
            },
            L::VoteNo,
        ),
        (
            MsgKind::Vote {
                txn: th(1),
                cohort: ch(1),
                vote: Vote::ReadOnly,
            },
            L::VoteReadOnly,
        ),
        (MsgKind::PreCommit { cohort: ch(1) }, L::PreCommit),
        (
            MsgKind::PreAck {
                txn: th(1),
                cohort: ch(1),
            },
            L::PreAck,
        ),
        (
            MsgKind::Decision {
                cohort: ch(1),
                commit: true,
            },
            L::DecisionCommit,
        ),
        (
            MsgKind::Decision {
                cohort: ch(1),
                commit: false,
            },
            L::DecisionAbort,
        ),
        (
            MsgKind::Ack {
                txn: th(1),
                cohort: ch(1),
            },
            L::Ack,
        ),
        (MsgKind::TermStateReq { cohort: ch(1) }, L::TermStateReq),
        (MsgKind::TermStateRep { txn: th(1) }, L::TermStateRep),
        (MsgKind::ChainPrepare { cohort: ch(1) }, L::Prepare),
        (
            MsgKind::ChainDecision {
                cohort: ch(1),
                commit: true,
            },
            L::DecisionCommit,
        ),
        (
            MsgKind::ChainDecision {
                cohort: ch(1),
                commit: false,
            },
            L::DecisionAbort,
        ),
        (
            MsgKind::ChainBack {
                txn: th(1),
                commit: true,
            },
            L::DecisionCommit,
        ),
        (
            MsgKind::ChainBack {
                txn: th(1),
                commit: false,
            },
            L::DecisionAbort,
        ),
    ];
    for (kind, label) in cases {
        assert_eq!(kind.label(), label, "{kind:?}");
    }
    // execution/commit classification
    assert!(MsgKind::InitCohort { cohort: ch(1) }.is_execution());
    assert!(MsgKind::WorkDone {
        txn: th(1),
        cohort: ch(1)
    }
    .is_execution());
    assert!(!MsgKind::Prepare { cohort: ch(1) }.is_execution());
    assert!(!MsgKind::ChainBack {
        txn: th(1),
        commit: true
    }
    .is_execution());
}

#[test]
fn logwork_labels_are_consistent() {
    use super::trace::LogLabel as L;
    let cases: Vec<(LogWork, L)> = vec![
        (LogWork::CohortPrepare { cohort: ch(1) }, L::Prepare),
        (LogWork::CohortNoVoteAbort { cohort: ch(1) }, L::NoVoteAbort),
        (
            LogWork::CohortPrecommit { cohort: ch(1) },
            L::CohortPrecommit,
        ),
        (
            LogWork::CohortDecision {
                cohort: ch(1),
                commit: true,
            },
            L::CohortCommit,
        ),
        (
            LogWork::CohortDecision {
                cohort: ch(1),
                commit: false,
            },
            L::CohortAbort,
        ),
        (LogWork::MasterCollecting { txn: th(1) }, L::Collecting),
        (LogWork::MasterPrecommit { txn: th(1) }, L::MasterPrecommit),
        (
            LogWork::MasterDecision {
                txn: th(1),
                commit: true,
            },
            L::MasterCommit,
        ),
        (
            LogWork::MasterDecision {
                txn: th(1),
                commit: false,
            },
            L::MasterAbort,
        ),
    ];
    for (work, label) in cases {
        assert_eq!(work.label(), label, "{work:?}");
    }
}

#[test]
fn cohort_work_complete_tracks_cursor() {
    let mut lm = distlocks::LockManager::new(false);
    let owner = lm.register_owner(1);
    let mut c = super::types::Cohort {
        id: 1,
        txn: th(1),
        site: 0,
        acc_index: 0,
        n_accesses: 2,
        next_access: 0,
        phase: CohortPhase::Executing,
        lock_owner: owner,
        waiting_lock: false,
        shelf_since: None,
        prepared_since: None,
        req_attempt: 0,
        down: false,
        wd_seen: false,
        vote_seen: false,
        preack_seen: false,
        parting_reply: None,
    };
    assert!(!c.work_complete());
    c.next_access = 2;
    assert!(c.work_complete());
}

#[test]
fn invalid_spec_and_config_combinations_are_rejected() {
    let cfg = tiny();
    // OPT over a baseline is meaningless.
    let bad = commitproto::ProtocolSpec {
        base: commitproto::BaseProtocol::Centralized,
        opt: true,
    };
    assert!(Simulation::run(&cfg, bad, 1).is_err());
    // Invalid config propagates.
    let mut bad_cfg = cfg.clone();
    bad_cfg.mpl = 0;
    assert!(Simulation::run(&bad_cfg, ProtocolSpec::TWO_PC, 1).is_err());
}

#[test]
fn every_protocol_commits_in_every_execution_mode() {
    for trans in [TransType::Parallel, TransType::Sequential] {
        for resources in [ResourceMode::Finite, ResourceMode::Infinite] {
            let mut cfg = tiny();
            cfg.trans_type = trans;
            cfg.resources = resources;
            for spec in ProtocolSpec::ALL {
                let r = run(&cfg, spec, 5);
                assert_eq!(r.committed, 80, "{} {trans:?} {resources:?}", spec.name());
                assert!(r.throughput > 0.0);
            }
        }
    }
}

#[test]
fn single_site_system_works_for_all_protocols() {
    let mut cfg = tiny();
    cfg.num_sites = 1;
    cfg.dist_degree = 1;
    cfg.db_size = 1_000;
    for spec in ProtocolSpec::ALL {
        let r = run(&cfg, spec, 6);
        assert_eq!(r.committed, 80, "{}", spec.name());
        assert!(
            r.exec_messages_per_commit < 1e-9,
            "{}: no remote messages possible",
            spec.name()
        );
        assert!(r.commit_messages_per_commit < 1e-9, "{}", spec.name());
    }
}

#[test]
fn mpl_one_single_seq_site_has_no_contention() {
    let mut cfg = tiny();
    cfg.num_sites = 1;
    cfg.dist_degree = 1;
    cfg.db_size = 1_000;
    cfg.mpl = 1;
    let r = run(&cfg, ProtocolSpec::TWO_PC, 7);
    assert_eq!(r.total_aborts(), 0);
    assert!(r.block_ratio < 1e-9);
    // single transaction: response = 1/throughput exactly
    assert!((r.mean_response_s - 1.0 / r.throughput).abs() < 1e-6);
}

#[test]
fn trace_render_txn_mentions_all_milestones() {
    let mut cfg = tiny();
    cfg.db_size = 80_000;
    cfg.mpl = 1;
    let mut trace = Trace::default();
    let obs = Observers {
        trace: Some((1, &mut trace)),
        series: None,
    };
    Simulation::run_observed(&cfg, ProtocolSpec::TWO_PC, 3, obs).unwrap();
    let text = trace.render_txn(1);
    for needle in [
        "InitCohort",
        "WorkDone",
        "Prepare",
        "PREPARED",
        "GLOBAL DECISION: COMMIT",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    assert!(text.lines().count() > 10);
}

#[test]
fn empty_trace_renders_gracefully() {
    let trace = Trace::default();
    let text = trace.render_txn(42);
    assert!(text.contains("txn 42"));
    assert!(text.contains("0 events"));
}

#[test]
fn run_control_counts_only_post_warmup_commits() {
    let mut cfg = tiny();
    cfg.run.warmup_transactions = 40;
    cfg.run.measured_transactions = 60;
    let r = run(&cfg, ProtocolSpec::TWO_PC, 8);
    assert_eq!(
        r.committed, 60,
        "only measured-window commits in the report"
    );
}

#[test]
fn zero_warmup_is_legal() {
    let mut cfg = tiny();
    cfg.run.warmup_transactions = 0;
    let r = run(&cfg, ProtocolSpec::OPT_2PC, 9);
    assert_eq!(r.committed, 80);
}

/// A run that hits its simulated-time cap says so in every format; a
/// run that commits its target renders no trace of the flag.
#[test]
fn capped_runs_are_flagged_truncated() {
    // Every cohort votes NO, so nothing ever commits and the 30 s cap
    // ends the run (the capped configuration of tests/choreography.rs).
    let mut cfg = SystemConfig::paper_baseline()
        .with_db_size(80_000)
        .with_mpl(1)
        .with_cohort_abort_prob(1.0)
        .with_run_length(0, 10);
    cfg.run.max_sim_time = Some(SimTime::from_secs(30));
    let capped = run(&cfg, ProtocolSpec::TWO_PC, 3);
    assert!(capped.truncated);
    assert_eq!(capped.committed, 0);
    // The report ends at the cap, not at the event that crossed it.
    assert_eq!(capped.sim_seconds, 30.0);
    assert!(capped.summary().contains("WARNING: TRUNCATED"));
    assert!(capped
        .render(ReportFormat::Table)
        .contains("WARNING: TRUNCATED"));
    assert!(capped
        .render(ReportFormat::Json)
        .ends_with(",\"truncated\":true}"));
    assert!(capped
        .render(ReportFormat::Csv)
        .ends_with("\nrun,truncated,1\n"));

    // The golden configuration commits its target.
    let golden = SystemConfig::paper_baseline().with_run_length(10, 80);
    let full = run(&golden, ProtocolSpec::TWO_PC, 2026);
    assert!(!full.truncated);
    for format in [ReportFormat::Table, ReportFormat::Csv, ReportFormat::Json] {
        let text = full.render(format).to_lowercase();
        assert!(!text.contains("truncated"), "{format:?}");
    }

    // One capped replication flags the merged cell.
    assert!(SimReport::merge_replications(&[full.clone(), capped]).truncated);
    assert!(!SimReport::merge_replications(&[full.clone(), full]).truncated);
}

#[test]
fn seeds_change_workloads_not_accounting() {
    let mut cfg = tiny();
    cfg.db_size = 80_000; // conflict-free: per-commit accounting exact
    cfg.mpl = 1;
    let a = run(&cfg, ProtocolSpec::PC, 1);
    let b = run(&cfg, ProtocolSpec::PC, 2);
    assert_ne!(a.events, b.events);
    assert!((a.forced_writes_per_commit - b.forced_writes_per_commit).abs() < 0.1);
    assert!((a.commit_messages_per_commit - b.commit_messages_per_commit).abs() < 0.1);
}

#[test]
fn opt_lending_under_master_crashes_leaks_no_locks() {
    // OPT lends uncommitted updates to borrowers; a master crash at the
    // decision point strands prepared lenders for the full recovery
    // time, so borrower chains must resolve only when the delayed
    // decision finally lands. This drives lending and crashes together
    // and then audits every lock table: the structural invariants hold,
    // and no cohort id that has died still holds, waits for, or borrows
    // anything. (The system is closed — the live incarnations at drain
    // time legitimately hold locks — so "no leak" means dead ids own
    // nothing.)
    use crate::config::FailureConfig;
    let mut cfg = tiny();
    cfg.mpl = 8;
    cfg.run.measured_transactions = 400;
    cfg.failures = Some(FailureConfig {
        master_crash_prob: 0.05,
        ..FailureConfig::default()
    });
    for spec in [ProtocolSpec::OPT_2PC, ProtocolSpec::OPT_3PC] {
        let mut sim = Simulation::new(&cfg, spec, 13).expect("valid config");
        sim.execute();
        let report = sim.report();
        // The scenario really exercised lending under crashes.
        assert!(report.faults.master_crashes > 0, "{}", spec.name());
        assert!(report.borrow_ratio > 0.0, "{}", spec.name());

        for (si, site) in sim.sites.iter().enumerate() {
            site.locks.audit().unwrap_or_else(|e| {
                panic!("{}: lock table corrupt at site {si}: {e}", spec.name())
            });
            // Owner registrations and live cohorts are a bijection: a
            // cohort only unregisters at teardown, and `unregister`
            // panics if the owner still holds, waits for, or borrows
            // anything — so matching counts prove dead cohorts own
            // nothing.
            let live_here = sim.cohorts.values().filter(|c| c.site == si).count();
            assert_eq!(
                site.locks.registered_count(),
                live_here,
                "{}: site {si} lock table retains dead registrations",
                spec.name()
            );
        }
        for c in sim.cohorts.values() {
            assert_eq!(
                sim.sites[c.site].locks.owner_seq(c.lock_owner),
                Some(c.id),
                "{}: cohort {} mapped to a foreign owner slot",
                spec.name(),
                c.id
            );
        }
    }
}

#[test]
fn wait_index_matches_the_lock_tables_after_every_event() {
    // Both deadlock searches read the wait-for index, which is recorded
    // when a request blocks, not the lock tables. Step a short 64-site
    // WAN + Zipf OPT run with cohort crashes and message loss, and
    // audit the index against the tables after every event: through
    // crash aborts, deadlock victims and lending the recorded blockers
    // cover the live ones, and the waiters lists of executing
    // transactions are exact.
    use crate::config::Zipf;
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_sites = 64;
    cfg.db_size = 64_000;
    cfg.zipf = Some(Zipf { theta: 0.9 });
    cfg.topology = Some(
        "regions=4,lan-ms=1,wan-ms=40,jitter=0.1"
            .parse()
            .expect("valid topology"),
    );
    // A short cohort recovery puts the crashed cohorts' aborts early.
    let faults = "cc=0.02,loss=0.01,cohort-recover-ms=100";
    cfg.failures = Some(faults.parse().expect("valid faults"));
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 20;
    let mut sim = Simulation::new(&cfg, ProtocolSpec::OPT_2PC, 42).expect("valid config");
    let mut events = 0u64;
    while !sim.done {
        let (_, event) = sim.cal.next().expect("a closed system never drains");
        sim.dispatch(event);
        events += 1;
        if let Err(e) = sim.audit_wait_index() {
            panic!("wait-for index after event {events}: {e}");
        }
    }
    let report = sim.report();
    assert!(report.aborted_crash > 0, "no crash aborts exercised");
    assert!(report.aborted_deadlock > 0, "no deadlock victims exercised");
    assert!(report.borrow_ratio > 0.0, "no lending exercised");
}

#[test]
fn recycled_buffers_are_conserved_and_bounded_by_the_closed_loop() {
    // The spare pools must neither leak (a retired template or list
    // dropped and later made again) nor grow with run length. Step the
    // event loop by hand and check after every event:
    // - every undecided incarnation and every parked restart holds one
    //   of the population's MPL × sites slots (the closed loop);
    // - no template or cohort list is ever dropped, and one is made
    //   only when the pool is empty;
    // so what exists is the most ever in use at once: the population
    // plus the decided transactions still draining their decision
    // phase, which keep their template until their cohorts finish.
    use super::types::TxnPhase;
    use crate::config::FailureConfig;
    let mut faulty = tiny();
    faulty.run.measured_transactions = 1_500;
    faulty.failures = Some(FailureConfig {
        master_crash_prob: 0.05,
        cohort_crash_prob: 0.02,
        msg_loss_prob: 0.05,
        ..FailureConfig::default()
    });
    let mut contended = tiny();
    contended.mpl = 8;
    contended.run.measured_transactions = 1_500;
    for (cfg, spec) in [
        (faulty, ProtocolSpec::THREE_PC),
        (contended, ProtocolSpec::OPT_2PC),
    ] {
        let name = spec.name();
        let mut sim = Simulation::new(&cfg, spec, 13).expect("valid config");
        let population = cfg.mpl as usize * sim.sites.len();
        let (mut templates, mut lists, mut most_decided) = (0, 0, 0);
        while !sim.done {
            let (_, event) = sim.cal.next().expect("a closed system never drains");
            sim.dispatch(event);
            let live = sim.txns.len();
            let parked = sim.restarts.len();
            let decided = sim
                .txns
                .values()
                .filter(|t| matches!(t.phase, TxnPhase::Decided { .. }))
                .count();
            most_decided = most_decided.max(decided);
            assert!(
                live - decided + parked <= population,
                "{name}: {live} live ({decided} decided) and {parked} parked exceed {population}"
            );
            let spares = &sim.spares;
            let now_templates = spares.templates.len() + live + parked;
            let now_lists = spares.cohort_lists.len() + live;
            assert_eq!(spares.acc_lists.len(), spares.cohort_lists.len(), "{name}");
            for (now, before, pooled, what) in [
                (
                    now_templates,
                    templates,
                    spares.templates.len(),
                    "templates",
                ),
                (now_lists, lists, spares.cohort_lists.len(), "cohort lists"),
            ] {
                assert!(now >= before, "{name}: {} {what} dropped", before - now);
                assert!(
                    now == before || (now == before + 1 && pooled == 0),
                    "{name}: {what} went {before} -> {now} with {pooled} spare"
                );
            }
            (templates, lists) = (now_templates, now_lists);
        }
        let report = sim.report();
        assert!(report.aborted_deadlock > 0, "{name}: no restarts exercised");
        assert!(
            templates <= population + most_decided,
            "{name}: {templates} templates"
        );
        assert!(
            lists <= population + most_decided,
            "{name}: {lists} cohort lists"
        );
        assert!(
            sim.spares.cohort_lists.iter().all(Vec::is_empty)
                && sim.spares.acc_lists.iter().all(Vec::is_empty),
            "{name}: a spare list was kept dirty"
        );
        for (si, site) in sim.sites.iter().enumerate() {
            site.locks
                .audit()
                .unwrap_or_else(|e| panic!("{name}: lock table at site {si}: {e}"));
        }
    }
}

#[test]
fn control_site_defaults_to_home() {
    // Covered indirectly everywhere; pin the accessor contract here.
    use super::types::{Txn, TxnPhase};
    use crate::workload::TxnTemplate;
    let t = Txn {
        id: 1,
        home: 3,
        template: TxnTemplate {
            home: 3,
            sites: vec![3],
            accesses: vec![vec![]],
        },
        birth: simkernel::SimTime::ZERO,
        original_birth: simkernel::SimTime::ZERO,
        cohorts: vec![ch(1)],
        phase: TxnPhase::Executing,
        pending_workdone: 1,
        pending_votes: 0,
        pending_preacks: 0,
        pending_acks: 0,
        no_vote: false,
        blocked_cohorts: 0,
        next_seq_cohort: 1,
        open_cohorts: 1,
        master_done: false,
        coordinator_site: None,
        pending_term_reps: 0,
        acc_pending: Vec::new(),
        accepts_outstanding: 0,
        pending_rep_acks: 0,
        commit_started: None,
        decided_at: None,
        msg_exec: 0,
        msg_commit: 0,
        forced: 0,
        crashed: false,
        crashed_at: None,
    };
    assert_eq!(t.control_site(), 3);
    let t2 = Txn {
        coordinator_site: Some(5),
        ..t
    };
    assert_eq!(t2.control_site(), 5);
}
