//! Linear (chained) 2PC — the §2.5 variant, implemented as an
//! extension: PREPARE rides down a chain of cohorts and the decision
//! rides back, halving the commit messages at the price of serializing
//! the protocol. §3.2 singles it out as an OPT synergy case because
//! the chain stretches the prepared state of early cohorts.

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{LogLabel, MsgLabel, Simulation, Trace, TraceEvent};
use distcommit::db::metrics::SimReport;
use distcommit::proto::ProtocolSpec;

fn conflict_free() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.db_size = 80_000;
    cfg.mpl = 1;
    cfg.run.warmup_transactions = 50;
    cfg.run.measured_transactions = 500;
    cfg
}

fn run(cfg: &SystemConfig, spec: ProtocolSpec, seed: u64) -> SimReport {
    Simulation::run(cfg, spec, seed).expect("valid config")
}

#[test]
fn linear_overheads_match_the_analytic_model() {
    let r = run(&conflict_free(), ProtocolSpec::LINEAR_2PC, 1);
    assert_eq!(r.total_aborts(), 0);
    let expect = ProtocolSpec::LINEAR_2PC.committed_overheads(3);
    assert!((r.exec_messages_per_commit - expect.exec_messages as f64).abs() < 0.1);
    assert!(
        (r.commit_messages_per_commit - expect.commit_messages as f64).abs() < 0.1,
        "commit messages {:.2}, expected {}",
        r.commit_messages_per_commit,
        expect.commit_messages
    );
    assert!((r.forced_writes_per_commit - expect.forced_writes as f64).abs() < 0.15);
}

#[test]
fn linear_commit_choreography() {
    let (_, tr) = Simulation::run_with_sink(
        &conflict_free(),
        ProtocolSpec::LINEAR_2PC,
        2,
        1,
        Trace::default(),
    )
    .unwrap();
    // Chain of 3: three ChainPrepare hops (one local), two backward
    // ChainDecision hops plus one local ChainBack.
    assert_eq!(tr.all_sends(1, MsgLabel::Prepare), 3);
    assert_eq!(tr.remote_sends(1, MsgLabel::Prepare), 2);
    assert_eq!(tr.all_sends(1, MsgLabel::DecisionCommit), 3);
    assert_eq!(tr.remote_sends(1, MsgLabel::DecisionCommit), 2);
    // No parallel-protocol machinery at all.
    assert_eq!(tr.all_sends(1, MsgLabel::VoteYes), 0);
    assert_eq!(tr.all_sends(1, MsgLabel::Ack), 0);
    // Same log records as 2PC.
    assert_eq!(tr.forced_writes(1, LogLabel::Prepare), 3);
    assert_eq!(tr.forced_writes(1, LogLabel::CohortCommit), 3);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterCommit), 1);
    // The chain serializes: every prepare record precedes the first
    // cohort commit record (the turnaround at the chain's end).
    tr.check_order(
        |e| {
            matches!(
                e,
                TraceEvent::LogDone {
                    label: LogLabel::Prepare,
                    ..
                }
            )
        },
        |e| {
            matches!(
                e,
                TraceEvent::ForceLog {
                    label: LogLabel::CohortCommit,
                    ..
                }
            )
        },
    )
    .expect("all prepares before the first commit record");
    // And the master's record is the last of all.
    tr.check_order(
        |e| {
            matches!(
                e,
                TraceEvent::LogDone {
                    label: LogLabel::CohortCommit,
                    ..
                }
            )
        },
        |e| {
            matches!(
                e,
                TraceEvent::ForceLog {
                    label: LogLabel::MasterCommit,
                    ..
                }
            )
        },
    )
    .expect("master record after every cohort commit record");
}

#[test]
fn linear_abort_unwinds_the_chain() {
    let mut cfg = conflict_free();
    cfg.cohort_abort_prob = 0.5;
    let (report, tr) =
        Simulation::run_with_sink(&cfg, ProtocolSpec::LINEAR_2PC, 3, 300, Trace::default())
            .unwrap();
    assert!(report.aborted_surprise > 0, "need some NO votes");
    // Find an aborted transaction and check its unwind.
    let mut checked = false;
    for txn in tr.txns() {
        let aborted = tr
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Aborted { txn: t, .. } if *t == txn));
        let no_vote_logs = tr.forced_writes(txn, LogLabel::NoVoteAbort);
        if aborted && no_vote_logs == 1 {
            // Prepared predecessors forced abort records; unreached
            // cohorts did not log anything.
            let prepared = tr.forced_writes(txn, LogLabel::Prepare);
            assert_eq!(
                tr.forced_writes(txn, LogLabel::CohortAbort),
                prepared,
                "txn {txn}"
            );
            assert_eq!(tr.forced_writes(txn, LogLabel::MasterAbort), 1, "txn {txn}");
            assert_eq!(
                tr.forced_writes(txn, LogLabel::CohortCommit),
                0,
                "txn {txn}"
            );
            checked = true;
            break;
        }
    }
    assert!(
        checked,
        "expected at least one single-veto abort in the trace"
    );
}

#[test]
fn linear_trades_messages_for_latency() {
    // Conflict-free and CPU-light: linear commits with half the commit
    // messages but a longer commit phase (the chain is sequential), so
    // its response time at MPL 1 is *worse* than parallel 2PC while its
    // message counts are better.
    let cfg = conflict_free();
    let par = run(&cfg, ProtocolSpec::TWO_PC, 4);
    let lin = run(&cfg, ProtocolSpec::LINEAR_2PC, 4);
    assert!(lin.commit_messages_per_commit < par.commit_messages_per_commit * 0.6);
    assert!(
        lin.mean_response_s > par.mean_response_s,
        "the chain must cost latency ({:.3}s vs {:.3}s)",
        lin.mean_response_s,
        par.mean_response_s
    );
}

#[test]
fn linear_can_win_when_cpus_saturate() {
    // At DistDegree 6 the parallel protocols drown the CPUs in message
    // processing (§5.5); linear 2PC halves that load.
    let mut cfg = SystemConfig::paper_baseline().higher_distribution();
    cfg.mpl = 8;
    cfg.run.warmup_transactions = 150;
    cfg.run.measured_transactions = 1_200;
    let par = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 5).unwrap();
    let lin = Simulation::run(&cfg, ProtocolSpec::LINEAR_2PC, 5).unwrap();
    assert!(par.utilizations.cpu > 0.7, "setup should be CPU-heavy");
    assert!(
        lin.utilizations.cpu < par.utilizations.cpu,
        "linear must relieve the CPUs ({:.2} vs {:.2})",
        lin.utilizations.cpu,
        par.utilizations.cpu
    );
}

#[test]
fn opt_linear_lends_more_than_opt_parallel() {
    // §3.2: the chain extends the prepared state, so OPT has more to
    // lend under linear 2PC than under parallel 2PC.
    let mut cfg = SystemConfig::pure_data_contention();
    cfg.mpl = 6;
    cfg.run.warmup_transactions = 150;
    cfg.run.measured_transactions = 1_200;
    let opt = Simulation::run(&cfg, ProtocolSpec::OPT_2PC, 6).unwrap();
    let opt_lin = Simulation::run(&cfg, ProtocolSpec::OPT_LINEAR_2PC, 6).unwrap();
    assert!(
        opt_lin.mean_prepared_time_s > opt.mean_prepared_time_s,
        "chained prepared state should last longer ({:.3}s vs {:.3}s)",
        opt_lin.mean_prepared_time_s,
        opt.mean_prepared_time_s
    );
    // Lending is substantial under both (the absolute borrow ratios are
    // close: the chain lends longer per cohort but also keeps fewer
    // transactions in their execution phase at once)...
    assert!(opt_lin.borrow_ratio > 1.0);
    // ...and OPT lifts the chained protocol massively — without lending
    // the long chain-held prepared locks are pure blocking.
    let lin = Simulation::run(&cfg, ProtocolSpec::LINEAR_2PC, 6).unwrap();
    let gain_linear = opt_lin.throughput / lin.throughput;
    assert!(
        gain_linear > 1.4,
        "OPT should lift linear 2PC substantially under contention, got {gain_linear:.3}x"
    );
}

#[test]
fn linear_rejects_incompatible_features() {
    let mut cfg = conflict_free();
    cfg.read_only_optimization = true;
    assert!(Simulation::run(&cfg, ProtocolSpec::LINEAR_2PC, 7).is_err());

    let mut cfg = conflict_free();
    cfg.failures = Some(distcommit::db::config::FailureConfig::master_crashes(0.01));
    assert!(Simulation::run(&cfg, ProtocolSpec::LINEAR_2PC, 7).is_err());
}

#[test]
fn linear_is_deterministic() {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.mpl = 4;
    cfg.cohort_abort_prob = 0.05;
    cfg.run.warmup_transactions = 100;
    cfg.run.measured_transactions = 600;
    let a = run(&cfg, ProtocolSpec::OPT_LINEAR_2PC, 8);
    let b = run(&cfg, ProtocolSpec::OPT_LINEAR_2PC, 8);
    assert_eq!(a.events, b.events);
    assert!((a.throughput - b.throughput).abs() < 1e-12);
}
