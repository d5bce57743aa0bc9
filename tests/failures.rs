//! Failure injection: quantifying the blocking (2PC) vs non-blocking
//! (3PC) distinction the paper argues qualitatively in §2.4. A crashed
//! blocking master strands its prepared cohorts — and their update
//! locks — until recovery; 3PC's cohorts terminate on their own after
//! a short detection timeout.

use distcommit::db::config::{FailureConfig, SystemConfig};
use distcommit::db::engine::{MsgLabel, Simulation, Trace, TraceEvent};
use distcommit::db::metrics::SimReport;
use distcommit::proto::ProtocolSpec;
use simkernel::SimDuration;

fn failing_cfg(p: f64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.mpl = 4;
    cfg.failures = Some(FailureConfig::master_crashes(p));
    cfg.run.warmup_transactions = 100;
    cfg.run.measured_transactions = 1_000;
    cfg
}

/// CI's failure matrix re-runs this suite under shifted seeds
/// (`DISTCOMMIT_TEST_SEED_OFFSET`); every assertion here is structural
/// and must hold for any seed.
fn seed_offset() -> u64 {
    std::env::var("DISTCOMMIT_TEST_SEED_OFFSET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn run(cfg: &SystemConfig, spec: ProtocolSpec, seed: u64) -> SimReport {
    Simulation::run(cfg, spec, seed + seed_offset()).expect("valid config")
}

#[test]
fn crashes_happen_at_the_configured_rate() {
    // Average the observed rate over several independent seeds: a
    // single run's rate is itself a random variable with noticeable
    // variance at 1 000 transactions, so a per-seed tolerance band is
    // either flaky or vacuous. The trials counter is the exact
    // denominator — every committed decision point rolls once.
    let mut crashes = 0u64;
    let mut trials = 0u64;
    for seed in 1..=4 {
        let r = run(&failing_cfg(0.05), ProtocolSpec::THREE_PC, seed);
        assert!(r.faults.master_crash_trials > 0);
        crashes += r.faults.master_crashes;
        trials += r.faults.master_crash_trials;
    }
    let rate = crashes as f64 / trials as f64;
    assert!(
        (rate - 0.05).abs() < 0.01,
        "crash rate {rate:.3} over {trials} trials, expected ≈ 0.05"
    );
}

#[test]
fn no_failures_without_the_config() {
    let mut cfg = failing_cfg(0.05);
    cfg.failures = None;
    let r = run(&cfg, ProtocolSpec::TWO_PC, 2);
    assert_eq!(r.faults.master_crashes, 0);
}

#[test]
fn blocking_protocols_stall_with_the_crashed_master() {
    // Even a 1% crash rate with 5 s recoveries hurts 2PC badly: every
    // crash strands ~12 update locks for 5 seconds.
    let clean = {
        let mut c = failing_cfg(0.0);
        c.failures = None;
        run(&c, ProtocolSpec::TWO_PC, 3)
    };
    let crashed = run(&failing_cfg(0.01), ProtocolSpec::TWO_PC, 3);
    assert!(crashed.faults.master_crashes > 0);
    assert!(
        crashed.throughput < clean.throughput * 0.85,
        "1% crashes should cost 2PC dearly ({:.2} vs {:.2})",
        crashed.throughput,
        clean.throughput
    );
    assert!(crashed.block_ratio > clean.block_ratio);
}

#[test]
fn three_pc_keeps_going_through_crashes() {
    let two_pc = run(&failing_cfg(0.01), ProtocolSpec::TWO_PC, 4);
    let three_pc = run(&failing_cfg(0.01), ProtocolSpec::THREE_PC, 4);
    // In the failure-free experiments 3PC trails 2PC by ~20%; under
    // even rare failures the ordering flips — the paper's §2.4
    // argument, now with a number attached.
    assert!(
        three_pc.throughput > two_pc.throughput,
        "non-blocking termination should beat blocked recovery ({:.2} vs {:.2})",
        three_pc.throughput,
        two_pc.throughput
    );
    // And the non-blocking win grows with the crash rate.
    let two_pc_heavy = run(&failing_cfg(0.05), ProtocolSpec::TWO_PC, 4);
    let three_pc_heavy = run(&failing_cfg(0.05), ProtocolSpec::THREE_PC, 4);
    assert!(
        three_pc_heavy.throughput / two_pc_heavy.throughput
            > three_pc.throughput / two_pc.throughput,
        "the non-blocking advantage should widen with the crash rate"
    );
}

#[test]
fn opt_3pc_is_the_win_win_under_failures() {
    // §5.6's "win-win" plus failures: OPT-3PC should beat plain 2PC
    // both with and without crashes.
    let crashed_2pc = run(&failing_cfg(0.02), ProtocolSpec::TWO_PC, 5);
    let crashed_opt3 = run(&failing_cfg(0.02), ProtocolSpec::OPT_3PC, 5);
    assert!(
        crashed_opt3.throughput > crashed_2pc.throughput,
        "OPT-3PC ({:.2}) should dominate 2PC ({:.2}) once failures exist",
        crashed_opt3.throughput,
        crashed_2pc.throughput
    );
}

#[test]
fn termination_choreography() {
    // Force a crash on (nearly) every transaction and inspect the
    // termination protocol of the first crashed one.
    let mut cfg = failing_cfg(1.0);
    cfg.db_size = 80_000;
    cfg.mpl = 1;
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 20;
    let (report, tr) = Simulation::run_with_sink(
        &cfg,
        ProtocolSpec::THREE_PC,
        6 + seed_offset(),
        5,
        Trace::default(),
    )
    .unwrap();
    // p = 1.0: every committed transaction crashed first; up to one
    // crashed-but-unterminated transaction per site may straddle the
    // window end.
    assert!(report.faults.master_crashes >= report.committed);
    assert!(
        report.faults.master_crashes - report.committed <= 8,
        "crashes {} vs commits {}",
        report.faults.master_crashes,
        report.committed
    );

    let crashed: Vec<u64> = tr
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::MasterCrashed { txn, .. } => Some(*txn),
            _ => None,
        })
        .collect();
    assert!(!crashed.is_empty());
    let txn = crashed[0];
    // Termination started with an elected coordinator.
    assert!(tr
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::TerminationStarted { txn: t, .. } if *t == txn)));
    // The coordinator polled the two other cohorts and they replied.
    assert_eq!(tr.all_sends(txn, MsgLabel::TermStateReq), 2);
    assert_eq!(tr.all_sends(txn, MsgLabel::TermStateRep), 2);
    // The transaction still committed (all cohorts were precommitted).
    assert!(tr
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Decided { txn: t, commit: true, .. } if *t == txn)));
}

#[test]
fn blocking_recovery_resumes_and_commits() {
    let mut cfg = failing_cfg(1.0);
    cfg.db_size = 80_000;
    cfg.mpl = 1;
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 10;
    let (report, tr) = Simulation::run_with_sink(
        &cfg,
        ProtocolSpec::TWO_PC,
        7 + seed_offset(),
        3,
        Trace::default(),
    )
    .unwrap();
    assert!(report.faults.master_crashes > 0);
    // Each crashed transaction eventually decided commit (after
    // recovery) and the response time shows the 5 s stall.
    assert!(
        report.mean_response_s > 5.0,
        "got {:.2}s",
        report.mean_response_s
    );
    let txn = 1;
    assert!(tr
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::MasterCrashed { txn: t, .. } if *t == txn)));
    assert!(tr
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Decided { txn: t, commit: true, .. } if *t == txn)));
    // No termination machinery for a blocking protocol.
    assert_eq!(tr.all_sends(txn, MsgLabel::TermStateReq), 0);
}

fn lossy_cfg(p: f64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.mpl = 4;
    cfg.failures = Some(FailureConfig {
        msg_loss_prob: p,
        ..FailureConfig::default()
    });
    cfg.run.warmup_transactions = 100;
    cfg.run.measured_transactions = 1_000;
    cfg
}

#[test]
fn message_loss_hits_both_directions() {
    // Loss applies to the whole commit dialogue, not just the
    // master's requests: cohort replies (votes, acks, WORKDONE) roll
    // the same loss die, and each lost leg is repaired by a
    // retransmission timer on whichever side sent the request.
    let mut cfg = lossy_cfg(0.1);
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 300;
    let (report, tr) = Simulation::run_with_sink(
        &cfg,
        ProtocolSpec::TWO_PC,
        9 + seed_offset(),
        300,
        Trace::default(),
    )
    .unwrap();
    assert!(report.faults.messages_lost > 0);
    assert!(report.faults.retransmissions > 0);

    let lost: Vec<MsgLabel> = tr
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::MsgLost { label, .. } => Some(*label),
            _ => None,
        })
        .collect();
    let requests = [MsgLabel::Prepare, MsgLabel::DecisionCommit];
    let replies = [MsgLabel::VoteYes, MsgLabel::Ack, MsgLabel::WorkDone];
    assert!(
        lost.iter().any(|l| requests.contains(l)),
        "no master→cohort request lost in {} losses",
        lost.len()
    );
    assert!(
        lost.iter().any(|l| replies.contains(l)),
        "no cohort→master reply lost in {} losses",
        lost.len()
    );

    // The cohort side owns the WORKDONE timer: a lost WORKDONE shows
    // up as a retransmission stamped with that label.
    assert!(tr.events.iter().any(|e| matches!(
        e,
        TraceEvent::Retransmitted {
            label: MsgLabel::WorkDone,
            ..
        }
    )));
}

#[test]
fn loss_heavy_runs_complete_for_every_protocol() {
    // Termination argument under loss: requests re-arm their timer
    // until the awaited reply is receipted, and the final
    // (escalated) attempt plus its reply are loss-exempt — so every
    // protocol drives each transaction to a decision and the run
    // reaches its measured-commit target.
    let mut cfg = lossy_cfg(0.2);
    cfg.run.warmup_transactions = 50;
    cfg.run.measured_transactions = 300;
    // CENT is absent: fully centralized execution sends no remote
    // transfers, so there is nothing to lose.
    for spec in [
        ProtocolSpec::DPCC,
        ProtocolSpec::TWO_PC,
        ProtocolSpec::PA,
        ProtocolSpec::PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::OPT_3PC,
    ] {
        let r = run(&cfg, spec, 10);
        assert_eq!(r.committed, 300, "{} under 20% loss", spec.name());
        assert!(r.faults.messages_lost > 0, "{}", spec.name());
        assert!(r.faults.retransmissions > 0, "{}", spec.name());
    }
}

#[test]
fn loss_and_crashes_compose() {
    // The worst of the matrix: replies lost while masters and cohorts
    // crash. The run must still complete deterministically.
    let mut cfg = lossy_cfg(0.1);
    cfg.failures = Some(FailureConfig {
        msg_loss_prob: 0.1,
        master_crash_prob: 0.02,
        cohort_crash_prob: 0.02,
        ..FailureConfig::default()
    });
    cfg.run.warmup_transactions = 50;
    cfg.run.measured_transactions = 300;
    for spec in [ProtocolSpec::TWO_PC, ProtocolSpec::THREE_PC] {
        let a = run(&cfg, spec, 11);
        let b = run(&cfg, spec, 11);
        assert_eq!(a.committed, 300, "{}", spec.name());
        assert!(a.faults.messages_lost > 0);
        assert_eq!(a.events, b.events, "{} not deterministic", spec.name());
        assert_eq!(a.faults.messages_lost, b.faults.messages_lost);
    }
}

#[test]
fn failures_are_deterministic() {
    let cfg = failing_cfg(0.03);
    let a = run(&cfg, ProtocolSpec::OPT_3PC, 8);
    let b = run(&cfg, ProtocolSpec::OPT_3PC, 8);
    assert_eq!(a.events, b.events);
    assert_eq!(a.faults.master_crashes, b.faults.master_crashes);
    assert!((a.throughput - b.throughput).abs() < 1e-12);
}

#[test]
fn invalid_failure_configs_are_rejected() {
    let mut cfg = failing_cfg(1.5);
    assert!(cfg.validate().is_err());
    cfg = failing_cfg(0.5);
    cfg.failures = Some(FailureConfig {
        master_crash_prob: 0.5,
        recovery_time: SimDuration::ZERO,
        ..FailureConfig::default()
    });
    assert!(cfg.validate().is_err());
}
