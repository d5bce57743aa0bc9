//! The generalized fault-injection subsystem: cohort crashes with
//! recovery-log replay, message loss with timeout/retransmission, and
//! the per-protocol fault counters that make every fault schedule
//! observable and replayable from a seed.
//!
//! The headline result locked in here is the quantitative form of the
//! paper's §2.4 blocking argument: the time prepared cohorts spend
//! blocked behind a crashed master grows with the crash probability
//! under 2PC (they wait out the full recovery), while under 3PC it
//! stays bounded by the detection timeout plus a short termination
//! protocol.

use distcommit::db::config::{FailureConfig, SystemConfig};
use distcommit::db::engine::{Observers, Simulation, Trace, TraceEvent};
use distcommit::db::metrics::SimReport;
use distcommit::proto::ProtocolSpec;

/// Run with the first `txns` transactions traced into a buffer.
fn trace_run(cfg: &SystemConfig, spec: ProtocolSpec, seed: u64, txns: u64) -> (SimReport, Trace) {
    let mut trace = Trace::default();
    let obs = Observers {
        trace: Some((txns, &mut trace)),
        series: None,
    };
    let report = Simulation::run_observed(cfg, spec, seed, obs).expect("valid config");
    (report, trace)
}

fn base_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.mpl = 4;
    cfg.run.warmup_transactions = 100;
    cfg.run.measured_transactions = 1_000;
    cfg
}

fn faulty_cfg(mc: f64, cc: f64, loss: f64) -> SystemConfig {
    let mut cfg = base_cfg();
    cfg.failures = Some(FailureConfig {
        master_crash_prob: mc,
        cohort_crash_prob: cc,
        msg_loss_prob: loss,
        ..FailureConfig::default()
    });
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

/// Identical seeds replay the identical fault schedule: every counter,
/// including the blocked-time mean, is byte-equal across runs.
#[test]
fn fault_schedules_replay_byte_identically_from_a_seed() {
    let cfg = faulty_cfg(0.02, 0.01, 0.02);
    for spec in [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_3PC,
    ] {
        let a = run(&cfg, spec, 17);
        let b = run(&cfg, spec, 17);
        assert_eq!(a.events, b.events, "{}", spec.name());
        assert_eq!(a.faults, b.faults, "{}", spec.name());
        assert_eq!(
            a.faults.mean_blocked_on_crash_s.to_bits(),
            b.faults.mean_blocked_on_crash_s.to_bits()
        );
        // The faults actually fired — this is not a vacuous comparison.
        assert!(a.faults.master_crashes > 0, "{}", spec.name());
        assert!(a.faults.cohort_crashes > 0, "{}", spec.name());
        assert!(a.faults.messages_lost > 0, "{}", spec.name());
    }
}

/// §2.4, quantified: at the same crash probability a prepared 2PC
/// cohort blocks for the whole master recovery (5 s), while a 3PC
/// cohort detects the crash in 300 ms and terminates on its own.
#[test]
fn blocked_time_under_2pc_dwarfs_3pc_and_3pc_is_bounded() {
    let cfg = faulty_cfg(0.05, 0.0, 0.0);
    let two_pc = run(&cfg, ProtocolSpec::TWO_PC, 9);
    let three_pc = run(&cfg, ProtocolSpec::THREE_PC, 9);

    assert!(two_pc.faults.blocked_on_crash_cohorts > 0);
    assert!(three_pc.faults.blocked_on_crash_cohorts > 0);

    // Blocking protocol: every crash strands its prepared cohorts for
    // the full recovery_time, so the mean sits at (or just above) 5 s.
    assert!(
        two_pc.faults.mean_blocked_on_crash_s > 4.5,
        "2PC blocked {:.3}s, expected ≈ recovery_time (5s)",
        two_pc.faults.mean_blocked_on_crash_s
    );
    // Non-blocking protocol: bounded by detection_timeout (300 ms)
    // plus the termination protocol's few message rounds.
    assert!(
        three_pc.faults.mean_blocked_on_crash_s < 1.5,
        "3PC blocked {:.3}s, expected ≲ detection_timeout + termination",
        three_pc.faults.mean_blocked_on_crash_s
    );
    assert!(
        two_pc.faults.mean_blocked_on_crash_s > 3.0 * three_pc.faults.mean_blocked_on_crash_s,
        "2PC ({:.3}s) vs 3PC ({:.3}s)",
        two_pc.faults.mean_blocked_on_crash_s,
        three_pc.faults.mean_blocked_on_crash_s
    );
    // Only 3PC runs the termination protocol; 2PC waits.
    assert!(three_pc.faults.termination_rounds > 0);
    assert_eq!(two_pc.faults.termination_rounds, 0);
}

/// Satellite property check: per protocol, the fault counters are
/// monotone in the configured master-crash probability (summed over
/// seeds to wash out per-seed noise), and exactly zero without a
/// failure config — where the Tables 3–4 overhead cross-check also
/// stays exact.
#[test]
fn fault_counters_monotone_in_crash_probability_and_zero_without_faults() {
    for spec in [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_2PC,
    ] {
        let mut prev_crashes = 0u64;
        let mut prev_blocked = 0u64;
        for (i, &p) in [0.005, 0.02, 0.08].iter().enumerate() {
            let cfg = faulty_cfg(p, 0.0, 0.0);
            let mut crashes = 0u64;
            let mut blocked = 0u64;
            for seed in 1..=3 {
                let r = run(&cfg, spec, seed);
                crashes += r.faults.master_crashes;
                blocked += r.faults.blocked_on_crash_cohorts;
            }
            assert!(
                crashes > prev_crashes || i == 0,
                "{}: crashes not monotone at p={p} ({crashes} vs {prev_crashes})",
                spec.name()
            );
            assert!(
                blocked >= prev_blocked,
                "{}: blocked cohorts not monotone at p={p}",
                spec.name()
            );
            prev_crashes = crashes;
            prev_blocked = blocked;
        }

        // failures: None ⇒ the fault paths are never entered and the
        // per-commit overhead model check is exact.
        let clean = run(&base_cfg(), spec, 1);
        assert!(
            clean.faults.is_quiet(),
            "{}: {:?}",
            spec.name(),
            clean.faults
        );
        assert!(clean.overhead_check.checked_commits > 0);
        assert!(
            clean.overhead_check.is_clean(),
            "{}: overhead mismatch {:?}",
            spec.name(),
            clean.overhead_check
        );
    }
}

/// A cohort that crashes right after forcing its prepare record comes
/// back, replays the log, and resends its vote — the transaction still
/// commits, stalled by the cohort recovery time.
#[test]
fn cohort_crash_replays_log_and_rejoins() {
    let mut cfg = faulty_cfg(0.0, 1.0, 0.0);
    // Pin the crash to the replay points: with the execution-phase
    // window also at 1.0 no transaction would ever reach PREPARE.
    cfg.failures.as_mut().unwrap().exec_crash_prob = Some(0.0);
    cfg.db_size = 80_000; // conflict-free
    cfg.mpl = 1;
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 10;
    for spec in [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::PA,
        ProtocolSpec::THREE_PC,
    ] {
        let (report, tr) = trace_run(&cfg, spec, 21 + seed_offset(), 3);
        assert!(report.faults.cohort_crashes > 0, "{}", spec.name());
        assert_eq!(
            report.committed,
            10,
            "{}: crashes must not lose txns",
            spec.name()
        );
        // Every cohort crashed once at the prepare point, so the run
        // stalls by at least the 1 s cohort recovery time per txn.
        assert!(
            report.mean_response_s > 1.0,
            "{}: got {:.2}s",
            spec.name(),
            report.mean_response_s
        );
        let crashed: Vec<(u64, u64)> = tr
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CohortCrashed { txn, cohort, .. } => Some((*txn, *cohort)),
                _ => None,
            })
            .collect();
        assert!(!crashed.is_empty(), "{}", spec.name());
        // Each crash has a matching recovery, and the txn still decided
        // commit.
        for &(txn, cohort) in &crashed {
            assert!(
                tr.events.iter().any(|e| matches!(e,
                    TraceEvent::CohortRecovered { txn: t, cohort: c, .. }
                        if *t == txn && *c == cohort)),
                "{}: cohort {cohort} never recovered",
                spec.name()
            );
            assert!(
                tr.events.iter().any(|e| matches!(e,
                    TraceEvent::Decided { txn: t, commit: true, .. } if *t == txn)),
                "{}: txn {txn} never committed",
                spec.name()
            );
        }
        // The readable timeline mentions the choreography.
        let text = tr.render_txn(crashed[0].0);
        assert!(text.contains("CRASHED"), "{}:\n{text}", spec.name());
        assert!(text.contains("recovered"), "{}:\n{text}", spec.name());
    }
}

/// 3PC's second crash point: a cohort that crashes after forcing its
/// precommit record recovers and resends the PreAck.
#[test]
fn precommitted_cohort_crash_resends_preack() {
    let mut cfg = faulty_cfg(0.0, 1.0, 0.0);
    cfg.failures.as_mut().unwrap().exec_crash_prob = Some(0.0);
    cfg.db_size = 80_000;
    cfg.mpl = 1;
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 5;
    let (report, tr) = trace_run(&cfg, ProtocolSpec::THREE_PC, 22 + seed_offset(), 2);
    assert_eq!(report.committed, 5);
    // With cc = 1.0 a 3PC cohort crashes at both forced-record points:
    // prepare and precommit. dist_degree cohorts × 2 points × ≥ 5 txns.
    assert!(
        report.faults.cohort_crashes >= 2 * report.committed,
        "expected crashes at both replay points, got {}",
        report.faults.cohort_crashes
    );
    // Both crash points appear on the same transaction's timeline.
    let txn = 1;
    let crashes = tr
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::CohortCrashed { txn: t, .. } if *t == txn))
        .count();
    assert!(crashes >= 2, "timeline shows {crashes} crash(es)");
}

/// The execution-phase crash window: a cohort that dies before its
/// WORKDONE leaves has nothing on stable storage, so recovery presumes
/// abort and the transaction restarts — visible as `aborted_crash` in
/// the report. No transaction is ever lost, and the observed rate at
/// the new trial site tracks the configured probability exactly
/// (`exec-cc` isolates the window: cc = 0 means the replay points
/// never roll, so every trial in the counter is an execution-phase
/// trial).
#[test]
fn exec_phase_crash_presumes_abort_and_restarts() {
    let mut cfg = faulty_cfg(0.0, 0.0, 0.0);
    cfg.failures.as_mut().unwrap().exec_crash_prob = Some(0.2);
    cfg.run.measured_transactions = 400;
    let (mut hits, mut trials, mut aborted) = (0u64, 0u64, 0u64);
    for seed in 1..=3 {
        let r = run(&cfg, ProtocolSpec::TWO_PC, 40 + seed);
        assert_eq!(r.committed, 400, "restarts must not lose transactions");
        assert!(r.aborted_crash > 0);
        // Every crash in this config is an execution-phase crash.
        // Several cohorts of one incarnation can crash in the same
        // execution phase (one abort), and a crash near a window
        // boundary lands its abort in the next window, so the abort
        // count is bounded by — not equal to — the crash count.
        assert!(r.aborted_crash <= r.faults.cohort_crashes);
        hits += r.faults.cohort_crashes;
        trials += r.faults.cohort_crash_trials;
        aborted += r.aborted_crash;
    }
    let rate = hits as f64 / trials as f64;
    assert!(
        (rate - 0.2).abs() < 0.02,
        "exec crash rate {rate:.3} over {trials} trials, expected ≈ 0.2"
    );
    assert!(aborted > 0);

    // exec-cc=0 closes the window: with the replay-point probability
    // also zero, the cohort-crash machinery never rolls at all.
    let mut closed = cfg.clone();
    closed.failures.as_mut().unwrap().exec_crash_prob = Some(0.0);
    let r = run(&closed, ProtocolSpec::TWO_PC, 41);
    assert_eq!(r.aborted_crash, 0);
    assert_eq!(r.faults.cohort_crash_trials, 0);
}

/// Message loss: dropped coordinator messages are retransmitted on
/// timeout until the retry budget escalates to a reliable send — no
/// transaction is ever lost, at the price of retransmissions.
#[test]
fn message_loss_is_retried_until_delivery() {
    let mut cfg = faulty_cfg(0.0, 0.0, 1.0);
    cfg.run.measured_transactions = 300;
    let r = run(&cfg, ProtocolSpec::TWO_PC, 23);
    assert_eq!(r.committed, 300, "loss must never lose transactions");
    assert!(r.faults.messages_lost > 0);
    assert!(r.faults.retransmissions > 0);
    // p = 1.0 drops every lossy attempt, so every lossy send chain
    // exhausts its budget and escalates.
    assert!(r.faults.retry_escalations > 0);
    assert!(r.faults.retransmissions >= r.faults.retry_escalations);

    // max_retransmits = 0 makes every send reliable: the loss machinery
    // never rolls at all.
    let mut reliable = cfg.clone();
    if let Some(f) = reliable.failures.as_mut() {
        f.max_retransmits = 0;
    }
    let r0 = run(&reliable, ProtocolSpec::TWO_PC, 23);
    assert_eq!(r0.committed, 300);
    assert_eq!(r0.faults.messages_lost, 0);
    assert_eq!(r0.faults.message_loss_trials, 0);
    assert_eq!(r0.faults.retransmissions, 0);
}

/// Correlated site failures scoped to one WAN region
/// (`crash-region=R`): every cohort crash in the trace lands on a site
/// of region R, the trial counter counts only eligible rolls, and the
/// blocked-time / termination-round counters match the analytic
/// expectation — under 2PC a cohort crash strands its transaction for
/// about the cohort recovery time (1 s) and never invokes the
/// termination protocol (that machinery answers *master* crashes).
#[test]
fn cohort_crashes_scoped_to_one_region_stay_in_region() {
    use distcommit::db::engine::TraceEvent;
    // 8 sites in 4 regions of 2; crashes confined to region 1 (sites
    // 2 and 3). Zero latencies keep the topology a pure crash scope.
    let mut cfg = base_cfg();
    let topology: distcommit::db::config::Topology = "regions=4".parse().unwrap();
    cfg.topology = Some(topology);
    cfg.failures = Some(FailureConfig {
        cohort_crash_prob: 0.10,
        crash_region: Some(1),
        ..FailureConfig::default()
    });
    let (report, trace) = trace_run(&cfg, ProtocolSpec::TWO_PC, 31 + seed_offset(), u64::MAX);

    // Every crash — at the execution-phase window or at a replay
    // point — must land on a site of region 1.
    let mut crashed_sites = Vec::new();
    for ev in &trace.events {
        if let TraceEvent::CohortCrashed { site, .. } = *ev {
            crashed_sites.push(site);
        }
    }
    assert!(
        crashed_sites.len() >= 2,
        "want at least two correlated in-region crashes, got {}",
        crashed_sites.len()
    );
    for &site in &crashed_sites {
        assert_eq!(
            topology.region_of(site, cfg.num_sites),
            1,
            "cohort crash at site {site} escaped region 1"
        );
    }
    // The trace spans warm-up too; the counter resets at the warm-up
    // boundary, so it can only be a subset of the traced crashes.
    assert!(report.faults.cohort_crashes > 0);
    assert!(report.faults.cohort_crashes <= crashed_sites.len() as u64);

    // Eligibility accounting: only region-1 cohorts roll the die, so
    // the unscoped twin (same seed, gate removed) sees far more trials.
    let mut unscoped_cfg = cfg.clone();
    unscoped_cfg.failures.as_mut().unwrap().crash_region = None;
    let unscoped = run(&unscoped_cfg, ProtocolSpec::TWO_PC, 31);
    assert!(report.faults.cohort_crash_trials > 0);
    assert!(
        report.faults.cohort_crash_trials < unscoped.faults.cohort_crash_trials / 2,
        "scoped trials {} vs unscoped {} — gate not applied before the bump",
        report.faults.cohort_crash_trials,
        unscoped.faults.cohort_crash_trials
    );

    // Analytic expectation: a crashed 2PC cohort holds the protocol up
    // for the cohort recovery time; siblings that prepared mid-outage
    // block for the remainder. The mean blocked time therefore sits
    // near 1 s (the recovery), and 2PC runs no termination rounds.
    assert!(report.faults.blocked_on_crash_cohorts > 0);
    assert!(
        (0.5..2.5).contains(&report.faults.mean_blocked_on_crash_s),
        "blocked {:.3}s, expected ≈ cohort recovery time (1s)",
        report.faults.mean_blocked_on_crash_s
    );
    assert_eq!(report.faults.termination_rounds, 0);
}

/// Observed fault rates track the configured probabilities, averaged
/// over seeds against the exact RNG-trial denominators — the fault
/// analogue of the Tables 3–4 overhead cross-check.
#[test]
fn observed_fault_rates_match_configured_probabilities() {
    let cfg = faulty_cfg(0.0, 0.1, 0.2);
    let (mut cc_hits, mut cc_trials) = (0u64, 0u64);
    let (mut loss_hits, mut loss_trials) = (0u64, 0u64);
    for seed in 1..=3 {
        let r = run(&cfg, ProtocolSpec::THREE_PC, seed);
        cc_hits += r.faults.cohort_crashes;
        cc_trials += r.faults.cohort_crash_trials;
        loss_hits += r.faults.messages_lost;
        loss_trials += r.faults.message_loss_trials;
    }
    let cc_rate = cc_hits as f64 / cc_trials as f64;
    let loss_rate = loss_hits as f64 / loss_trials as f64;
    assert!(
        (cc_rate - 0.1).abs() < 0.02,
        "cohort crash rate {cc_rate:.3} over {cc_trials} trials, expected ≈ 0.1"
    );
    assert!(
        (loss_rate - 0.2).abs() < 0.02,
        "loss rate {loss_rate:.3} over {loss_trials} trials, expected ≈ 0.2"
    );
}
