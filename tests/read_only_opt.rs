//! The Read-Only commit optimization (§3.2): cohorts without updates
//! answer PREPARE with a READ vote and drop out of phase two; a fully
//! read-only transaction commits in one phase.

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{LogLabel, MsgLabel, Observers, Simulation, Trace};
use distcommit::db::metrics::SimReport;
use distcommit::proto::{Outcome, ProtocolSpec};

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

fn ro_cfg(update_prob: f64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.db_size = 80_000; // conflict-free: counts must be exact
    cfg.mpl = 1;
    cfg.update_prob = update_prob;
    cfg.read_only_optimization = true;
    cfg.run.warmup_transactions = 50;
    cfg.run.measured_transactions = 600;
    cfg
}

#[test]
fn fully_read_only_transactions_commit_in_one_phase() {
    let cfg = ro_cfg(0.0);
    let r = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 1).unwrap();
    assert_eq!(r.total_aborts(), 0);
    // Analytic model: PREPARE out + READ votes back, nothing forced.
    let expect = ProtocolSpec::TWO_PC.overheads(Outcome {
        remote_out: 2,
        local_out: true,
        ..Outcome::commit(3)
    });
    assert!((r.commit_messages_per_commit - expect.commit_messages as f64).abs() < 0.1);
    assert!(
        r.forced_writes_per_commit < 0.05,
        "got {}",
        r.forced_writes_per_commit
    );
}

#[test]
fn read_only_choreography() {
    let cfg = ro_cfg(0.0);
    let (_, tr) = trace_run(&cfg, ProtocolSpec::TWO_PC, 1, 1);
    assert_eq!(tr.all_sends(1, MsgLabel::VoteReadOnly), 3);
    assert_eq!(tr.all_sends(1, MsgLabel::VoteYes), 0);
    assert_eq!(tr.all_sends(1, MsgLabel::DecisionCommit), 0);
    assert_eq!(tr.all_sends(1, MsgLabel::Ack), 0);
    assert_eq!(tr.forced_writes(1, LogLabel::Prepare), 0);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterCommit), 0);
}

#[test]
fn read_only_3pc_skips_the_precommit_round_when_empty() {
    let cfg = ro_cfg(0.0);
    let (r, tr) = trace_run(&cfg, ProtocolSpec::THREE_PC, 2, 1);
    assert_eq!(tr.all_sends(1, MsgLabel::PreCommit), 0);
    assert_eq!(tr.forced_writes(1, LogLabel::MasterPrecommit), 0);
    assert!(r.forced_writes_per_commit < 0.05);
}

#[test]
fn pc_still_pays_the_collecting_record() {
    let cfg = ro_cfg(0.0);
    let r = Simulation::run(&cfg, ProtocolSpec::PC, 3).unwrap();
    // The collecting record is written before the master learns that
    // everyone is read-only.
    assert!(
        (r.forced_writes_per_commit - 1.0).abs() < 0.05,
        "got {}",
        r.forced_writes_per_commit
    );
}

#[test]
fn mixed_workload_lands_between_the_extremes() {
    let full = {
        let mut c = ro_cfg(1.0);
        c.read_only_optimization = true; // irrelevant at update_prob 1
        Simulation::run(&c, ProtocolSpec::TWO_PC, 4).unwrap()
    };
    let mixed = Simulation::run(&ro_cfg(0.5), ProtocolSpec::TWO_PC, 4).unwrap();
    let none = Simulation::run(&ro_cfg(0.0), ProtocolSpec::TWO_PC, 4).unwrap();
    assert!(mixed.forced_writes_per_commit < full.forced_writes_per_commit);
    assert!(mixed.forced_writes_per_commit > none.forced_writes_per_commit);
    assert!(mixed.commit_messages_per_commit < full.commit_messages_per_commit);
}

#[test]
fn optimization_off_keeps_full_protocol_for_readers() {
    let mut cfg = ro_cfg(0.0);
    cfg.read_only_optimization = false;
    let r = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 5).unwrap();
    // Without the optimization even pure readers vote YES with forced
    // prepare records and a full second phase.
    let expect = ProtocolSpec::TWO_PC.committed_overheads(3);
    assert!((r.forced_writes_per_commit - expect.forced_writes as f64).abs() < 0.15);
    assert!((r.commit_messages_per_commit - expect.commit_messages as f64).abs() < 0.15);
}

#[test]
fn read_only_optimization_lifts_read_heavy_throughput() {
    let mut off = SystemConfig::paper_baseline();
    off.update_prob = 0.1;
    off.mpl = 4;
    off.run.warmup_transactions = 150;
    off.run.measured_transactions = 1_200;
    let mut on = off.clone();
    on.read_only_optimization = true;
    let r_off = Simulation::run(&off, ProtocolSpec::TWO_PC, 6).unwrap();
    let r_on = Simulation::run(&on, ProtocolSpec::TWO_PC, 6).unwrap();
    assert!(
        r_on.throughput > r_off.throughput * 1.02,
        "read-only optimization should pay off on a 90% read workload ({:.2} vs {:.2})",
        r_on.throughput,
        r_off.throughput
    );
    assert!(r_on.forced_writes_per_commit < r_off.forced_writes_per_commit);
}

#[test]
fn read_only_composes_with_opt_lending() {
    let mut cfg = SystemConfig::pure_data_contention();
    cfg.update_prob = 0.5;
    cfg.read_only_optimization = true;
    cfg.mpl = 6;
    cfg.run.warmup_transactions = 150;
    cfg.run.measured_transactions = 1_200;
    let r = Simulation::run(&cfg, ProtocolSpec::OPT_2PC, 7).unwrap();
    assert_eq!(r.committed, 1_200);
    assert!(
        r.borrow_ratio > 0.0,
        "lending still happens for update cohorts"
    );
}
