//! Generative tests over the whole engine: random (valid)
//! configurations and protocols must always produce runs that satisfy
//! the global invariants — completion, conservation, metric sanity,
//! and agreement with the analytic overhead model when conflict-free.
//!
//! Formerly a proptest suite; rewritten as deterministic seeded loops
//! so the test baseline needs no external crates.

use distcommit::db::config::{ResourceMode, SystemConfig, Topology, TransType};
use distcommit::db::engine::Simulation;
use distcommit::proto::ProtocolSpec;
use distcommit::sim::SimRng;
use simkernel::SimDuration;

fn random_protocol(r: &mut SimRng) -> ProtocolSpec {
    *r.pick(&ProtocolSpec::ALL)
}

fn random_config(r: &mut SimRng) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    let sites = r.uniform_usize(2, 8);
    cfg.num_sites = sites;
    cfg.dist_degree = (r.uniform_u64(1, 4) as u32).min(sites as u32);
    cfg.cohort_size = r.uniform_u64(2, 8) as u32;
    cfg.update_prob = r.uniform_u64(0, 10) as f64 / 10.0;
    cfg.num_cpus = r.uniform_u64(1, 2) as u32;
    cfg.num_data_disks = r.uniform_u64(1, 3) as u32;
    cfg.num_log_disks = r.uniform_u64(1, 2) as u32;
    cfg.mpl = r.uniform_u64(1, 6) as u32;
    cfg.trans_type = if r.chance(0.5) {
        TransType::Sequential
    } else {
        TransType::Parallel
    };
    cfg.resources = if r.chance(0.5) {
        ResourceMode::Infinite
    } else {
        ResourceMode::Finite
    };
    cfg.cohort_abort_prob = r.uniform_u64(0, 1) as f64 * 0.05;
    // keep the hot path fast and the page pool valid
    let pps = r.uniform_u64(50, 600).max(cfg.max_cohort_pages() * 2);
    cfg.db_size = pps * sites as u64;
    cfg.page_cpu = SimDuration::from_millis(5);
    cfg.run.warmup_transactions = 20;
    cfg.run.measured_transactions = 150;
    // Skew and wire delays give hot queues and deadlocks, which debug
    // runs cross-check against `find_cycle` at every block and audit
    // in every lock table when they end.
    if r.chance(0.5) {
        cfg = cfg.with_zipf(*r.pick(&[0.5, 0.9, 1.2]));
    }
    if r.chance(0.5) {
        cfg = cfg.with_topology(Topology {
            regions: r.uniform_usize(1, 4).min(sites),
            wan_latency: SimDuration::from_millis(r.uniform_u64(5, 40)),
            ..Topology::default()
        });
    }
    cfg
}

/// Any valid configuration × protocol × seed runs to completion
/// with sane metrics.
#[test]
fn random_configs_run_clean() {
    let mut meta = SimRng::new(0xE16E_0001);
    let (mut cases, mut deadlock_aborts) = (0, 0);
    while cases < 24 {
        let cfg = random_config(&mut meta);
        let spec = random_protocol(&mut meta);
        let seed = meta.uniform_u64(0, 999);
        if cfg.validate().is_err() || !spec.is_valid() {
            continue;
        }
        cases += 1;
        let r = Simulation::run(&cfg, spec, seed)
            .unwrap_or_else(|e| panic!("rejected ({}, seed {seed}): {e}", spec.name()));
        assert_eq!(r.committed, 150, "run must reach its commit target");
        assert!(r.throughput > 0.0);
        assert!(r.sim_seconds > 0.0);
        assert!(
            (0.0..=1.0).contains(&r.block_ratio),
            "block ratio {}",
            r.block_ratio
        );
        assert!(r.mean_response_s > 0.0);
        assert!(r.p50_response_s <= r.p95_response_s && r.p95_response_s <= r.p99_response_s);
        if cfg.resources == ResourceMode::Finite {
            assert!(r.utilizations.cpu <= 1.0 + 1e-9);
            assert!(r.utilizations.data_disk <= 1.0 + 1e-9);
            assert!(r.utilizations.log_disk <= 1.0 + 1e-9);
        } else {
            // infinite-server "utilization" is mean concurrency — just
            // finite and non-negative
            assert!(r.utilizations.cpu.is_finite() && r.utilizations.cpu >= 0.0);
        }
        // lending happens only under OPT
        if !spec.opt {
            assert_eq!(r.borrow_ratio, 0.0);
            assert_eq!(r.aborted_borrower, 0);
        }
        // surprise aborts only when configured
        if cfg.cohort_abort_prob == 0.0 {
            assert_eq!(r.aborted_surprise, 0);
        }
        // no failures configured => none observed
        assert_eq!(r.faults.master_crashes, 0);
        deadlock_aborts += r.aborted_deadlock;
    }
    assert!(deadlock_aborts > 0, "no case aborted a deadlock victim");
}

/// Determinism holds across the whole configuration space.
#[test]
fn random_configs_are_deterministic() {
    let mut meta = SimRng::new(0xE16E_0002);
    let mut cases = 0;
    while cases < 12 {
        let cfg = random_config(&mut meta);
        let spec = random_protocol(&mut meta);
        let seed = meta.uniform_u64(0, 999);
        if cfg.validate().is_err() || !spec.is_valid() {
            continue;
        }
        cases += 1;
        let a = Simulation::run(&cfg, spec, seed).unwrap();
        let b = Simulation::run(&cfg, spec, seed).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.committed, b.committed);
        assert!((a.throughput - b.throughput).abs() < 1e-12);
        assert!((a.block_ratio - b.block_ratio).abs() < 1e-12);
    }
}

/// In conflict-free runs the measured overheads equal the analytic
/// model for every protocol and degree of distribution.
#[test]
fn random_degrees_match_overhead_model() {
    let mut meta = SimRng::new(0xE16E_0003);
    for _ in 0..12 {
        let degree = meta.uniform_u64(1, 6) as u32;
        let spec = random_protocol(&mut meta);
        let seed = meta.uniform_u64(0, 99);
        let mut cfg = SystemConfig::paper_baseline();
        cfg.num_sites = 8;
        cfg.dist_degree = degree;
        cfg.cohort_size = 3;
        cfg.db_size = 80_000;
        cfg.mpl = 1;
        cfg.run.warmup_transactions = 20;
        cfg.run.measured_transactions = 300;
        let r = Simulation::run(&cfg, spec, seed).unwrap();
        assert_eq!(r.total_aborts(), 0);
        let o = spec.committed_overheads(degree);
        // Transactions straddling the window boundary shift the ratios
        // by up to (in-flight / measured) of the per-txn count: use a
        // tolerance relative to the expected value.
        let tol = |expected: u64| (expected as f64 * 0.03).max(0.3);
        assert!(
            (r.exec_messages_per_commit - o.exec_messages as f64).abs() < tol(o.exec_messages),
            "{} d={degree}: exec {} vs {}",
            spec.name(),
            r.exec_messages_per_commit,
            o.exec_messages
        );
        assert!(
            (r.commit_messages_per_commit - o.commit_messages as f64).abs()
                < tol(o.commit_messages),
            "{} d={degree}: commit {} vs {}",
            spec.name(),
            r.commit_messages_per_commit,
            o.commit_messages
        );
        assert!(
            (r.forced_writes_per_commit - o.forced_writes as f64).abs() < tol(o.forced_writes),
            "{} d={degree}: forced {} vs {}",
            spec.name(),
            r.forced_writes_per_commit,
            o.forced_writes
        );
    }
}
