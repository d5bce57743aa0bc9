//! Golden-file checks for the machine-readable outputs: the report in
//! every format, the windowed series, the sweep documents, the
//! folded-stack flamegraph lines and every experiment preset's tables
//! and CSV. These formats are consumed by external tools (jq
//! pipelines, flamegraph.pl), so any byte-level drift is a breaking
//! change and must be deliberate.
//!
//! To bless an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{
    chrome_trace_json, FoldSink, Observers, Series, SeriesConfig, SeriesFormat, SeriesOut,
    Simulation, Trace,
};
use distcommit::db::experiments::{sweep_with_series, Experiment, Scale, PRESETS};
use distcommit::db::metrics::{ReportFormat, SimReport};
use distcommit::db::output::{
    render_csv, render_sweep_csv, render_sweep_series_csv, render_sweep_series_json, render_table,
};
use distcommit::proto::ProtocolSpec;
use simkernel::{SimDuration, SimTime};

/// The folded stacks of every transaction of a 3PC run.
fn fold_run(cfg: &SystemConfig, seed: u64) -> (SimReport, FoldSink) {
    let spec = ProtocolSpec::THREE_PC;
    let mut fold = FoldSink::new(spec.name());
    let obs = Observers {
        trace: Some((u64::MAX, &mut fold)),
        series: None,
    };
    let report = Simulation::run_observed(cfg, spec, seed, obs).expect("valid config");
    (report, fold)
}

/// A run's buffered windowed series.
fn series_run(
    cfg: &SystemConfig,
    spec: ProtocolSpec,
    seed: u64,
    series_cfg: &SeriesConfig,
) -> (SimReport, Series) {
    let mut series = Series::default();
    let obs = Observers {
        trace: None,
        series: Some((*series_cfg, SeriesOut::Buffer(&mut series))),
    };
    let report = Simulation::run_observed(cfg, spec, seed, obs).expect("valid config");
    (report, series)
}

/// Small but non-trivial: long enough to populate every report section
/// (phases, per-site resources, occupancy percentiles) yet quick to run.
fn golden_cfg() -> SystemConfig {
    SystemConfig::paper_baseline().with_run_length(10, 80)
}

fn check(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test golden`")
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from tests/golden/{name}; if intentional, \
         rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn json_report_matches_golden() {
    let report = Simulation::run(&golden_cfg(), ProtocolSpec::TWO_PC, 2026).expect("valid config");
    check("report.json", &report.render(ReportFormat::Json));
}

/// Every classic spec's full JSON report in one golden: the protocol
/// layer is *data* interpreted by a generic engine, so any change to
/// the spec table or the interpreter that perturbs a single protocol's
/// schedule — message counts, forced writes, timing — drifts here.
/// (The replicated family has its own golden; it postdates this file.)
#[test]
fn every_classic_protocol_report_matches_golden() {
    let mut out = String::new();
    for spec in ProtocolSpec::ALL {
        if spec.is_replicated() {
            continue;
        }
        let report = Simulation::run(&golden_cfg(), spec, 2026).expect("valid config");
        out.push_str(&format!("=== {} ===\n", spec.name()));
        out.push_str(&report.render(ReportFormat::Json));
        out.push('\n');
    }
    check("report_all_protocols.txt", &out);
}

/// The 64-site WAN + Zipf(0.9) scale configuration, where hot lock
/// queues make deadlock the common abort: hundreds of victims per run,
/// against at most two in the baseline goldens above.
fn wan_zipf_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline()
        .with_zipf(0.9)
        .with_topology(
            "regions=4,lan-ms=1,wan-ms=40,jitter=0.1"
                .parse()
                .expect("valid topology"),
        )
        .with_run_length(10, 300);
    cfg.num_sites = 64;
    cfg.db_size = 64_000;
    cfg
}

/// The deadlock detector byte-for-byte: 2PC and OPT (whose lending
/// changes the wait-for graph) on the deadlock-heavy scale
/// configuration. Every victim choice feeds the restart schedule, so a
/// detector that found a different cycle, or picked a different member
/// of the same one, drifts here.
#[test]
fn deadlock_heavy_reports_match_golden() {
    let mut out = String::new();
    for spec in [ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC] {
        let report = Simulation::run(&wan_zipf_cfg(), spec, 2026).expect("valid config");
        // Not vacuous: the detector chose hundreds of victims.
        assert!(report.aborted_deadlock > 100, "{}", report.aborted_deadlock);
        out.push_str(&format!("=== {} ===\n", spec.name()));
        out.push_str(&report.render(ReportFormat::Json));
        out.push('\n');
    }
    check("report_wan_zipf.txt", &out);
}

/// The same CLI-shaped fault specification the README examples use:
/// all three fault classes enabled, hot enough that a short run still
/// fires each of them.
fn faulty_cfg() -> SystemConfig {
    let faults = "mc=0.05,cc=0.02,loss=0.05"
        .parse()
        .expect("valid fault spec");
    golden_cfg().with_failures(faults)
}

/// The failure path of the engine — crash injection, recovery timers,
/// retransmissions — byte-for-byte. A refactor that preserves the
/// happy-path goldens but perturbs RNG draws or event ordering under
/// faults drifts here.
#[test]
fn faulty_json_report_matches_golden() {
    let report = Simulation::run(&faulty_cfg(), ProtocolSpec::TWO_PC, 2027).expect("valid config");
    // Not vacuous: the fault classes actually fired in this run.
    assert!(report.faults.master_crashes > 0);
    assert!(report.faults.messages_lost > 0);
    check("report_faulty.json", &report.render(ReportFormat::Json));
}

/// The replicated family's failure path: a Paxos Commit run at F = 1
/// under the same fault mix, pinning the acceptor-quorum choreography,
/// the failover timers, and the replicated overhead model. The run is
/// only meaningful if the headline machinery actually engaged: masters
/// crashed and the surviving acceptors ran termination rounds.
#[test]
fn faulty_paxos_report_matches_golden() {
    let cfg = faulty_cfg().with_replication(1);
    let report = Simulation::run(&cfg, ProtocolSpec::PAXOS, 2027).expect("valid config");
    assert!(report.faults.master_crashes > 0);
    assert!(report.faults.termination_rounds > 0);
    assert!(
        report.overhead_check.is_clean(),
        "{:?}",
        report.overhead_check
    );
    check(
        "report_paxos_faulty.json",
        &report.render(ReportFormat::Json),
    );
}

/// The folded commit-time stacks of a faulty 3PC run (termination
/// protocol, recovery waits) — the failure-path counterpart of
/// `folded_stacks_match_golden`.
#[test]
fn faulty_folded_stacks_match_golden() {
    let (report, fold) = fold_run(&faulty_cfg(), 2027);
    assert!(report.faults.master_crashes > 0);
    check("fold_faulty.txt", &fold.render());
}

/// The Chrome trace of the first transactions of the faulty 3PC and
/// OPT golden runs, byte for byte: the prefixes reach a master crash and
/// termination (3PC), lending and the shelf (OPT), and cohort crashes,
/// recovery, losses and retransmissions, so every record shape a run
/// writes except a force left open at the end is pinned (the unit tests
/// in `engine::chrome` pin that one). One JSON object keyed by protocol.
#[test]
fn faulty_chrome_traces_match_golden() {
    let mut out = String::new();
    for (spec, txns) in [(ProtocolSpec::THREE_PC, 10), (ProtocolSpec::OPT_2PC, 15)] {
        let mut trace = Trace::default();
        let obs = Observers {
            trace: Some((txns, &mut trace)),
            series: None,
        };
        Simulation::run_observed(&faulty_cfg(), spec, 2027, obs).expect("valid config");
        out.push(if out.is_empty() { '{' } else { ',' });
        out.push_str(&format!("\"{}\":", spec.name()));
        out.push_str(&chrome_trace_json(&trace));
    }
    out.push_str("}\n");
    check("chrome_faulty.json", &out);
}

/// Windows narrow enough that the short golden run still spans several
/// of them, with per-site rows on so the widest CSV shape is pinned.
fn golden_series_cfg() -> SeriesConfig {
    SeriesConfig {
        window: SimDuration::from_secs(2),
        per_site: true,
    }
}

/// The windowed-series CSV — consumed by spreadsheet/gnuplot pipelines,
/// so column order and formatting are part of the contract.
#[test]
fn series_csv_matches_golden() {
    let (_, series) = series_run(
        &golden_cfg(),
        ProtocolSpec::TWO_PC,
        2026,
        &golden_series_cfg(),
    );
    assert!(series.windows.len() > 2, "golden run spans several windows");
    check("series.csv", &series.render(SeriesFormat::Csv));
}

/// The windowed-series JSON of a faulty OPT run: retransmit and loss
/// counters populated, per-site queues under crash churn.
#[test]
fn faulty_series_json_matches_golden() {
    let (report, series) = series_run(
        &faulty_cfg(),
        ProtocolSpec::OPT_2PC,
        2027,
        &golden_series_cfg(),
    );
    assert!(report.faults.messages_lost > 0);
    assert!(series.windows.iter().any(|w| w.messages_lost > 0));
    check("series_faulty.json", &series.render(SeriesFormat::Json));
}

/// A small `sweep --series-out` grid (2PC and OPT at MPL 2 and 4, one
/// replication): the sweep CSV's three blocks (throughput with CI
/// half-widths, phase percentiles, per-site occupancy) and both
/// sweep-series documents, each of which re-frames every cell's series.
#[test]
fn sweep_outputs_match_golden() {
    let specs: Vec<_> = [ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC]
        .into_iter()
        .map(|s| (s.name().to_string(), s, golden_cfg()))
        .collect();
    let scale = Scale::quick()
        .with_runs(10, 80)
        .with_mpls(vec![2, 4])
        .with_seed(2026)
        .with_jobs(Some(1));
    let (series, cells) =
        sweep_with_series(&specs, &scale, &golden_series_cfg()).expect("valid config");
    assert_eq!(cells.len(), 4, "2 series x 2 MPLs x 1 replication");
    let exp = Experiment {
        id: "golden".into(),
        title: "golden sweep".into(),
        config: golden_cfg(),
        series,
    };
    check("sweep.csv", &render_sweep_csv(&exp));
    check("sweep_series.csv", &render_sweep_series_csv(&cells));
    check("sweep_series.json", &render_sweep_series_json(&cells));
}

/// Every `distcommit experiment` preset at a micro scale: each
/// experiment's id, title, configuration and series labels, and the
/// table and CSV of every metric its preset reports. A change to a
/// preset's configuration, protocol lines, labels, pinned MPL or cell
/// seeds drifts here.
#[test]
fn presets_match_golden() {
    let micro = Scale::quick()
        .with_runs(5, 40)
        .with_mpls(vec![1, 2])
        .with_seed(3)
        .with_jobs(Some(2));
    let mut out = String::new();
    for p in PRESETS {
        for exp in p.build(&micro).expect("every preset runs") {
            out.push_str(&format!("=== {} | {} ===\n", exp.id, exp.title));
            out.push_str(&format!("configuration:\n{}", exp.config));
            for s in &exp.series {
                out.push_str(&format!("series: {}\n", s.label));
            }
            for &m in p.metrics {
                out.push_str(&render_table(&exp, m));
                out.push_str(&render_csv(&exp, m));
            }
            out.push('\n');
        }
    }
    check("presets.txt", &out);
}

#[test]
fn folded_stacks_match_golden() {
    let (_, fold) = fold_run(&golden_cfg(), 2026);
    check("fold.txt", &fold.render());
}

/// The calendar's edge cases through the whole engine, at the CLI
/// defaults (2PC, seed 42, MPL 4): with every service time zero, all
/// 16 337 events fire at t = 0, so every pop is a tie at the current
/// instant; with 1 000 s master recoveries, seven recovery events wait
/// about 2^30 µs ahead of a clock that keeps moving in 5 ms steps.
/// An event calendar that reordered ties, or lost track of a far
/// event while the clock advanced under it, drifts here.
#[test]
fn calendar_edge_reports_match_golden() {
    let base = SystemConfig::paper_baseline().with_run_length(10, 200);
    let mut zero_service = base.clone();
    zero_service.page_cpu = SimDuration::ZERO;
    zero_service.page_disk = SimDuration::ZERO;
    zero_service.msg_cpu = SimDuration::ZERO;
    let far_recovery = base.with_failures(
        "mc=0.05,recover-ms=1000000"
            .parse()
            .expect("valid fault spec"),
    );
    let mut out = String::new();
    for (name, cfg) in [
        ("zero-service", zero_service),
        ("far-recovery", far_recovery),
    ] {
        let report = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 42).expect("valid config");
        assert!(!report.truncated, "{name}");
        // Not vacuous: the zero-service clock never moved, and the
        // far recoveries really were scheduled.
        assert!(report.sim_seconds == 0.0 || report.faults.master_crashes > 0);
        out.push_str(&format!("=== {name} ===\n"));
        out.push_str(&report.render(ReportFormat::Json));
        out.push('\n');
    }
    check("report_calendar_edges.txt", &out);
}

/// The CLI's `never_commits` shape: every cohort votes NO, so nothing
/// commits and the 30 s simulated-time cap cuts the run short, with an
/// infinite throughput CI, no steady state and `truncated` set.
fn never_commits_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline()
        .with_mpl(1)
        .with_db_size(80_000)
        .with_cohort_abort_prob(1.0)
        .with_run_length(0, 10);
    cfg.run.max_sim_time = Some(SimTime::from_secs(30));
    cfg
}

/// Every report format — table, CSV, JSON and `summary` — over one
/// faulty run, merged replications of the faulty 2PC and Paxos (F = 1)
/// runs, and a truncated zero-commit run alone and merged with itself.
/// The other report goldens pin only the JSON of single runs; here the
/// CSV, the merge rules and the non-finite and truncated forms drift
/// too.
#[test]
fn report_formats_match_golden() {
    let runs = |cfg: &SystemConfig, spec: ProtocolSpec| -> Vec<SimReport> {
        (2027..=2029)
            .map(|seed| Simulation::run(cfg, spec, seed).expect("valid config"))
            .collect()
    };
    let two_pc = runs(&faulty_cfg(), ProtocolSpec::TWO_PC);
    let paxos = runs(&faulty_cfg().with_replication(1), ProtocolSpec::PAXOS);
    let never =
        Simulation::run(&never_commits_cfg(), ProtocolSpec::TWO_PC, 42).expect("valid config");
    // Not vacuous: the truncated run has the forms the others lack.
    assert!(never.truncated && never.committed == 0);
    assert!(never.throughput_ci.half_width.is_infinite());
    assert!(!never.convergence.converged);
    let reports = [
        ("2PC faulty, seed 2027", two_pc[0].clone()),
        (
            "2PC faulty, seeds 2027-2029 merged",
            SimReport::merge_replications(&two_pc),
        ),
        (
            "PAXOS F=1 faulty, seeds 2027-2029 merged",
            SimReport::merge_replications(&paxos),
        ),
        (
            "never commits, merged with itself",
            SimReport::merge_replications(&[never.clone(), never.clone()]),
        ),
        ("never commits", never),
    ];
    let mut out = String::new();
    for (name, report) in &reports {
        for (format, text) in [
            ("table", report.render(ReportFormat::Table)),
            ("csv", report.render(ReportFormat::Csv)),
            ("json", report.render(ReportFormat::Json)),
            ("summary", report.summary()),
        ] {
            out.push_str(&format!("=== {name}: {format} ===\n{text}\n"));
        }
    }
    check("report_formats.txt", &out);
}
