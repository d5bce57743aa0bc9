//! Golden-file checks for the machine-readable outputs: the JSON
//! report, the windowed series, the sweep documents and the
//! folded-stack flamegraph lines. These formats are
//! consumed by external tools (jq pipelines, flamegraph.pl), so any
//! byte-level drift is a breaking change and must be deliberate.
//!
//! To bless an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{FoldSink, SeriesConfig, SeriesFormat, Simulation};
use distcommit::db::experiments::{sweep_with_series, Experiment, Scale};
use distcommit::db::metrics::ReportFormat;
use distcommit::db::output::{render_sweep_csv, render_sweep_series_csv, render_sweep_series_json};
use distcommit::proto::ProtocolSpec;
use simkernel::SimDuration;

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
    let (report, fold) = Simulation::run_with_sink(
        &faulty_cfg(),
        ProtocolSpec::THREE_PC,
        2027,
        u64::MAX,
        FoldSink::new(ProtocolSpec::THREE_PC.name()),
    )
    .expect("valid config");
    assert!(report.faults.master_crashes > 0);
    check("fold_faulty.txt", &fold.render());
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
    let (_, series) = Simulation::run_with_series(
        &golden_cfg(),
        ProtocolSpec::TWO_PC,
        2026,
        &golden_series_cfg(),
    )
    .expect("valid config");
    assert!(series.windows.len() > 2, "golden run spans several windows");
    check("series.csv", &series.render(SeriesFormat::Csv));
}

/// The windowed-series JSON of a faulty OPT run: retransmit and loss
/// counters populated, per-site queues under crash churn.
#[test]
fn faulty_series_json_matches_golden() {
    let (report, series) = Simulation::run_with_series(
        &faulty_cfg(),
        ProtocolSpec::OPT_2PC,
        2027,
        &golden_series_cfg(),
    )
    .expect("valid config");
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

#[test]
fn folded_stacks_match_golden() {
    let (_, fold) = Simulation::run_with_sink(
        &golden_cfg(),
        ProtocolSpec::THREE_PC,
        2026,
        u64::MAX,
        FoldSink::new(ProtocolSpec::THREE_PC.name()),
    )
    .expect("valid config");
    check("fold.txt", &fold.render());
}
