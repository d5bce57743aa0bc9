//! Golden determinism of the sweep CSV export (`distcommit sweep
//! --csv`): the combined throughput + phase-latency + per-site
//! occupancy CSV must be byte-identical regardless of how many worker
//! threads executed the grid — including when fault injection is
//! active, since the fault schedule is part of each cell's seeded
//! stream.

use distcommit::db::config::{FailureConfig, SystemConfig};
use distcommit::db::experiments::{sweep, Experiment, Scale};
use distcommit::db::output::render_sweep_csv;
use distcommit::proto::ProtocolSpec;

fn build(jobs: Option<usize>) -> Experiment {
    let cfg = SystemConfig::paper_baseline();
    let faulty = cfg
        .clone()
        .with_failures(FailureConfig::master_crashes(0.02));
    let scale = Scale::quick()
        .with_runs(10, 120)
        .with_mpls(vec![1, 2, 4])
        .with_seed(11)
        .with_replications(2)
        .with_jobs(jobs);
    let specs = vec![
        ("2PC".to_string(), ProtocolSpec::TWO_PC, cfg.clone()),
        ("3PC".to_string(), ProtocolSpec::THREE_PC, cfg.clone()),
        ("2PC faulty".to_string(), ProtocolSpec::TWO_PC, faulty),
    ];
    Experiment {
        id: "csv-golden".into(),
        title: "sweep csv golden".into(),
        config: cfg.clone(),
        series: sweep(&specs, &scale).unwrap(),
    }
}

#[test]
fn sweep_csv_is_byte_identical_across_worker_counts() {
    let serial = render_sweep_csv(&build(Some(1)));
    let parallel = render_sweep_csv(&build(Some(4)));
    assert_eq!(serial, parallel);

    // Shape: three blank-line-separated blocks, each with a header;
    // NaN never appears on a fully populated grid.
    let blocks: Vec<&str> = serial.split("\n\n").collect();
    assert_eq!(blocks.len(), 3);
    for block in &blocks[..2] {
        assert_eq!(block.trim_end().lines().count(), 1 + 3, "{block}");
    }
    assert!(blocks[0].starts_with("mpl,2PC,2PC ci90"));
    assert!(blocks[1].starts_with("mpl,"));
    assert!(blocks[1].contains("exec p50"));
    assert!(!serial.contains("NaN"));

    // The occupancy block carries one row per (MPL, series, site) with
    // p99 columns for every station class.
    let occ = blocks[2];
    assert!(occ.starts_with("mpl,series,site,cpu occ p50"));
    assert!(occ.contains("cpu occ p99"));
    assert!(occ.contains("log occ p99"));
    let sites = 8; // paper baseline
    assert_eq!(
        occ.trim_end().lines().count(),
        1 + 3 * 3 * sites,
        "3 MPLs × 3 series × {sites} sites"
    );
    assert!(occ.contains("1,2PC,0,"));
    assert!(occ.contains("4,2PC faulty,7,"));
}
