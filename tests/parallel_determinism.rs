//! The parallel experiment runner's two contracts, tested end to end:
//!
//! 1. **Determinism** — a sweep's results (and everything rendered from
//!    them) are byte-identical for any worker count; parallelism only
//!    changes wall-clock time.
//! 2. **Replication statistics** — independent replications of a cell
//!    never share a seed, their merged 90% confidence interval shrinks
//!    roughly as 1/√reps, and replicated sweeps agree with single-rep
//!    sweeps on the headline peak-throughput comparison.

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{Observers, SeriesConfig, SeriesFormat, SeriesOut, Simulation};
use distcommit::db::experiments::{self, cell_seed, Scale};
use distcommit::db::metrics::{ReportFormat, SimReport};
use distcommit::db::output::{
    render_csv, render_csv_ci, render_sweep_series_csv, render_sweep_series_json, render_table_ci,
    Metric,
};
use distcommit::db::runner;
use distcommit::proto::ProtocolSpec;
use simkernel::SimDuration;
use std::collections::HashSet;

fn small_scale() -> Scale {
    Scale {
        warmup: 30,
        measured: 250,
        mpls: vec![1, 3],
        seed: 42,
        replications: 2,
        jobs: Some(1),
    }
}

/// `--jobs 4` must be byte-identical to `--jobs 1` on a small fig1
/// grid: same numbers in every report, same rendered CSV bytes.
#[test]
fn four_jobs_bit_identical_to_one_job() {
    let mut serial_scale = small_scale();
    serial_scale.jobs = Some(1);
    let mut parallel_scale = small_scale();
    parallel_scale.jobs = Some(4);

    let serial = experiments::fig1(&serial_scale).unwrap();
    let parallel = experiments::fig1(&parallel_scale).unwrap();

    assert_eq!(serial.series.len(), parallel.series.len());
    for (a, b) in serial.series.iter().zip(&parallel.series) {
        assert_eq!(a.label, b.label);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.events, y.events, "{}", a.label);
            assert_eq!(x.committed, y.committed);
            assert_eq!(x.throughput.to_bits(), y.throughput.to_bits());
            assert_eq!(x.block_ratio.to_bits(), y.block_ratio.to_bits());
            assert_eq!(
                x.throughput_ci.half_width.to_bits(),
                y.throughput_ci.half_width.to_bits()
            );
        }
    }
    // Rendered output is the user-facing determinism guarantee.
    assert_eq!(
        render_csv(&serial, Metric::Throughput),
        render_csv(&parallel, Metric::Throughput)
    );
    assert_eq!(render_csv_ci(&serial), render_csv_ci(&parallel));
    assert_eq!(render_table_ci(&serial), render_table_ci(&parallel));
}

/// The determinism matrix: every (protocol, seed-offset, MPL) cell
/// must render byte-identical SimReport JSON whether the cell grid is
/// executed on one worker or four. This is the widest determinism
/// guarantee the repo makes — not just one figure's sweep, but the
/// exact rendered bytes across protocol families (classic 2PC, the
/// presumed-commit variant, and an OPT lending protocol), shifted
/// seeds far apart, and both load levels either side of the paper's
/// thrashing knee.
#[test]
fn report_json_matrix_identical_across_jobs_seeds_and_protocols() {
    let env_offset = std::env::var("DISTCOMMIT_TEST_SEED_OFFSET")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let protocols = [
        ("2PC", ProtocolSpec::TWO_PC),
        ("PC", ProtocolSpec::PC),
        ("OPT", ProtocolSpec::OPT_2PC),
    ];
    let offsets = [0u64, 1000, 52000];
    let mpls = [2u32, 6];

    let mut cells: Vec<(usize, u64, u32)> = Vec::new();
    for pi in 0..protocols.len() {
        for &off in &offsets {
            for &mpl in &mpls {
                cells.push((pi, off, mpl));
            }
        }
    }

    let run_cell = |&(pi, off, mpl): &(usize, u64, u32)| -> String {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.mpl = mpl;
        cfg.run.warmup_transactions = 25;
        cfg.run.measured_transactions = 200;
        Simulation::run(&cfg, protocols[pi].1, 42 + off + env_offset)
            .unwrap()
            .render(ReportFormat::Json)
    };

    let serial = runner::run_ordered(&cells, 1, run_cell);
    let parallel = runner::run_ordered(&cells, 4, run_cell);

    assert_eq!(serial.len(), cells.len());
    for (i, &(pi, off, mpl)) in cells.iter().enumerate() {
        assert_eq!(
            serial[i], parallel[i],
            "JSON report diverged across --jobs for {} offset {off} mpl {mpl}",
            protocols[pi].0
        );
    }
    // Distinct cells must actually be distinct runs, or the matrix
    // would pass vacuously.
    for i in 1..cells.len() {
        assert_ne!(
            serial[0], serial[i],
            "cells 0 and {i} produced identical reports"
        );
    }
}

/// The production-scale cell of the determinism matrix: 64 sites, a
/// 4-region LAN/WAN topology with jitter and a hot site, and Zipf-
/// skewed page access. Every new Scale-dimension code path — the alias
/// sampler, the wire-latency flight events, the hot-site placement —
/// must render byte-identical SimReport JSON on one worker and four,
/// across protocols and shifted seeds.
#[test]
fn wan_zipf_64_site_matrix_identical_across_jobs() {
    let env_offset = std::env::var("DISTCOMMIT_TEST_SEED_OFFSET")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let protocols = [
        ("2PC", ProtocolSpec::TWO_PC),
        ("PA", ProtocolSpec::PA),
        ("OPT", ProtocolSpec::OPT_2PC),
    ];
    let offsets = [0u64, 3000];

    let mut cells: Vec<(usize, u64)> = Vec::new();
    for pi in 0..protocols.len() {
        for &off in &offsets {
            cells.push((pi, off));
        }
    }

    let run_cell = |&(pi, off): &(usize, u64)| -> String {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.num_sites = 64;
        cfg.db_size = 64_000; // keep the paper's 1000 pages/site
        cfg.zipf = Some(distcommit::db::config::Zipf { theta: 0.9 });
        cfg.topology = Some(
            "regions=4,lan-ms=1,wan-ms=40,jitter=0.1,hot=0.1"
                .parse()
                .unwrap(),
        );
        cfg.run.warmup_transactions = 25;
        cfg.run.measured_transactions = 200;
        Simulation::run(&cfg, protocols[pi].1, 42 + off + env_offset)
            .unwrap()
            .render(ReportFormat::Json)
    };

    let serial = runner::run_ordered(&cells, 1, run_cell);
    let parallel = runner::run_ordered(&cells, 4, run_cell);

    for (i, &(pi, off)) in cells.iter().enumerate() {
        assert_eq!(
            serial[i], parallel[i],
            "WAN+Zipf JSON report diverged across --jobs for {} offset {off}",
            protocols[pi].0
        );
    }
    for i in 1..cells.len() {
        assert_ne!(serial[0], serial[i], "cells 0 and {i} identical");
    }
}

/// A writer that meters what the streaming series sink hands it: the
/// total byte count and the largest single `write` call — the sink's
/// output-side high-water mark. Streaming a run of any length must
/// hand over data window by window, never one giant buffered blob.
#[derive(Default)]
struct MeterWriter {
    total: u64,
    max_chunk: u64,
    writes: u64,
}

impl std::io::Write for MeterWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.total += buf.len() as u64;
        self.max_chunk = self.max_chunk.max(buf.len() as u64);
        self.writes += 1;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Million-transaction scale smoke (release-mode material, `--ignored`
/// by default): a 64-site WAN + Zipf run committing 10^6 measured
/// transactions through the streaming series path. Asserts the run
/// completes, the series streamed many windows, and the sink's
/// high-water mark stayed bounded — no write grew with run length, so
/// memory is O(window), not O(transactions).
#[test]
#[ignore = "million-transaction smoke; run with --ignored --release"]
fn million_transaction_streaming_smoke_stays_bounded() {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_sites = 64;
    cfg.db_size = 64_000;
    cfg.zipf = Some(distcommit::db::config::Zipf { theta: 0.9 });
    cfg.topology = Some("regions=4,lan-ms=1,wan-ms=40,jitter=0.1".parse().unwrap());
    cfg.run.warmup_transactions = 1_000;
    cfg.run.measured_transactions = 1_000_000;
    // The default safety cap (40 000 sim-seconds) is sized for the
    // paper's 5 000-commit runs; a million commits legitimately need
    // more simulated time.
    cfg.run.max_sim_time = None;
    let series_cfg = SeriesConfig {
        window: SimDuration::from_secs(5),
        per_site: false,
    };
    let mut meter = MeterWriter::default();
    let obs = Observers {
        trace: None,
        series: Some((series_cfg, SeriesOut::Stream(&mut meter, SeriesFormat::Csv))),
    };
    let report = Simulation::run_observed(&cfg, ProtocolSpec::TWO_PC, 42, obs).unwrap();
    assert_eq!(report.committed, 1_000_000);
    let MeterWriter {
        total,
        max_chunk,
        writes,
    } = meter;
    assert!(writes > 100, "expected many window writes, got {writes}");
    assert!(total > 10_000, "series output suspiciously small: {total}");
    // The high-water mark: no single hand-off approaches the total —
    // the sink held at most one window's rendering at a time.
    assert!(
        max_chunk < 64 * 1024,
        "single write of {max_chunk} bytes suggests buffering"
    );
}

/// The windowed-series side of a sweep obeys the same contract as the
/// reports: `--jobs 4` renders byte-identical sweep-series CSV and
/// JSON to `--jobs 1`, across the shifted-seed matrix CI runs
/// (`DISTCOMMIT_TEST_SEED_OFFSET`). Series windows are accumulated
/// inside each cell's event loop, so this pins down that worker
/// scheduling can't leak into window boundaries or counter deltas.
#[test]
fn sweep_series_bytes_identical_across_jobs_and_seed_offsets() {
    let env_offset = std::env::var("DISTCOMMIT_TEST_SEED_OFFSET")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let cfg = SystemConfig::paper_baseline();
    let specs = vec![
        ("2PC".to_string(), ProtocolSpec::TWO_PC, cfg.clone()),
        ("OPT".to_string(), ProtocolSpec::OPT_2PC, cfg.clone()),
    ];
    let series_cfg = SeriesConfig {
        window: SimDuration::from_secs(3),
        per_site: true,
    };
    for off in [0u64, 7000] {
        let scale = |jobs| Scale {
            warmup: 25,
            measured: 220,
            mpls: vec![2, 5],
            seed: 42 + off + env_offset,
            replications: 2,
            jobs: Some(jobs),
        };
        let (_, serial) = experiments::sweep_with_series(&specs, &scale(1), &series_cfg).unwrap();
        let (_, parallel) = experiments::sweep_with_series(&specs, &scale(4), &series_cfg).unwrap();

        // 2 protocols x 2 MPLs x 2 replications.
        assert_eq!(serial.len(), 8);
        let csv1 = render_sweep_series_csv(&serial);
        let csv4 = render_sweep_series_csv(&parallel);
        assert_eq!(csv1, csv4, "sweep-series CSV diverged at offset {off}");
        let json1 = render_sweep_series_json(&serial);
        let json4 = render_sweep_series_json(&parallel);
        assert_eq!(json1, json4, "sweep-series JSON diverged at offset {off}");

        // Not vacuous: every cell recorded windows, and distinct cells
        // produced distinct window streams.
        assert!(serial.iter().all(|c| !c.series.windows.is_empty()));
        let rendered: HashSet<String> = serial
            .iter()
            .map(|c| c.series.render(distcommit::db::engine::SeriesFormat::Csv))
            .collect();
        assert_eq!(rendered.len(), serial.len(), "duplicate cell series");
    }
}

/// An absurd worker count (more workers than jobs) is also identical.
#[test]
fn oversubscribed_workers_change_nothing() {
    let inputs: Vec<u64> = (0..7).collect();
    let a = runner::run_ordered(&inputs, 1, |&x| x * 3);
    let b = runner::run_ordered(&inputs, 64, |&x| x * 3);
    assert_eq!(a, b);
}

/// Per-cell seeds never collide across the full (protocol, MPL, rep)
/// grid, for several base seeds — replications are truly independent.
#[test]
fn cell_seeds_are_collision_free() {
    for base in [0u64, 42, u64::MAX, 0xDEAD_BEEF] {
        let mut seen = HashSet::new();
        for series in 0..12 {
            for mpl_index in 0..10 {
                for rep in 0..16 {
                    assert!(
                        seen.insert(cell_seed(base, series, mpl_index, rep)),
                        "collision at base={base} ({series}, {mpl_index}, {rep})"
                    );
                }
            }
        }
    }
}

fn merged_cell(reps: u32) -> SimReport {
    let reports: Vec<SimReport> = (0..reps)
        .map(|rep| {
            let mut cfg = SystemConfig::paper_baseline();
            cfg.mpl = 4;
            cfg.run.warmup_transactions = 50;
            cfg.run.measured_transactions = 600;
            Simulation::run(&cfg, ProtocolSpec::TWO_PC, cell_seed(42, 0, 0, rep)).unwrap()
        })
        .collect();
    SimReport::merge_replications(&reports)
}

/// The merged 90% CI half-width shrinks roughly as 1/√reps: quadrupling
/// the replications (4 → 16) should roughly halve the half-width
/// (the t-critical factor shrinks it a bit further; the sampled
/// standard deviation wobbles it either way).
#[test]
fn ci_half_width_shrinks_with_replications() {
    let r4 = merged_cell(4);
    let r16 = merged_cell(16);
    assert_eq!(r4.throughput_ci.batches, 4);
    assert_eq!(r16.throughput_ci.batches, 16);
    assert!(r4.throughput_ci.half_width > 0.0);
    let ratio = r16.throughput_ci.half_width / r4.throughput_ci.half_width;
    assert!(
        (0.2..0.8).contains(&ratio),
        "expected ~0.5x shrink from 4 to 16 reps, got {ratio:.3} \
         (hw4 {:.4}, hw16 {:.4})",
        r4.throughput_ci.half_width,
        r16.throughput_ci.half_width
    );
    // Both estimates agree on the underlying mean.
    let diff = (r4.throughput - r16.throughput).abs();
    assert!(diff < r4.throughput_ci.half_width + r16.throughput_ci.half_width);
}

/// Replicated sweeps tell the same headline story as single-rep sweeps:
/// the peak sits at the same MPL and the peak throughput agrees within
/// the statistical noise of short runs.
#[test]
fn replicated_peaks_agree_with_single_rep() {
    let cfg = SystemConfig::paper_baseline();
    let specs = vec![("2PC".to_string(), ProtocolSpec::TWO_PC, cfg.clone())];
    // A coarse MPL axis (1, 4, 10) where the paper baseline's peak at
    // the knee (MPL ≈ 4) is unambiguous.
    let mut scale = Scale {
        warmup: 40,
        measured: 400,
        mpls: vec![1, 4, 10],
        seed: 42,
        replications: 1,
        jobs: None,
    };
    let single = experiments::sweep(&specs, &scale).unwrap();
    scale.replications = 3;
    let replicated = experiments::sweep(&specs, &scale).unwrap();

    let s = &single[0];
    let r = &replicated[0];
    assert_eq!(s.peak_mpl(), 4);
    assert_eq!(r.peak_mpl(), 4);
    let rel = (s.peak_throughput() - r.peak_throughput()).abs() / s.peak_throughput();
    assert!(
        rel < 0.15,
        "replicated peak {:.2} vs single-rep peak {:.2} ({rel:.3} apart)",
        r.peak_throughput(),
        s.peak_throughput()
    );
    // The replicated sweep carries a real cross-replication interval.
    assert!(r.points.iter().all(|p| p.throughput_ci.batches == 3));
}
