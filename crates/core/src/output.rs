//! Plain-text rendering of experiment results: the "same rows/series
//! the paper reports", as protocol × MPL tables plus CSV for plotting.

use crate::engine::SeriesFormat;
use crate::experiments::{Experiment, SeriesCell};
use crate::json::Json;
use crate::metrics::SimReport;
use std::fmt::Write as _;

/// A metric extracted from a [`SimReport`] for tabulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Committed transactions per second (Figs 1a, 2a, 3a/b, 4a/b, 5a/b).
    Throughput,
    /// Fraction of transactions blocked (Figs 1b, 2b).
    BlockRatio,
    /// Pages borrowed per transaction (Figs 1c, 2c).
    BorrowRatio,
    /// Mean response time in seconds.
    ResponseTime,
    /// 95th-percentile response time in seconds.
    ResponseP95,
    /// Fraction of incarnations aborted.
    AbortFraction,
    /// Forced log writes per committed transaction.
    ForcedWritesPerCommit,
    /// Total messages per committed transaction.
    MessagesPerCommit,
    /// Mean time a prepared cohort spent blocked on a crashed master
    /// (seconds) — the `faults` preset's headline curve, separating
    /// blocking protocols (blocked for the full recovery time) from
    /// 3PC termination and Paxos Commit failover.
    CrashBlockedTime,
    /// Master crashes injected during the measured window (the
    /// `failures` preset's count beside its throughput).
    MasterCrashes,
    /// Mean data-disk utilization (the `ablate` preset's deferred-write
    /// column).
    DataDiskUtilization,
    /// Mean log-disk utilization.
    LogDiskUtilization,
    /// Forced writes per log-disk service: 1.0 without group commit,
    /// more when batching groups writes.
    WritesPerLogService,
}

impl Metric {
    /// Column header / figure-axis label.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Throughput => "Throughput (txn/s)",
            Metric::BlockRatio => "Block ratio",
            Metric::BorrowRatio => "Borrow ratio (pages/txn)",
            Metric::ResponseTime => "Mean response (s)",
            Metric::ResponseP95 => "p95 response (s)",
            Metric::AbortFraction => "Abort fraction",
            Metric::ForcedWritesPerCommit => "Forced writes / commit",
            Metric::MessagesPerCommit => "Messages / commit",
            Metric::CrashBlockedTime => "Blocked on crash (s)",
            Metric::MasterCrashes => "Master crashes",
            Metric::DataDiskUtilization => "Data-disk utilization",
            Metric::LogDiskUtilization => "Log-disk utilization",
            Metric::WritesPerLogService => "Writes / log service",
        }
    }

    /// Extract the metric from a report.
    pub fn of(self, r: &SimReport) -> f64 {
        match self {
            Metric::Throughput => r.throughput,
            Metric::BlockRatio => r.block_ratio,
            Metric::BorrowRatio => r.borrow_ratio,
            Metric::ResponseTime => r.mean_response_s,
            Metric::ResponseP95 => r.p95_response_s,
            Metric::AbortFraction => r.abort_fraction(),
            Metric::ForcedWritesPerCommit => r.forced_writes_per_commit,
            Metric::MessagesPerCommit => r.exec_messages_per_commit + r.commit_messages_per_commit,
            Metric::CrashBlockedTime => r.faults.mean_blocked_on_crash_s,
            Metric::MasterCrashes => r.faults.master_crashes as f64,
            Metric::DataDiskUtilization => r.utilizations.data_disk,
            Metric::LogDiskUtilization => r.utilizations.log_disk,
            Metric::WritesPerLogService => r.mean_log_batch,
        }
    }
}

/// Render one metric of an experiment as an aligned text table with
/// MPL rows and one column per protocol series.
pub fn render_table(exp: &Experiment, metric: Metric) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", exp.title, metric.label());
    let width = exp
        .series
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(8)
        .max(8);
    let _ = write!(out, "{:>6}", "MPL");
    for s in &exp.series {
        let _ = write!(out, " {:>width$}", s.label, width = width);
    }
    let _ = writeln!(out);
    let mpls = exp.mpls();
    for (i, mpl) in mpls.iter().enumerate() {
        let _ = write!(out, "{mpl:>6}");
        for s in &exp.series {
            let v = s.points.get(i).map(|r| metric.of(r)).unwrap_or(f64::NAN);
            let _ = write!(out, " {:>width$.3}", v, width = width);
        }
        let _ = writeln!(out);
    }
    out
}

/// Render the throughput table with each cell as `mean ±hw`, where the
/// half-width is the 90% confidence interval — across replications for
/// replicated sweeps, batch-means within the single run otherwise.
pub fn render_table_ci(exp: &Experiment) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} — Throughput (txn/s, mean ±90% CI) ==",
        exp.title
    );
    let cell = |r: &SimReport| format!("{:.2} ±{:.2}", r.throughput, r.throughput_ci.half_width);
    let width = exp
        .series
        .iter()
        .flat_map(|s| std::iter::once(s.label.len()).chain(s.points.iter().map(|r| cell(r).len())))
        .max()
        .unwrap_or(8)
        .max(8);
    let _ = write!(out, "{:>6}", "MPL");
    for s in &exp.series {
        let _ = write!(out, " {:>width$}", s.label, width = width);
    }
    let _ = writeln!(out);
    for (i, mpl) in exp.mpls().iter().enumerate() {
        let _ = write!(out, "{mpl:>6}");
        for s in &exp.series {
            let v = s.points.get(i).map(&cell).unwrap_or_else(|| "-".into());
            let _ = write!(out, " {v:>width$}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Throughput CSV with a `<series> ci90` half-width column after each
/// series mean — the plottable form of [`render_table_ci`].
pub fn render_csv_ci(exp: &Experiment) -> String {
    render_wide_csv(
        exp,
        &[
            ("", &|r| r.throughput),
            (" ci90", &|r| r.throughput_ci.half_width),
        ],
    )
}

/// Per-phase latency percentiles as CSV: for every series, nine
/// columns — p50/p90/p99 of the execution, voting, and decision/ack
/// phases, in seconds. The plottable form of the phase line in
/// [`SimReport::summary`].
pub fn render_phase_csv(exp: &Experiment) -> String {
    render_wide_csv(
        exp,
        &[
            (" exec p50", &|r| r.phase_latencies.execution.p50_s),
            (" exec p90", &|r| r.phase_latencies.execution.p90_s),
            (" exec p99", &|r| r.phase_latencies.execution.p99_s),
            (" vote p50", &|r| r.phase_latencies.voting.p50_s),
            (" vote p90", &|r| r.phase_latencies.voting.p90_s),
            (" vote p99", &|r| r.phase_latencies.voting.p99_s),
            (" ack p50", &|r| r.phase_latencies.decision.p50_s),
            (" ack p90", &|r| r.phase_latencies.decision.p90_s),
            (" ack p99", &|r| r.phase_latencies.decision.p99_s),
        ],
    )
}

/// One column of a wide CSV, repeated per series: the header suffix
/// after the series label, and the value it takes from a point.
type Column<'a> = (&'a str, &'a dyn Fn(&SimReport) -> f64);

/// The `mpl,<series columns>` table every wide CSV shares: one row per
/// MPL, per series one `<label><suffix>` column for each of `columns`
/// (commas in labels become `;`), values with six decimals and `NaN`
/// where a series has no point at that MPL.
fn render_wide_csv(exp: &Experiment, columns: &[Column<'_>]) -> String {
    let mut out = String::from("mpl");
    for s in &exp.series {
        let label = s.label.replace(',', ";");
        for (suffix, _) in columns {
            let _ = write!(out, ",{label}{suffix}");
        }
    }
    out.push('\n');
    for (i, mpl) in exp.mpls().iter().enumerate() {
        let _ = write!(out, "{mpl}");
        for s in &exp.series {
            let point = s.points.get(i);
            for (_, value) in columns {
                let v = point.map_or(f64::NAN, value);
                let _ = write!(out, ",{v:.6}");
            }
        }
        out.push('\n');
    }
    out
}

/// Per-site station-occupancy percentiles as CSV: one row per
/// (MPL, series, site) with the time-weighted p50/p90/p99 queue depth
/// of the site's CPU, data disks and log disks. The plottable form of
/// [`SimReport::site_resources`].
pub fn render_occupancy_csv(exp: &Experiment) -> String {
    let mut out = String::new();
    let _ = write!(out, "mpl,series,site");
    for station in ["cpu", "data", "log"] {
        for q in ["p50", "p90", "p99"] {
            let _ = write!(out, ",{station} occ {q}");
        }
    }
    let _ = writeln!(out);
    for (i, mpl) in exp.mpls().iter().enumerate() {
        for s in &exp.series {
            let Some(r) = s.points.get(i) else { continue };
            let label = s.label.replace(',', ";");
            for (site, res) in r.site_resources.iter().enumerate() {
                let _ = write!(out, "{mpl},{label},{site}");
                for st in [&res.cpu, &res.data_disk, &res.log_disk] {
                    let _ = write!(
                        out,
                        ",{:.6},{:.6},{:.6}",
                        st.queue_depth_p50, st.queue_depth_p90, st.queue_depth_p99
                    );
                }
                let _ = writeln!(out);
            }
        }
    }
    out
}

/// The sweep CLI's `--csv` output: the throughput CSV (means plus 90%
/// CI half-widths), the per-phase latency percentile CSV, and the
/// per-site occupancy percentile CSV — three machine-readable blocks
/// from the same runs, separated by blank lines. Like every renderer
/// over a [`sweep`](crate::experiments::sweep) result, the output is
/// byte-identical for every `--jobs` count.
pub fn render_sweep_csv(exp: &Experiment) -> String {
    let mut out = render_csv_ci(exp);
    out.push('\n');
    out.push_str(&render_phase_csv(exp));
    out.push('\n');
    out.push_str(&render_occupancy_csv(exp));
    out
}

/// The sweep CLI's `--format json` output: one JSON document carrying
/// the experiment identity and, per protocol series, the full
/// [`SimReport`] object of every point (the same
/// [`SimReport::render`] JSON the `run` subcommand emits), so every
/// number the table, CSV and chart views derive from is available to
/// machine consumers from a single sweep. Like every renderer over a
/// [`sweep`](crate::experiments::sweep) result, the output is
/// byte-identical for every `--jobs` count.
pub fn render_sweep_json(exp: &Experiment) -> String {
    let mut j = Json::default();
    j.begin_object()
        .field("id", exp.id.as_str())
        .field("title", exp.title.as_str())
        .key("series")
        .begin_array();
    for s in &exp.series {
        j.begin_object()
            .field("label", s.label.as_str())
            .key("points")
            .begin_array();
        for r in &s.points {
            r.write_json(&mut j);
        }
        j.end_array().end_object();
    }
    j.end_array().end_object();
    j.finish() + "\n"
}

/// The sweep CLI's `--series-out` CSV: every grid cell's windowed
/// series concatenated into one rectangular table, each data row
/// prefixed with `series,mpl,rep` identity columns so a single file
/// holds the whole grid. Row contents per cell are byte-identical to a
/// standalone [`Series::render`](crate::engine::Series::render).
pub fn render_sweep_series_csv(cells: &[SeriesCell]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let rendered = c.series.render(SeriesFormat::Csv);
        let mut lines = rendered.lines();
        let Some(header) = lines.next() else { continue };
        if i == 0 {
            let _ = writeln!(out, "series,mpl,rep,{header}");
        }
        let label = c.label.replace(',', ";");
        for line in lines {
            let _ = writeln!(out, "{label},{},{},{line}", c.mpl, c.replication);
        }
    }
    out
}

/// The sweep CLI's `--series-out` JSON: one document with a `cells`
/// array, each element carrying the cell identity and the standalone
/// series document (exactly what
/// [`Series::render`](crate::engine::Series::render) produces) under
/// `data`.
pub fn render_sweep_series_json(cells: &[SeriesCell]) -> String {
    let mut j = Json::default();
    j.begin_object().key("cells").begin_array();
    for c in cells {
        j.begin_object()
            .field("series", c.label.as_str())
            .field("mpl", c.mpl)
            .field("rep", c.replication)
            .key("data")
            .raw(&c.series.render(SeriesFormat::Json))
            .end_object();
    }
    j.end_array().end_object();
    j.finish() + "\n"
}

/// Render one metric as CSV (`mpl,<series...>`), for plotting.
pub fn render_csv(exp: &Experiment, metric: Metric) -> String {
    render_wide_csv(exp, &[("", &|r| metric.of(r))])
}

/// Render one metric of an experiment as an ASCII chart in the style
/// of the paper's figures: MPL on the x-axis, one glyph per protocol
/// series, linear y-axis from zero.
pub fn render_ascii_chart(exp: &Experiment, metric: Metric, width: usize, height: usize) -> String {
    const GLYPHS: &[u8] = b"*+xo#@%&$~^=";
    let width = width.max(20);
    let height = height.max(5);
    let mpls = exp.mpls();
    if mpls.is_empty() || exp.series.is_empty() {
        return format!("== {} — {} ==\n(no data)\n", exp.title, metric.label());
    }
    let max_val = exp
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|r| metric.of(r)))
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let min_mpl = *mpls.first().expect("non-empty") as f64;
    let max_mpl = *mpls.last().expect("non-empty") as f64;
    let x_span = (max_mpl - min_mpl).max(1e-9);

    let mut grid = vec![vec![b' '; width]; height];
    for (si, s) in exp.series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for r in &s.points {
            let v = metric.of(r);
            if !v.is_finite() {
                continue;
            }
            let x = ((r.mpl as f64 - min_mpl) / x_span * (width - 1) as f64).round() as usize;
            let y = (v / max_val * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            grid[row][x.min(width - 1)] = glyph;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", exp.title, metric.label());
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{max_val:>8.1} |")
        } else if i == height - 1 {
            format!("{:>8.1} |", 0.0)
        } else {
            format!("{:>8} |", "")
        };
        let _ = writeln!(out, "{label}{}", String::from_utf8_lossy(row));
    }
    let _ = writeln!(out, "{:>9}+{}", "", "-".repeat(width));
    let _ = writeln!(out, "{:>10}MPL {min_mpl:.0} .. {max_mpl:.0}", "");
    for (si, s) in exp.series.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>10}{} {}",
            "",
            GLYPHS[si % GLYPHS.len()] as char,
            s.label
        );
    }
    out
}

/// Per-series peak-throughput summary — the comparison the paper's
/// conclusions are phrased in.
pub fn render_peaks(exp: &Experiment) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- {}: peak throughput --", exp.title);
    for s in &exp.series {
        let _ = writeln!(
            out,
            "{:<16} {:>8.2} txn/s at MPL {}",
            s.label,
            s.peak_throughput(),
            s.peak_mpl()
        );
    }
    out
}

/// Ranking table for single-MPL mix sweeps (the `scale` preset): every
/// series sorted by peak throughput, best first, alongside the metrics
/// that explain the ordering — under WAN latencies the response-time
/// and blocking columns are where the prepared-state protocols give
/// their rank away.
pub fn render_ranking(exp: &Experiment) -> String {
    let mut rows: Vec<_> = exp.series.iter().collect();
    rows.sort_by(|a, b| b.peak_throughput().total_cmp(&a.peak_throughput()));
    let mut out = String::new();
    let _ = writeln!(out, "-- {}: ranking --", exp.title);
    let _ = writeln!(
        out,
        "{:>4}  {:<24} {:>10} {:>10} {:>8} {:>8}",
        "rank", "series", "txn/s", "resp ms", "block", "msg/c"
    );
    for (i, s) in rows.iter().enumerate() {
        let p = s
            .points
            .iter()
            .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
            .expect("series have at least one point");
        let _ = writeln!(
            out,
            "{:>4}  {:<24} {:>10.2} {:>10.1} {:>8.3} {:>8.2}",
            i + 1,
            s.label,
            p.throughput,
            p.mean_response_s * 1_000.0,
            p.block_ratio,
            p.exec_messages_per_commit + p.commit_messages_per_commit,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::experiments::{sweep, Scale};
    use commitproto::ProtocolSpec;

    fn tiny_experiment() -> Experiment {
        let cfg = SystemConfig::paper_baseline();
        let scale = Scale::quick()
            .with_runs(10, 80)
            .with_mpls(vec![1, 2])
            .with_seed(3)
            .with_jobs(Some(1));
        let specs = vec![
            ("2PC".to_string(), ProtocolSpec::TWO_PC, cfg.clone()),
            ("OPT".to_string(), ProtocolSpec::OPT_2PC, cfg.clone()),
        ];
        Experiment {
            id: "test".into(),
            title: "test experiment".into(),
            config: cfg.clone(),
            series: sweep(&specs, &scale).unwrap(),
        }
    }

    /// The ranking table lists every series exactly once, best
    /// throughput first, with ranks counting up from 1.
    #[test]
    fn ranking_sorts_by_throughput() {
        let e = tiny_experiment();
        let t = render_ranking(&e);
        assert!(t.contains("ranking"));
        assert!(t.contains("2PC"));
        assert!(t.contains("OPT"));
        assert_eq!(t.lines().count(), 2 + 2); // title + header + 2 series
        let best = e
            .series
            .iter()
            .max_by(|a, b| a.peak_throughput().total_cmp(&b.peak_throughput()))
            .unwrap();
        let first_row = t.lines().nth(2).unwrap();
        assert!(first_row.trim_start().starts_with('1'));
        assert!(first_row.contains(&best.label));
    }

    #[test]
    fn table_contains_all_series_and_mpls() {
        let e = tiny_experiment();
        let t = render_table(&e, Metric::Throughput);
        assert!(t.contains("2PC"));
        assert!(t.contains("OPT"));
        assert!(t.contains("Throughput"));
        assert_eq!(t.lines().count(), 2 + 2); // header + title + 2 MPL rows
    }

    #[test]
    fn ci_table_shows_mean_and_half_width() {
        let e = tiny_experiment();
        let t = render_table_ci(&e);
        assert!(t.contains("±90% CI"));
        assert!(t.contains('±'));
        assert!(t.contains("2PC"));
        assert_eq!(t.lines().count(), 2 + 2); // title + header + 2 MPL rows
    }

    #[test]
    fn ci_csv_adds_one_half_width_column_per_series() {
        let e = tiny_experiment();
        let csv = render_csv_ci(&e);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        // mpl + (mean, ci) per series
        assert_eq!(header.split(',').count(), 1 + 2 * e.series.len());
        assert!(header.contains("2PC ci90"));
        for line in lines {
            assert_eq!(
                line.split(',').count(),
                1 + 2 * e.series.len(),
                "ragged: {line}"
            );
        }
    }

    #[test]
    fn phase_csv_has_nine_columns_per_series() {
        let e = tiny_experiment();
        let csv = render_phase_csv(&e);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 1 + 9 * e.series.len());
        assert!(header.contains("2PC exec p50"));
        assert!(header.contains("OPT ack p99"));
        for line in lines {
            assert_eq!(
                line.split(',').count(),
                1 + 9 * e.series.len(),
                "ragged: {line}"
            );
        }
        // Committed transactions exist, so percentiles are positive.
        let first = csv.lines().nth(1).unwrap();
        let exec_p50: f64 = first.split(',').nth(1).unwrap().parse().unwrap();
        assert!(exec_p50 > 0.0);
    }

    #[test]
    fn sweep_csv_concatenates_all_three_blocks() {
        let e = tiny_experiment();
        let csv = render_sweep_csv(&e);
        let blocks: Vec<&str> = csv.split("\n\n").collect();
        assert_eq!(blocks.len(), 3, "throughput + phase + occupancy blocks");
        assert_eq!(blocks[0], render_csv_ci(&e).trim_end_matches('\n'));
        assert!(blocks[1].starts_with("mpl,2PC exec p50"));
        assert!(blocks[2].starts_with("mpl,series,site,cpu occ p50"));
    }

    #[test]
    fn sweep_json_is_balanced_and_names_every_series() {
        let e = tiny_experiment();
        let j = render_sweep_json(&e);
        assert!(j.starts_with("{\"id\":\"test\",\"title\":\"test experiment\""));
        assert!(j.contains("\"label\":\"2PC\""));
        assert!(j.contains("\"label\":\"OPT\""));
        // Each point is a full report object, as `run --format json`.
        assert!(j.contains("\"points\":[{\"protocol\":"));
        assert!(j.contains("\"convergence\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains("inf") && !j.contains("NaN"));
        assert!(j.ends_with("]}\n"));
    }

    fn tiny_series_cells() -> Vec<SeriesCell> {
        let cfg = SystemConfig::paper_baseline();
        let scale = Scale::quick()
            .with_runs(10, 80)
            .with_mpls(vec![1, 2])
            .with_seed(3)
            .with_jobs(Some(1));
        let specs = vec![
            ("2PC".to_string(), ProtocolSpec::TWO_PC, cfg.clone()),
            ("OPT".to_string(), ProtocolSpec::OPT_2PC, cfg.clone()),
        ];
        let scfg = crate::engine::SeriesConfig::default();
        let (_, cells) =
            crate::experiments::sweep_with_series(&specs, &scale, &scfg).expect("tiny sweep runs");
        cells
    }

    #[test]
    fn sweep_series_csv_prefixes_identity_and_stays_rectangular() {
        let cells = tiny_series_cells();
        assert_eq!(cells.len(), 4, "2 series x 2 MPLs x 1 rep");
        let csv = render_sweep_series_csv(&cells);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("series,mpl,rep,window,start_s"));
        let n = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), n, "ragged: {line}");
        }
        assert!(csv.contains("\n2PC,1,0,"));
        assert!(csv.contains("\nOPT,2,0,"));
    }

    #[test]
    fn sweep_series_json_embeds_each_cell_document() {
        let cells = tiny_series_cells();
        let j = render_sweep_series_json(&cells);
        assert!(j.starts_with("{\"cells\":["));
        assert_eq!(j.matches("\"data\":{").count(), cells.len());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"series\":\"2PC\",\"mpl\":1,\"rep\":0"));
        assert!(j.contains("\"series\":\"OPT\",\"mpl\":2,\"rep\":0"));
    }

    #[test]
    fn occupancy_csv_has_one_row_per_mpl_series_site() {
        let e = tiny_experiment();
        let csv = render_occupancy_csv(&e);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 3 + 9);
        assert!(header.contains("log occ p99"));
        let sites = e.series[0].points[0].site_resources.len();
        assert!(sites > 0);
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), e.mpls().len() * e.series.len() * sites);
        for row in rows {
            assert_eq!(row.split(',').count(), 3 + 9, "ragged: {row}");
        }
        // Rows name each series and enumerate sites from zero.
        assert!(csv.contains("1,2PC,0,"));
        assert!(csv.contains("2,OPT,0,"));
    }

    #[test]
    fn csv_is_rectangular() {
        let e = tiny_experiment();
        let csv = render_csv(&e, Metric::BlockRatio);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header.split(',').count(), 3);
        for line in lines {
            assert_eq!(line.split(',').count(), 3, "ragged row: {line}");
        }
    }

    #[test]
    fn ascii_chart_has_axes_legend_and_marks() {
        let e = tiny_experiment();
        let chart = render_ascii_chart(&e, Metric::Throughput, 40, 10);
        assert!(chart.contains("Throughput"));
        assert!(chart.contains("* 2PC"));
        assert!(chart.contains("+ OPT"));
        assert!(chart.contains("MPL 1 .. 2"));
        assert!(chart.contains('|'));
        assert!(chart.contains('+'));
        // marks actually plotted
        assert!(chart.contains('*'));
        // y axis starts at zero
        assert!(chart.contains("     0.0 |"));
    }

    #[test]
    fn ascii_chart_clamps_tiny_dimensions() {
        let e = tiny_experiment();
        let chart = render_ascii_chart(&e, Metric::BlockRatio, 1, 1);
        // clamped to minimum size rather than panicking
        assert!(chart.lines().count() >= 5);
    }

    #[test]
    fn ascii_chart_handles_empty_experiment() {
        let e = Experiment {
            id: "empty".into(),
            title: "empty".into(),
            config: SystemConfig::paper_baseline(),
            series: vec![],
        };
        let chart = render_ascii_chart(&e, Metric::Throughput, 30, 8);
        assert!(chart.contains("(no data)"));
    }

    #[test]
    fn peaks_mention_every_series() {
        let e = tiny_experiment();
        let p = render_peaks(&e);
        assert!(p.contains("2PC"));
        assert!(p.contains("OPT"));
        assert!(p.contains("txn/s"));
    }

    #[test]
    fn metric_extraction_is_consistent() {
        let e = tiny_experiment();
        let r = &e.series[0].points[0];
        assert_eq!(Metric::Throughput.of(r), r.throughput);
        assert_eq!(
            Metric::MessagesPerCommit.of(r),
            r.exec_messages_per_commit + r.commit_messages_per_commit
        );
        for m in [
            Metric::Throughput,
            Metric::BlockRatio,
            Metric::BorrowRatio,
            Metric::ResponseTime,
            Metric::ResponseP95,
            Metric::AbortFraction,
            Metric::ForcedWritesPerCommit,
            Metric::MessagesPerCommit,
            Metric::CrashBlockedTime,
            Metric::MasterCrashes,
            Metric::DataDiskUtilization,
            Metric::LogDiskUtilization,
            Metric::WritesPerLogService,
        ] {
            assert!(!m.label().is_empty());
            assert!(m.of(r).is_finite());
        }
    }
}
