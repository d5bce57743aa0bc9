//! The three benchmark workloads, driven through the simulator's public
//! API.
//!
//! Each workload is a batch job that waits for every call it makes (a
//! closed system of `MPL` transactions per site inside each simulation
//! run). [`setup`] builds and validates the configurations and makes one
//! 1-transaction run per distinct configuration; [`execute`] runs the
//! timed work once, optionally recording spans around every call into a
//! layer, and returns what the checks and metrics need.

use crate::digest::{Digest, DigestWriter};
use crate::spans::{Recorder, SpanId};
use distdb::config::SystemConfig;
use distdb::engine::{ChromeWriter, SeriesConfig, SeriesFormat, Simulation, TraceEvent, TraceSink};
use distdb::experiments::{self, Experiment, ProtocolSeries, Scale};
use distdb::metrics::{ReportFormat, SimReport};
use distdb::output::{self, Metric};
use distdb::protocol::ProtocolSpec;
use distdb::runner;
use std::io;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `experiments::fig1` at `Scale::quick()`: 7 protocols × MPL 1..10
    /// on the 8-site paper baseline, fanned out by the runner, rendered
    /// as tables, CSV and JSON.
    PaperFig1,
    /// Two serial runs, 2PC then OPT, on the 64-site, 64 000-page
    /// Zipf(0.9) 4-region WAN configuration at MPL 4.
    WanZipf64,
    /// 2PC and Paxos Commit (F = 1) with crashes and message loss, each
    /// observed once through a streamed Chrome trace and once through a
    /// streamed per-site series.
    FaultsObserved,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFig1,
        Workload::WanZipf64,
        Workload::FaultsObserved,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFig1 => "paper-fig1",
            Workload::WanZipf64 => "wan-zipf-64",
            Workload::FaultsObserved => "faults-observed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The configuration whose shape drives the per-layer probes: the
    /// cell the workload spends most of its time in.
    pub fn layer_config(self) -> SystemConfig {
        match self {
            // The middle of the 1..10 MPL axis.
            Workload::PaperFig1 => SystemConfig::paper_baseline().with_mpl(5),
            Workload::WanZipf64 => wan_config(),
            Workload::FaultsObserved => faults_config(1),
        }
    }
}

/// Commits per run of `wan-zipf-64`: (warm-up, measured).
const WAN_RUN: (u64, u64) = (500, 20_000);
/// Commits per run of `faults-observed`: (warm-up, measured).
const FAULTS_RUN: (u64, u64) = (500, 10_000);
/// The fault mix of `faults-observed`.
const FAULTS: &str = "mc=0.01,cc=0.005,loss=0.01";

/// The 64-site WAN + Zipf configuration (BENCH_10's `scale` cell).
pub fn wan_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline()
        .with_zipf(0.9)
        .with_topology(
            "regions=4,lan-ms=1,wan-ms=40,jitter=0.1"
                .parse()
                .expect("literal topology"),
        )
        .with_mpl(4)
        .with_run_length(WAN_RUN.0, WAN_RUN.1);
    cfg.num_sites = 64;
    cfg.db_size = 64_000;
    cfg
}

/// The faulty 8-site baseline at MPL 4, with replication degree `f`.
pub fn faults_config(f: u32) -> SystemConfig {
    SystemConfig::paper_baseline()
        .with_mpl(4)
        .with_failures(FAULTS.parse().expect("literal fault mix"))
        .with_replication(f)
        .with_run_length(FAULTS_RUN.0, FAULTS_RUN.1)
}

/// One simulation run of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Protocol label.
    pub label: String,
    /// Full configuration, MPL and run length included.
    pub cfg: SystemConfig,
    /// Protocol.
    pub spec: ProtocolSpec,
    /// RNG seed of the run.
    pub seed: u64,
}

#[derive(Debug)]
enum Kind {
    /// A runner-parallel grid assembled into an [`Experiment`]; `shell`
    /// carries the experiment's id, title and base configuration.
    Grid {
        scale: Scale,
        shell: Box<Experiment>,
        mpls: usize,
    },
    /// Plain serial runs.
    Serial,
    /// Runs observed through streaming sinks.
    Observed,
}

/// The series every observed run streams: per-site windows of the
/// default width.
const SERIES: SeriesConfig = SeriesConfig {
    window: SeriesConfig::DEFAULT_WINDOW,
    per_site: true,
};

/// Everything [`execute`] needs, built by [`setup`].
#[derive(Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Runner worker threads.
    pub jobs: usize,
    /// Every simulation run of one execution, in output order.
    pub cells: Vec<Cell>,
    kind: Kind,
}

/// Build, validate and warm the workload's configurations: one
/// 1-transaction run per distinct configuration, which builds the
/// latency matrix, alias table and lock tables. Returns the plan and
/// the seconds spent in the 1-transaction runs.
///
/// # Errors
/// A description of the first invalid configuration or failed run.
pub fn setup(
    workload: Workload,
    seed: u64,
    jobs: usize,
    rec: Option<(&Recorder, SpanId)>,
) -> Result<(Plan, f64), String> {
    let (cells, kind) = match workload {
        Workload::PaperFig1 => {
            let scale = Scale::quick().with_seed(seed).with_jobs(Some(jobs));
            // An empty MPL axis runs nothing and returns the
            // experiment's identity for assembling the traced grid.
            let shell = experiments::fig1(&scale.clone().with_mpls(Vec::new()))
                .map_err(|e| format!("fig1 shell: {e}"))?;
            let mut cells = Vec::new();
            for (si, spec) in experiments::figure12_protocols().into_iter().enumerate() {
                for (mi, &mpl) in scale.mpls.iter().enumerate() {
                    cells.push(Cell {
                        label: spec.name().to_string(),
                        cfg: shell
                            .config
                            .clone()
                            .with_mpl(mpl)
                            .with_run_length(scale.warmup, scale.measured),
                        spec,
                        seed: experiments::cell_seed(seed, si, mi, 0),
                    });
                }
            }
            let mpls = scale.mpls.len();
            (
                cells,
                Kind::Grid {
                    scale,
                    shell: Box::new(shell),
                    mpls,
                },
            )
        }
        Workload::WanZipf64 => (
            [ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC]
                .into_iter()
                .map(|spec| Cell {
                    label: spec.name().to_string(),
                    cfg: wan_config(),
                    spec,
                    seed,
                })
                .collect(),
            Kind::Serial,
        ),
        Workload::FaultsObserved => (
            [(ProtocolSpec::TWO_PC, 0), (ProtocolSpec::PAXOS, 1)]
                .into_iter()
                .map(|(spec, f)| Cell {
                    label: spec.name().to_string(),
                    cfg: faults_config(f),
                    spec,
                    seed,
                })
                .collect(),
            Kind::Observed,
        ),
    };
    let mut new_s = 0.0;
    for (i, c) in cells.iter().enumerate() {
        c.cfg
            .validate()
            .map_err(|e| format!("{} config: {e}", c.label))?;
        let one = c.cfg.clone().with_run_length(0, 1);
        let t0 = Instant::now();
        let r = traced(rec, "engine.new", Some(i), || {
            Simulation::run(&one, c.spec, c.seed)
        });
        new_s += t0.elapsed().as_secs_f64();
        let r = r.map_err(|e| format!("{} 1-transaction run: {e}", c.label))?;
        if r.committed != 1 {
            return Err(format!(
                "{} 1-transaction run committed {}",
                c.label, r.committed
            ));
        }
    }
    Ok((
        Plan {
            workload,
            jobs,
            cells,
            kind,
        },
        new_s,
    ))
}

/// What one execution produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulation runs attempted.
    pub runs: u64,
    /// Runs that returned an error, missed their commit target, had an
    /// overhead-model mismatch, or disagreed with an observed twin.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Simulated events over every run.
    pub events: u64,
    /// Digest of every rendered output and streamed sink byte.
    pub digest: u64,
    /// Every run's report, labelled.
    pub reports: Vec<(String, SimReport)>,
    /// Bytes rendered as tables, CSV and JSON.
    pub render_bytes: u64,
    /// Bytes streamed by the Chrome-trace sink.
    pub chrome_bytes: u64,
    /// Bytes streamed by the series sink.
    pub series_bytes: u64,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Check one run's report against its cell's targets and count it.
    fn check(&mut self, cell: &Cell, r: &SimReport) {
        self.runs += 1;
        self.events += r.events;
        let target = cell.cfg.run.measured_transactions;
        if r.committed != target {
            self.fail(format!(
                "{} mpl {}: committed {} of {target}",
                cell.label, cell.cfg.mpl, r.committed
            ));
        } else if r.overhead_check.mismatched_commits != 0 {
            self.fail(format!(
                "{} mpl {}: {} overhead-model mismatches",
                cell.label, cell.cfg.mpl, r.overhead_check.mismatched_commits
            ));
        }
    }

    fn error(&mut self, cell: &Cell, e: impl std::fmt::Display) {
        self.runs += 1;
        self.fail(format!("{} mpl {}: {e}", cell.label, cell.cfg.mpl));
    }
}

/// Run `f`, inside a span when a recorder is given.
fn traced<T>(
    rec: Option<(&Recorder, SpanId)>,
    name: &'static str,
    cell: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some((r, parent)) => r.span(name, Some(parent), cell.map(cell_id), |_| f()),
        None => f(),
    }
}

fn cell_id(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 cells")
}

/// Render `text` under a `render.*` span and absorb it into the digest.
fn render(
    out: &mut Outcome,
    digest: &mut Digest,
    rec: Option<(&Recorder, SpanId)>,
    name: &'static str,
    f: impl FnOnce() -> String,
) {
    let text = traced(rec, name, None, f);
    out.render_bytes += text.len() as u64;
    digest.update(text.as_bytes());
}

/// Run the workload's timed work once. With a recorder, every call
/// into a layer is wrapped in a span parented to the given span; the
/// work and its outputs are identical either way.
pub fn execute(plan: &Plan, rec: Option<(&Recorder, SpanId)>) -> Outcome {
    let mut out = Outcome::default();
    let mut digest = Digest::new();
    match &plan.kind {
        Kind::Grid { scale, shell, mpls } => {
            let exp = match rec {
                // The untraced run is the public preset itself.
                None => experiments::fig1(scale).map_err(|e| e.to_string()),
                Some(r) => traced_grid(plan, shell, *mpls, r),
            };
            match exp {
                Ok(exp) => {
                    let points = exp.series.iter().flat_map(|s| s.points.iter());
                    for (cell, r) in plan.cells.iter().zip(points) {
                        out.check(cell, r);
                        out.reports.push((cell.label.clone(), r.clone()));
                    }
                    let metrics = [Metric::Throughput, Metric::BlockRatio, Metric::BorrowRatio];
                    render(&mut out, &mut digest, rec, "render.table", || {
                        metrics
                            .iter()
                            .map(|&m| output::render_table(&exp, m))
                            .collect()
                    });
                    render(&mut out, &mut digest, rec, "render.csv", || {
                        metrics
                            .iter()
                            .map(|&m| output::render_csv(&exp, m))
                            .collect()
                    });
                    render(&mut out, &mut digest, rec, "render.json", || {
                        output::render_sweep_json(&exp)
                    });
                }
                Err(e) => {
                    for cell in &plan.cells {
                        out.error(cell, &e);
                    }
                }
            }
        }
        Kind::Serial => {
            for (i, cell) in plan.cells.iter().enumerate() {
                match traced(rec, "engine.run", Some(i), || {
                    Simulation::run(&cell.cfg, cell.spec, cell.seed)
                }) {
                    Ok(r) => {
                        out.check(cell, &r);
                        for (name, format) in [
                            ("render.table", ReportFormat::Table),
                            ("render.csv", ReportFormat::Csv),
                            ("render.json", ReportFormat::Json),
                        ] {
                            render(&mut out, &mut digest, rec, name, || r.render(format));
                        }
                        out.reports.push((cell.label.clone(), r));
                    }
                    Err(e) => out.error(cell, e),
                }
            }
        }
        Kind::Observed => {
            for (i, cell) in plan.cells.iter().enumerate() {
                observe(&mut out, &mut digest, cell, i, rec);
            }
        }
    }
    out.digest = digest.finish();
    out
}

/// The fig1 grid through the runner with one span per cell, assembled
/// exactly as `experiments::sweep` assembles it.
fn traced_grid(
    plan: &Plan,
    shell: &Experiment,
    mpls: usize,
    rec: (&Recorder, SpanId),
) -> Result<Experiment, String> {
    let mut reports = fan_out(plan, rec).into_iter();
    let mut exp = Experiment {
        series: Vec::with_capacity(plan.cells.len() / mpls),
        ..shell.clone()
    };
    for chunk in plan.cells.chunks(mpls) {
        let mut points = Vec::with_capacity(mpls);
        for _ in chunk {
            let r = reports
                .next()
                .expect("one result per cell")
                .map_err(|e| e.to_string())?;
            points.push(SimReport::merge_replications(&[r]));
        }
        exp.series.push(ProtocolSeries {
            label: chunk[0].label.clone(),
            points,
        });
    }
    Ok(exp)
}

/// Every cell through `runner::run_ordered` at the plan's worker count,
/// under one `runner.grid` span with one `engine.run` span per cell.
fn fan_out(
    plan: &Plan,
    (rec, parent): (&Recorder, SpanId),
) -> Vec<Result<SimReport, distdb::config::ConfigError>> {
    let inputs: Vec<(u32, &Cell)> = plan
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (cell_id(i), c))
        .collect();
    rec.span("runner.grid", Some(parent), None, |grid| {
        runner::run_ordered(&inputs, plan.jobs, |&(i, c)| {
            rec.span("engine.run", Some(grid), Some(i), |_| {
                Simulation::run(&c.cfg, c.spec, c.seed)
            })
        })
    })
}

/// The runner measurement for the workloads that run their cells
/// serially: fan the same cells out once at the plan's worker count.
pub fn runner_probe(plan: &Plan, rec: (&Recorder, SpanId)) -> Outcome {
    let mut out = Outcome::default();
    for (cell, r) in plan.cells.iter().zip(fan_out(plan, rec)) {
        match r {
            Ok(r) => out.check(cell, &r),
            Err(e) => out.error(cell, e),
        }
    }
    out
}

/// The sink measurement for the workloads that stream nothing: observe
/// their 2PC cell at the layer-probe MPL through both sinks, then run
/// it plain.
pub fn sink_probe(plan: &Plan, rec: (&Recorder, SpanId)) -> Outcome {
    let mut out = Outcome::default();
    let mpl = plan.workload.layer_config().mpl;
    let Some((i, cell)) = (plan.cells.iter().enumerate())
        .find(|(_, c)| c.spec == ProtocolSpec::TWO_PC && c.cfg.mpl == mpl)
    else {
        return out;
    };
    observe(&mut out, &mut Digest::new(), cell, i, Some(rec));
    let observed = std::mem::take(&mut out.reports);
    plain_run(&mut out, cell, i, &observed, rec);
    out
}

/// Observe one run twice: through a streamed Chrome trace of every
/// transaction, then through a streamed per-site series. Both sinks
/// write into digesting writers that discard the bytes.
fn observe(
    out: &mut Outcome,
    digest: &mut Digest,
    cell: &Cell,
    i: usize,
    rec: Option<(&Recorder, SpanId)>,
) {
    let chrome = traced(rec, "sinks.chrome", Some(i), || {
        let sink = ChromeDigestSink::new().map_err(|e| e.to_string())?;
        Simulation::run_with_sink(&cell.cfg, cell.spec, cell.seed, u64::MAX, sink)
            .map_err(|e| e.to_string())
    });
    let chrome = chrome.and_then(|(r, sink)| {
        let (bytes, d) = sink.result().map_err(|e| format!("chrome sink: {e}"))?;
        Ok((r, bytes, d))
    });
    let writer = DigestWriter::new();
    let series_run = traced(rec, "sinks.series", Some(i), || {
        Simulation::run_with_series_stream(
            &cell.cfg,
            cell.spec,
            cell.seed,
            &SERIES,
            Box::new(writer.clone()),
            SeriesFormat::Csv,
        )
    });
    let (chrome_report, chrome_bytes, chrome_digest) = match chrome {
        Ok(v) => v,
        Err(e) => return out.error(cell, e),
    };
    out.check(cell, &chrome_report);
    let series_report = match series_run {
        Ok(r) => r,
        Err(e) => return out.error(cell, e),
    };
    out.check(cell, &series_report);
    let json = traced(rec, "render.json", Some(i), || {
        chrome_report.render(ReportFormat::Json)
    });
    if series_report.render(ReportFormat::Json) != json {
        out.fail(format!(
            "{}: the series-observed report differs from the trace-observed one",
            cell.label
        ));
    }
    out.render_bytes += json.len() as u64;
    digest.update(json.as_bytes());
    render(out, digest, rec, "render.table", || {
        chrome_report.render(ReportFormat::Table)
    });
    render(out, digest, rec, "render.csv", || {
        chrome_report.render(ReportFormat::Csv)
    });
    let (series_bytes, series_digest) = writer.result();
    out.chrome_bytes += chrome_bytes;
    out.series_bytes += series_bytes;
    digest.update_u64(chrome_digest);
    digest.update_u64(series_digest);
    out.reports.push((cell.label.clone(), chrome_report));
}

/// Plain runs of an observed workload's cells, for subtracting the
/// engine's share from the observed runs. Each is checked against the
/// observed report of the same cell in `observed`.
pub fn reference_runs(plan: &Plan, observed: &Outcome, rec: (&Recorder, SpanId)) -> Outcome {
    let mut out = Outcome::default();
    if matches!(plan.kind, Kind::Observed) {
        for (i, cell) in plan.cells.iter().enumerate() {
            plain_run(&mut out, cell, i, &observed.reports, rec);
        }
    }
    out
}

/// A plain run of `cell` under an `engine.run` span, checked against
/// its observed twin in `observed`.
fn plain_run(
    out: &mut Outcome,
    cell: &Cell,
    i: usize,
    observed: &[(String, SimReport)],
    rec: (&Recorder, SpanId),
) {
    match traced(Some(rec), "engine.run", Some(i), || {
        Simulation::run(&cell.cfg, cell.spec, cell.seed)
    }) {
        Ok(r) => {
            out.check(cell, &r);
            let twin = observed.iter().find(|(l, _)| *l == cell.label);
            if twin
                .is_some_and(|(_, o)| o.render(ReportFormat::Json) != r.render(ReportFormat::Json))
            {
                out.fail(format!(
                    "{}: the plain report differs from the observed one",
                    cell.label
                ));
            }
            out.reports.push((cell.label.clone(), r));
        }
        Err(e) => out.error(cell, e),
    }
}

/// A Chrome-trace sink that streams through the library's
/// [`ChromeWriter`] (as `ChromeStreamSink` does) into a digesting
/// writer instead of a file.
struct ChromeDigestSink {
    writer: Option<ChromeWriter<io::BufWriter<DigestWriter>>>,
    out: DigestWriter,
    error: Option<io::Error>,
}

impl ChromeDigestSink {
    fn new() -> io::Result<Self> {
        let out = DigestWriter::new();
        Ok(ChromeDigestSink {
            writer: Some(ChromeWriter::new(io::BufWriter::new(out.clone()))?),
            out,
            error: None,
        })
    }

    /// `(bytes, digest)` of the finished trace, or the first error.
    fn result(self) -> io::Result<(u64, u64)> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out.result()),
        }
    }
}

impl TraceSink for ChromeDigestSink {
    fn record(&mut self, event: &TraceEvent) {
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.event(event) {
                self.error = Some(e);
                self.writer = None;
            }
        }
    }

    fn finish(&mut self) {
        if let Some(w) = self.writer.take() {
            if let Err(e) = w.finish().and_then(|mut b| io::Write::flush(&mut b)) {
                self.error.get_or_insert(e);
            }
        }
    }
}
