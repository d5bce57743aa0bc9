//! Orchestration: set-up repetitions, the timed loop, the traced run
//! with its layer probes, the output check, and the metric catalogue.
//!
//! With `--trace 0` the process sets up several times, then repeats the
//! workload until `--seconds` have passed and reports medians of the
//! end-to-end metrics. With `--trace 1` it alternates untraced and
//! traced executions for `--seconds`, then runs the layer probes, and
//! reports the per-layer metrics. No clock is read inside the engine.

use crate::layers;
use crate::spans::{self, Recorder, Span};
use crate::stats::{max, median, quartiles};
use crate::sys;
use crate::workloads::{self, Outcome, Plan, Workload};
use std::time::{Duration, Instant};

/// Command-line usage.
pub const USAGE: &str = "usage: perfbench --workload <paper-fig1|wan-zipf-64|faults-observed> \
[--seed N (42)] [--seconds S (10)] [--trace 0|1 (0)]";

/// The seed whose output digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`. A workload that
/// never reaches a layer reports 0 for it (see README.md).
pub const PER_LAYER: [(&str, &str); 32] = [
    ("runner.busy_frac", "frac"),
    ("runner.straggler_s", "s"),
    ("runner.idle_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_commit", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.ns_per_event_2pc", "ns"),
    ("engine.cell_s.p50", "s"),
    ("engine.cell_s.max", "s"),
    ("engine.new_s", "s"),
    ("calendar.ns_per_op", "ns"),
    ("workload.ns_per_txn", "ns"),
    ("locks.ns_per_request", "ns"),
    ("locks.ns_per_release", "ns"),
    ("locks.blocked_frac", "frac"),
    ("deadlock.ns_per_scan", "ns"),
    ("station.ns_per_job", "ns"),
    ("sinks.chrome_s", "s"),
    ("sinks.series_s", "s"),
    ("sinks.chrome_bytes", "B"),
    ("sinks.series_bytes", "B"),
    ("render.table_s", "s"),
    ("render.csv_s", "s"),
    ("render.json_s", "s"),
    ("render.bytes", "B"),
    ("commit.messages_per_commit", "count"),
    ("commit.forced_writes_per_commit", "count"),
    ("locks.block_ratio", "frac"),
    ("locks.deadlock_aborts", "count"),
    ("faults.retransmissions", "count"),
    ("overhead.mismatches", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Set-up repetitions before each timed execution: at least
/// [`SETUP_REPS`] and at least [`SETUP_SECS`] seconds of them, at most
/// [`SETUP_MAX_REPS`]. Spreading them over the run makes their median
/// sample the same host states as the executions do.
const SETUP_REPS: usize = 3;
const SETUP_SECS: f64 = 0.05;
const SETUP_MAX_REPS: usize = 100;
/// Timed executions per run, at least.
const MIN_ITERATIONS: usize = 2;
/// Repetitions of each layer probe.
const PROBE_REPS: usize = 3;
/// Repetitions of the sink probe (observed and plain runs of one cell).
const SINK_PROBE_REPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload W [--seed N] [--seconds S] [--trace 0|1]`.
    ///
    /// # Errors
    /// A message naming the bad or missing argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Simulation runs attempted (timed and traced executions).
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// `(name, unit, value)`, in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable summary lines.
    pub lines: Vec<String>,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    fn set(&mut self, catalogue: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(n, u) = catalogue
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
        if !value.is_finite() {
            self.failures.push(format!("{name} is not finite"));
        }
        self.metrics.push((n, u, value));
    }
}

/// The digest recorded for `workload` at `seed`, if any.
pub fn recorded_digest(workload: Workload, seed: u64) -> Option<u64> {
    parse_digests(include_str!("../digests.txt"), workload.name(), seed)
}

/// Find `<workload> <seed> <hex digest>` in a digests file.
pub fn parse_digests(text: &str, workload: &str, seed: u64) -> Option<u64> {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, s, d] if w == workload && s.parse() == Ok(seed) => u64::from_str_radix(d, 16).ok(),
            _ => None,
        })
}

/// Compare an execution's digest with the reference and the recorded
/// one; on a mismatch every run of the execution counts as failed.
pub fn check_digest(out: &mut Outcome, reference: u64, recorded: Option<u64>, what: &str) {
    let bad = if out.digest != reference {
        Some(format!(
            "{what}: output digest {:016x} differs from the run's first {reference:016x}",
            out.digest
        ))
    } else {
        recorded.filter(|&r| r != out.digest).map(|r| {
            format!(
                "{what}: output digest {:016x} differs from recorded {r:016x}",
                out.digest
            )
        })
    };
    if let Some(why) = bad {
        out.failed = out.runs;
        out.failures.push(why);
    }
}

/// One timed execution.
struct Timed {
    wall: f64,
    cpu: f64,
    out: Outcome,
}

fn timed(plan: &Plan, rec: Option<(&Recorder, spans::SpanId)>) -> Timed {
    let c0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let out = workloads::execute(plan, rec);
    Timed {
        wall: t0.elapsed().as_secs_f64(),
        cpu: sys::cpu_seconds() - c0,
        out,
    }
}

/// Run the benchmark.
///
/// # Errors
/// A set-up failure (invalid configuration or a failed 1-transaction
/// run); check failures are reported in the returned [`Report`].
pub fn run(args: &Args) -> Result<Report, String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rec = args.trace.then(Recorder::new);
    let recorded = recorded_digest(args.workload, args.seed);

    let mut setup_s = Vec::new();
    let mut new_s = Vec::new();
    let mut set_up = |reps: usize, secs: f64| -> Result<Plan, String> {
        let t_start = Instant::now();
        let mut done = 0;
        loop {
            let t0 = Instant::now();
            let root = rec
                .as_ref()
                .map(|r| (r, r.open("setup", None, Some(setup_s.len() as u32))));
            let (plan, n) = workloads::setup(args.workload, args.seed, jobs, root)?;
            if let Some((r, id)) = root {
                r.close(id);
            }
            setup_s.push(t0.elapsed().as_secs_f64());
            new_s.push(n);
            done += 1;
            if done >= SETUP_MAX_REPS || (done >= reps && t_start.elapsed().as_secs_f64() >= secs) {
                return Ok(plan);
            }
        }
    };
    let plan = set_up(1, 0.0)?;

    let mut report = Report::default();
    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let mut references: Vec<Outcome> = Vec::new();
    let mut reference_digest = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while plain.len() < MIN_ITERATIONS || Instant::now() < deadline {
        let k = plain.len();
        // Each set-up builds an identical plan; the first one is kept.
        set_up(SETUP_REPS, SETUP_SECS)?;
        let mut t = timed(&plan, None);
        let first = *reference_digest.get_or_insert(t.out.digest);
        check_digest(&mut t.out, first, recorded, &format!("execution {k}"));
        plain.push(t);
        if let Some(r) = &rec {
            let root = r.open("iteration", None, Some(k as u32));
            let mut t = timed(&plan, Some((r, root)));
            r.close(root);
            check_digest(
                &mut t.out,
                first,
                recorded,
                &format!("traced execution {k}"),
            );
            let root = r.open("reference", None, Some(k as u32));
            references.push(workloads::reference_runs(&plan, &t.out, (r, root)));
            r.close(root);
            traced.push(t);
        }
    }
    // The serial workloads never use the runner or stream anything:
    // measure those layers once on their own cells.
    let probe_under =
        |root: &'static str, reps: usize, f: fn(&Plan, (&Recorder, spans::SpanId)) -> Outcome| {
            let Some(r) = &rec else { return Vec::new() };
            (0..reps)
                .map(|k| r.span(root, None, Some(k as u32), |id| f(&plan, (r, id))))
                .collect()
        };
    let runner_out = match plan.workload {
        Workload::PaperFig1 => Vec::new(),
        _ => probe_under("runner-probe", 1, workloads::runner_probe),
    };
    let sink_out = match plan.workload {
        Workload::FaultsObserved => Vec::new(),
        _ => probe_under("sink-probe", SINK_PROBE_REPS, workloads::sink_probe),
    };
    let outcomes = plain
        .iter()
        .map(|t| &t.out)
        .chain(traced.iter().map(|t| &t.out))
        .chain(&references)
        .chain(&runner_out)
        .chain(&sink_out);
    for o in outcomes {
        report.attempted += o.runs;
        report.failed += o.failed;
        report.failures.extend(o.failures.iter().cloned());
    }

    let wall: Vec<f64> = plain.iter().map(|t| t.wall).collect();
    let mut lines = vec![format!(
        "perfbench {} seed {} — {} timed executions of {} runs, {} set-ups, {jobs} worker threads{}",
        args.workload.name(),
        args.seed,
        plain.len(),
        plan.cells.len(),
        setup_s.len(),
        if args.trace { ", traced" } else { "" }
    )];
    if let Some(r) = rec {
        let probes = r.span("layers", None, None, |_| probe(args.workload, args.seed));
        let spans = r.snapshot();
        per_layer(
            &mut report,
            &plan,
            &spans,
            &traced,
            &references,
            sink_out.first(),
            &new_s,
            &probes,
        );
        let overhead =
            median(&traced.iter().map(|t| t.wall).collect::<Vec<_>>()) / median(&wall) - 1.0;
        report.set(&PER_LAYER, "trace.overhead_frac", overhead);
        match write_spans(args, &spans) {
            Ok(path) => lines.push(format!("spans written to {path}")),
            Err(e) => lines.push(format!("spans not written: {e}")),
        }
    } else {
        let cpu: Vec<f64> = plain.iter().map(|t| t.cpu).collect();
        let eps: Vec<f64> = plain.iter().map(|t| t.out.events as f64 / t.wall).collect();
        let rss = sys::peak_rss_mb().map_err(|e| format!("peak RSS: {e}"))?;
        report.set(&END_TO_END, "wall_s", median(&wall));
        report.set(&END_TO_END, "cpu_s", median(&cpu));
        report.set(&END_TO_END, "events_per_s", median(&eps));
        report.set(&END_TO_END, "peak_rss_mb", rss);
        report.set(&END_TO_END, "setup_s", median(&setup_s));
        for (name, v) in [
            ("wall_s", &wall),
            ("cpu_s", &cpu),
            ("events_per_s", &eps),
            ("setup_s", &setup_s),
        ] {
            let [q1, q2, q3] = quartiles(v);
            lines.push(format!(
                "{name:>16}  median {q2:.6}  q1 {q1:.6}  q3 {q3:.6}  n {}",
                v.len()
            ));
        }
        lines.push(format!("{:>16}  {rss:.3}", "peak_rss_mb"));
        let each: Vec<String> = wall.iter().map(|w| format!("{w:.3}")).collect();
        lines.push(format!("{:>16}  {}", "each wall_s", each.join(" ")));
    }
    lines.push(format!(
        "{:>16}  {} / {} runs",
        "failed_frac", report.failed, report.attempted
    ));
    lines.push(format!(
        "{:>16}  {:016x}{}",
        "digest",
        reference_digest.unwrap_or(0),
        match recorded {
            Some(d) => format!(" (recorded {d:016x})"),
            None => " (none recorded for this seed)".into(),
        }
    ));
    for (n, u, v) in &report.metrics {
        lines.push(format!("{n:>32}  {v} {u}"));
    }
    report.lines = lines;
    report.correct = report.failed == 0 && report.failures.is_empty() && report.attempted > 0;
    Ok(report)
}

/// Medians of the layer probes, driven by the workload's shape.
#[derive(Debug, Default)]
struct Probes {
    calendar_ns: f64,
    locks: layers::LockProbe,
    station_ns: f64,
}

fn probe(workload: Workload, seed: u64) -> Probes {
    let cfg = workload.layer_config();
    let mut cal = Vec::new();
    let mut locks = Vec::new();
    let mut station = Vec::new();
    for _ in 0..PROBE_REPS {
        cal.push(layers::calendar_ns_per_op(&cfg, seed));
        locks.push(layers::lock_probe(&cfg, seed));
        station.push(layers::station_ns_per_job(&cfg, seed));
    }
    let med = |f: fn(&layers::LockProbe) -> f64| median(&locks.iter().map(f).collect::<Vec<_>>());
    Probes {
        calendar_ns: median(&cal),
        locks: layers::LockProbe {
            ns_per_txn: med(|p| p.ns_per_txn),
            ns_per_request: med(|p| p.ns_per_request),
            ns_per_release: med(|p| p.ns_per_release),
            blocked_frac: locks[0].blocked_frac,
            ns_per_scan: med(|p| p.ns_per_scan),
            requests: locks[0].requests,
            deadlocks: locks[0].deadlocks,
        },
        station_ns: median(&station),
    }
}

/// The span at the root of `i`'s parent chain.
fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Per-execution sums of span durations, keyed by the execution index
/// (the root span's cell), for spans named `name` under roots named
/// `root`.
fn per_execution(spans: &[Span], root: &str, name: &str, n: usize) -> Vec<f64> {
    let mut sums = vec![0.0; n];
    for (i, s) in spans.iter().enumerate() {
        let r = &spans[root_of(spans, i)];
        if s.name == name && r.name == root {
            if let Some(k) = r.cell.filter(|&k| (k as usize) < n) {
                sums[k as usize] += s.secs();
            }
        }
    }
    sums
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    plan: &Plan,
    spans: &[Span],
    traced: &[Timed],
    references: &[Outcome],
    sink_probe: Option<&Outcome>,
    new_s: &[f64],
    probes: &Probes,
) {
    let n = traced.len();
    let selfs = spans::self_times(spans);
    let set = |report: &mut Report, name: &str, v: f64| report.set(&PER_LAYER, name, v);

    // Runner: one grid span per traced execution of paper-fig1, or the
    // runner probe's single grid for the serial workloads.
    let (mut busy, mut straggler, mut idle) = (Vec::new(), Vec::new(), Vec::new());
    for (g, grid) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "runner.grid")
    {
        let cells: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(g)).collect();
        let sum: f64 = cells.iter().map(|s| s.secs()).sum();
        busy.push(sum / (plan.jobs as f64 * grid.secs()));
        let mut last_end = std::collections::BTreeMap::new();
        for c in &cells {
            let e = last_end.entry(c.thread).or_insert(0);
            *e = c.end.max(*e);
        }
        let first_idle = last_end.values().copied().min().unwrap_or(grid.end);
        straggler.push(grid.end.saturating_sub(first_idle) as f64 * 1e-9);
        idle.push(selfs[g] as f64 * 1e-9);
    }
    let or0 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    set(report, "runner.busy_frac", or0(&busy));
    set(report, "runner.straggler_s", or0(&straggler));
    set(report, "runner.idle_s", or0(&idle));

    // Engine: plain `Simulation::run` spans — the traced executions
    // for grid and serial workloads, the reference runs for observed.
    let observed = plan.workload == Workload::FaultsObserved;
    let (engine_root, engine_out) = if observed {
        ("reference", &references[0])
    } else {
        ("iteration", &traced[0].out)
    };
    let events = engine_out.events as f64;
    let commits: u64 = plan
        .cells
        .iter()
        .map(|c| c.cfg.run.warmup_transactions + c.cfg.run.measured_transactions)
        .sum();
    let engine_s = per_execution(spans, engine_root, "engine.run", n);
    let ns_per_event: Vec<f64> = engine_s.iter().map(|s| s * 1e9 / events).collect();
    let run_spans: Vec<&Span> = spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| s.name == "engine.run" && spans[root_of(spans, i)].name == engine_root)
        .map(|(_, s)| s)
        .collect();
    let is_2pc = |cell: Option<u32>| cell.is_some_and(|c| plan.cells[c as usize].label == "2PC");
    let events_2pc: u64 = engine_out
        .reports
        .iter()
        .filter(|(l, _)| l == "2PC")
        .map(|(_, r)| r.events)
        .sum();
    let ns_2pc: f64 = run_spans
        .iter()
        .filter(|s| is_2pc(s.cell))
        .map(|s| s.ns() as f64)
        .sum();
    let cell_s: Vec<f64> = run_spans.iter().map(|s| s.secs()).collect();
    set(report, "engine.events", events);
    set(report, "engine.events_per_commit", events / commits as f64);
    set(report, "engine.ns_per_event", median(&ns_per_event));
    set(
        report,
        "engine.ns_per_event_2pc",
        ns_2pc / (n as f64 * events_2pc as f64),
    );
    set(report, "engine.cell_s.p50", median(&cell_s));
    set(report, "engine.cell_s.max", max(&cell_s));
    set(report, "engine.new_s", median(new_s));

    // Layer probes.
    set(report, "calendar.ns_per_op", probes.calendar_ns);
    set(report, "workload.ns_per_txn", probes.locks.ns_per_txn);
    set(report, "locks.ns_per_request", probes.locks.ns_per_request);
    set(report, "locks.ns_per_release", probes.locks.ns_per_release);
    set(report, "locks.blocked_frac", probes.locks.blocked_frac);
    set(report, "deadlock.ns_per_scan", probes.locks.ns_per_scan);
    set(report, "station.ns_per_job", probes.station_ns);

    // Sinks: observed run minus the plain run of the same cells, from
    // the executions themselves or, for the workloads that stream
    // nothing, from the sink probe's repetitions.
    let sink = |name: &str| {
        let (obs, plain) = if observed {
            (per_execution(spans, "iteration", name, n), engine_s.clone())
        } else {
            let (probe, k) = ("sink-probe", SINK_PROBE_REPS);
            let obs = per_execution(spans, probe, name, k);
            (obs, per_execution(spans, probe, "engine.run", k))
        };
        let diffs: Vec<f64> = obs.iter().zip(&plain).map(|(o, e)| o - e).collect();
        median(&diffs)
    };
    let out = &traced[0].out;
    let streamed = sink_probe.unwrap_or(out);
    set(report, "sinks.chrome_s", sink("sinks.chrome"));
    set(report, "sinks.series_s", sink("sinks.series"));
    set(report, "sinks.chrome_bytes", streamed.chrome_bytes as f64);
    set(report, "sinks.series_bytes", streamed.series_bytes as f64);

    // Renderers.
    for (metric, span) in [
        ("render.table_s", "render.table"),
        ("render.csv_s", "render.csv"),
        ("render.json_s", "render.json"),
    ] {
        set(
            report,
            metric,
            median(&per_execution(spans, "iteration", span, n)),
        );
    }
    set(report, "render.bytes", out.render_bytes as f64);

    // Model counts, exactly as the reports state them.
    let reports: Vec<_> = out.reports.iter().map(|(_, r)| r).collect();
    let committed: u64 = reports.iter().map(|r| r.committed).sum();
    let weighted = |f: fn(&distdb::metrics::SimReport) -> f64| {
        reports
            .iter()
            .map(|r| f(r) * r.committed as f64)
            .sum::<f64>()
            / committed as f64
    };
    set(
        report,
        "commit.messages_per_commit",
        weighted(|r| r.commit_messages_per_commit),
    );
    set(
        report,
        "commit.forced_writes_per_commit",
        weighted(|r| r.forced_writes_per_commit),
    );
    set(
        report,
        "locks.block_ratio",
        reports.iter().map(|r| r.block_ratio).sum::<f64>() / reports.len() as f64,
    );
    let sum = |f: fn(&distdb::metrics::SimReport) -> u64| {
        reports.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    set(report, "locks.deadlock_aborts", sum(|r| r.aborted_deadlock));
    set(
        report,
        "faults.retransmissions",
        sum(|r| r.faults.retransmissions),
    );
    set(
        report,
        "overhead.mismatches",
        sum(|r| r.overhead_check.mismatched_commits),
    );
}

/// Write the spans once, next to the benchmark's executable (inside
/// the build directory), and return the path.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("executable has no directory"))?
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans::write_json(spans, &mut out)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(&argv(
            "--workload wan-zipf-64 --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::WanZipf64);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let d = Args::parse(&argv("--workload paper-fig1")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--seed 1")).is_err());
        assert!(Args::parse(&argv("--workload paper-fig1 --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload paper-fig1 --seconds 0")).is_err());
    }

    #[test]
    fn digests_file_lookup() {
        let text = "# workload seed digest\npaper-fig1 42 00000000000000ff\nwan-zipf-64 43 10\n";
        assert_eq!(parse_digests(text, "paper-fig1", 42), Some(0xff));
        assert_eq!(parse_digests(text, "wan-zipf-64", 43), Some(0x10));
        assert_eq!(parse_digests(text, "paper-fig1", 43), None);
        for w in Workload::ALL {
            assert!(
                recorded_digest(w, DEFAULT_SEED).is_some(),
                "{} has no digest recorded at the default seed",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.set(&END_TO_END, "wall_s", 1.25);
        assert_eq!(
            r.json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
    }
}
