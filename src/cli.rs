//! Command-line interface: run single simulations, protocol sweeps, or
//! the paper's experiment presets from the shell.
//!
//! ```sh
//! distcommit run --protocol OPT --mpl 5 --seed 7
//! distcommit sweep --protocols 2PC,OPT,3PC --mpls 1,2,4,6,8,10
//! distcommit experiment fig1
//! distcommit tables
//! ```
//!
//! Argument parsing is hand-rolled (the repository's only dependencies
//! are the simulation crates); [`parse`] is pure and unit-tested.

use commitproto::ProtocolSpec;
use distdb::config::{
    parse_millis, FailureConfig, ResourceMode, RestartPolicy, SystemConfig, Topology, TransType,
};
use distdb::engine::{
    ChromeStreamSink, FoldSink, Observers, SeriesConfig, SeriesFormat, SeriesOut, Simulation,
    Trace, TraceSink,
};
use distdb::experiments::{self, Experiment, Scale, PRESETS};
use distdb::metrics::ReportFormat;
use distdb::output::{
    render_ascii_chart, render_csv, render_peaks, render_ranking, render_sweep_csv,
    render_sweep_json, render_sweep_series_csv, render_sweep_series_json, render_table,
    render_table_ci, Metric,
};
use simkernel::SimDuration;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::LazyLock;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One simulation run, full report.
    Run {
        cfg: SystemConfig,
        protocol: ProtocolSpec,
        seed: u64,
        format: ReportFormat,
        /// Stream every trace event to this file as Chrome trace-event
        /// JSON while the run executes (bounded memory; no in-memory
        /// event buffer).
        trace_out: Option<String>,
        /// Stream the windowed metric series to this file while the
        /// run executes (CSV, or JSON when the path ends in `.json`).
        series_out: Option<String>,
        /// Window width / per-site breakdown for `--series-out`.
        series_cfg: SeriesConfig,
    },
    /// One run's windowed metric time series (the report summary goes
    /// to the other stream so the series stays machine-readable).
    Series {
        cfg: SystemConfig,
        protocol: ProtocolSpec,
        seed: u64,
        series_cfg: SeriesConfig,
        format: SeriesFormat,
        /// Stream windows to this file as the run executes instead of
        /// printing the buffered series to stdout.
        out: Option<String>,
    },
    /// Per-transaction commit choreography: readable timelines plus an
    /// optional Chrome trace-event JSON export.
    Trace {
        cfg: SystemConfig,
        protocol: ProtocolSpec,
        seed: u64,
        txns: u64,
        out: Option<String>,
    },
    /// Fold traced transactions into weighted collapsed stacks
    /// (`root;phase;station;activity weight`) for flamegraph tools.
    Fold {
        cfg: SystemConfig,
        protocol: ProtocolSpec,
        seed: u64,
        txns: u64,
        out: Option<String>,
    },
    /// Protocols × MPLs sweep with tables and a chart, CSV, or JSON.
    Sweep {
        cfg: SystemConfig,
        protocols: Vec<ProtocolSpec>,
        mpls: Vec<u32>,
        seed: u64,
        reps: u32,
        jobs: Option<usize>,
        format: ReportFormat,
        /// Record every grid cell's windowed series to this file (CSV,
        /// or JSON when the path ends in `.json`).
        series_out: Option<String>,
        /// Window width / per-site breakdown for `--series-out`.
        series_cfg: SeriesConfig,
    },
    /// A preset from [`experiments::PRESETS`]: `fig1`, `fig2`,
    /// `expt3`, `fig3`, `fig4`, `fig5` (with the §5.7 `expt6x`
    /// extension), `seq`, `failures`, `faults`, `replication`,
    /// `linear` or `scale`. Prints the configuration and one table per
    /// metric the preset lists, or one CSV block per metric.
    Experiment {
        id: String,
        full: bool,
        reps: u32,
        jobs: Option<usize>,
        /// Emit per-metric CSV blocks instead of tables/charts.
        csv: bool,
    },
    /// Table 2, and Tables 3–4 with measured columns beside the
    /// analytic ones.
    Tables,
    /// Usage text.
    Help,
}

/// A CLI parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Usage text printed by `help` and on errors. Built lazily so the
/// `--faults` key table renders straight from
/// [`FailureConfig::CLI_KEYS`] — the parser and the help text share
/// one vocabulary by construction.
pub static USAGE: LazyLock<String> = LazyLock::new(|| {
    let fault_keys: String = FailureConfig::CLI_KEYS
        .iter()
        .map(|(key, desc)| format!("                             {key:<20} {desc}\n"))
        .collect();
    let topology_keys: String = Topology::CLI_KEYS
        .iter()
        .map(|(key, desc)| format!("                             {key:<20} {desc}\n"))
        .collect();
    // The protocol vocabulary renders straight from the spec table, so
    // adding a ProtocolSpec::ALL entry updates the help screen too.
    let protocol_names: String = ProtocolSpec::valid_names().collect::<Vec<_>>().join(" ");
    let preset_ids = preset_ids();
    format!(
        "\
distcommit — the SIGMOD'97 commit-processing simulator

USAGE:
  distcommit run    [OPTIONS]                one simulation run
  distcommit series [OPTIONS]                windowed metric time series
  distcommit trace  [OPTIONS]                per-txn commit choreography
  distcommit fold   [OPTIONS]                collapsed-stack flamegraph fold
  distcommit sweep  [OPTIONS]                protocols x MPLs sweep
  distcommit experiment <{preset_ids}>
                        [--full] [--reps N] [--jobs N] [--csv]
                        (prints the configuration and one table per
                        metric the paper plots; --csv prints one
                        plottable CSV block per metric instead;
                        --full runs 50 000 transactions per point)
  distcommit tables                          Tables 2-4, analytic and
                                             measured overheads
  distcommit help

RUN OUTPUT:
  --format <F>             report format: table (default), csv
                           (long-form section,key,value) or json
  --trace-out <FILE>       stream Chrome trace-event JSON to FILE while
                           the run executes — bounded memory, so it
                           works for arbitrarily long runs; loadable in
                           chrome://tracing or https://ui.perfetto.dev
  --series-out <FILE>      also stream the windowed metric series to
                           FILE (CSV, or JSON when FILE ends in .json);
                           accepts --window/--per-site; combines with
                           --trace-out: one run feeds both files, and
                           each is byte-identical to what the run
                           streams with the other flag absent; the two
                           must be different files (a link or `..`
                           path to the same file exits 2)

SERIES:
  --format <F>             series format: csv (default, one row per
                           window) or json (one document with a
                           `windows` array)
  --window <SECS>          window width in simulated seconds
                           (default 5)
  --per-site               add a per-site breakdown (per-site commits
                           and instantaneous queue depths) to every
                           window
  --out <FILE>             stream windows to FILE as the run executes
                           (bounded memory) and print the report
                           summary to stdout; without --out the series
                           goes to stdout and the summary to stderr

TRACE:
  --txns <N>               transactions to trace from the start of the
                           run (default 3)
  --out <FILE>             also write Chrome trace-event JSON, loadable
                           in chrome://tracing or Perfetto

FOLD:
  --txns <N>               transactions to fold (default: all)
  --out <FILE>             write the collapsed stacks to FILE instead
                           of stdout; lines are
                           `protocol;phase;station;activity weight`
                           (weights in simulated µs), ready for
                           flamegraph.pl / inferno / speedscope

SWEEP OUTPUT:
  --format <F>             table (default): aligned tables plus an
                           ASCII chart and peak summary; csv: the three
                           CSV blocks below; json: one document with
                           every point's full report object
  --csv                    shorthand for --format csv: throughput
                           (mean + 90% CI half-width per series), then
                           per-phase p50/p90/p99 latencies, then
                           per-site occupancy percentiles, separated by
                           blank lines; byte-identical for every --jobs
  --series-out <FILE>      record every grid cell's windowed series to
                           FILE — CSV rows gain series,mpl,rep identity
                           columns (JSON when FILE ends in .json);
                           accepts --window/--per-site

FAULT INJECTION (run, series, trace, fold & sweep):
  --faults <K=V,..>        enable the failure model; keys:
{fault_keys}                           e.g. --faults mc=0.01,cc=0.005,loss=0.01

PARALLELISM & REPLICATIONS:
  --jobs <N>               (sweep & experiment) worker threads for the
                           run grid (default: DISTCOMMIT_JOBS, else all
                           cores); results are byte-identical for
                           every N
  --reps <N>               (sweep & experiment) independent replications
                           per (protocol, MPL) cell, each with its own
                           derived seed; with N >= 2 every point
                           reports mean +-90% CI across replications
                           (default 1, at most 65535)

OPTIONS (run & sweep):
  --protocol <NAME>        protocol for run/series/trace/fold (default 2PC)
  --protocols <A,B,..>     protocols for `sweep` (default CENT,DPCC,2PC,3PC,OPT)
  --mpl <N>                multiprogramming level for `run` (default 4)
  --mpls <N,N,..>          MPL axis for `sweep` (default 1..10)
  --seed <N>               RNG seed (default 42)
  --sites <N>              number of sites (default 8)
  --db-size <PAGES>        database size (default 8000)
  --dist-degree <N>        cohorts per transaction (default 3)
  --cohort-size <N>        mean pages per cohort (default 6)
  --update-prob <P>        page update probability (default 1.0)
  --msg-cpu-ms <MS>        message send/receive CPU time (default 5)
  --page-cpu-ms <MS>       page processing CPU time (default 5)
  --page-disk-ms <MS>      disk page access time (default 20)
  --cpus <N>               CPUs per site (default 1)
  --data-disks <N>         data disks per site (default 2)
  --log-disks <N>          log disks per site (default 1)
  --abort-prob <P>         cohort surprise NO-vote probability (default 0)
  --replication <F>        replica-group tolerance F: every shard gets
                           2F+1 acceptors / standby coordinators
                           (PAXOS and REP2PC only; default 0)
  --hot-spot <D,A>         b-c access skew: A of accesses hit first D of pages
  --zipf <THETA>           Zipf(theta) page-access skew per site
                           (excludes --hot-spot; 0 = uniform)
  --topology <K=V,..>      LAN/WAN topology: sites split into regions,
                           messages spend wire latency in flight; keys:
{topology_keys}                           e.g. --topology regions=8,lan-ms=1,wan-ms=40
  --sequential             sequential cohort execution
  --infinite               infinite resources (pure data contention)
  --read-only-opt          enable the Read-Only commit optimization
  --group-commit <N>       batch up to N forced writes per log service
  --restart-fixed-ms <MS>  fixed restart delay instead of adaptive
  --warmup <N>             warm-up transactions (default 500)
  --measured <N>           measured transactions (default 5000)

Protocols: {protocol_names}
"
    )
});

/// The `experiment` ids, `|`-separated, from the preset table — the
/// usage text and the parser's errors share this one list.
fn preset_ids() -> String {
    PRESETS.iter().map(|p| p.id).collect::<Vec<_>>().join("|")
}

fn take_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a String, CliError> {
    it.next()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError(format!("{flag}: cannot parse {v:?}")))
}

fn parse_protocol(v: &str) -> Result<ProtocolSpec, CliError> {
    v.parse::<ProtocolSpec>()
        .map_err(|e| CliError(e.to_string()))
}

fn parse_list<T: std::str::FromStr>(flag: &str, v: &str) -> Result<Vec<T>, CliError> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_num(flag, s))
        .collect()
}

/// Parse `--window` (seconds) through the conversion every duration
/// input shares; a window that rounds to zero microseconds is
/// rejected too.
fn parse_window(v: &str) -> Result<SimDuration, CliError> {
    let secs: f64 = parse_num("--window", v)?;
    match SimDuration::try_from_millis_f64(secs * 1_000.0) {
        Some(w) if !w.is_zero() => Ok(w),
        _ => err(format!(
            "--window: {v:?} is not a positive number of seconds the microsecond clock can hold"
        )),
    }
}

/// Parse a `--faults` specification by delegating to
/// [`FailureConfig`]'s `FromStr` — the typed parser the library
/// exposes — and prefixing errors with the flag name.
fn parse_faults(v: &str) -> Result<FailureConfig, CliError> {
    v.parse()
        .map_err(|e: String| CliError(format!("--faults: {e}")))
}

/// Series format implied by an output path: `.json` means JSON,
/// anything else CSV.
fn series_format_for(path: &str) -> SeriesFormat {
    if path.ends_with(".json") {
        SeriesFormat::Json
    } else {
        SeriesFormat::Csv
    }
}

/// Create the file `path` names, if any; on failure, say why on stderr.
fn create_out<T>(
    path: Option<&str>,
    create: impl FnOnce(&Path) -> io::Result<T>,
) -> Result<Option<T>, ()> {
    path.map(|p| create(Path::new(p)).map_err(|e| eprintln!("error: cannot create {p}: {e}")))
        .transpose()
}

const ALIASED_OUTPUTS: &str = "--trace-out and --series-out must name different files";

/// Whether two created output files are one file: same device and
/// inode, which `b/../a.json`, a symlink or a hard link share with
/// `a.json` though their path text differs.
#[cfg(unix)]
fn same_file(a: &str, b: &str) -> bool {
    use std::os::unix::fs::MetadataExt;
    match (std::fs::metadata(a), std::fs::metadata(b)) {
        (Ok(a), Ok(b)) => (a.dev(), a.ino()) == (b.dev(), b.ino()),
        _ => false,
    }
}

/// Elsewhere only the path-text check in [`parse`] applies.
#[cfg(not(unix))]
fn same_file(_: &str, _: &str) -> bool {
    false
}

fn series_format_name(f: SeriesFormat) -> &'static str {
    match f {
        SeriesFormat::Csv => "csv",
        SeriesFormat::Json => "json",
    }
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "tables" => Ok(Command::Tables),
        "experiment" => {
            let mut id = None;
            let mut full = false;
            let mut reps = 1u32;
            let mut jobs = None;
            let mut csv = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--full" => full = true,
                    "--csv" => csv = true,
                    "--reps" => reps = parse_num(a, take_value(a, &mut it)?)?,
                    "--jobs" => jobs = Some(parse_num(a, take_value(a, &mut it)?)?),
                    other if id.is_none() && !other.starts_with('-') => {
                        id = Some(other.to_string())
                    }
                    other => return err(format!("unexpected argument {other:?}")),
                }
            }
            if reps == 0 {
                return err("--reps must be at least 1");
            }
            if reps > experiments::MAX_REPLICATIONS {
                return err("--reps must be at most 65535");
            }
            match id {
                Some(id) if experiments::preset(&id).is_some() => Ok(Command::Experiment {
                    id,
                    full,
                    reps,
                    jobs,
                    csv,
                }),
                Some(id) => err(format!("unknown experiment {id:?} ({})", preset_ids())),
                None => err(format!("experiment needs an id ({})", preset_ids())),
            }
        }
        "run" | "sweep" | "trace" | "fold" | "series" => {
            let mut cfg = SystemConfig::paper_baseline();
            cfg.run.warmup_transactions = 500;
            cfg.run.measured_transactions = 5_000;
            if sub == "trace" {
                // Tracing inspects individual transactions; a short run
                // keeps the timeline readable (flags still override).
                cfg.run.warmup_transactions = 50;
                cfg.run.measured_transactions = 200;
            }
            let mut txns: Option<u64> = None;
            let mut out: Option<String> = None;
            let mut format: Option<ReportFormat> = None;
            let mut trace_out: Option<String> = None;
            let mut series_out: Option<String> = None;
            let mut window: Option<SimDuration> = None;
            let mut per_site = false;
            let mut protocol = ProtocolSpec::TWO_PC;
            let mut protocols = vec![
                ProtocolSpec::CENT,
                ProtocolSpec::DPCC,
                ProtocolSpec::TWO_PC,
                ProtocolSpec::THREE_PC,
                ProtocolSpec::OPT_2PC,
            ];
            let mut mpls: Vec<u32> = (1..=10).collect();
            let mut seed = 42u64;
            let mut reps = 1u32;
            let mut jobs = None;
            let mut csv = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--protocol" => protocol = parse_protocol(take_value(a, &mut it)?)?,
                    "--csv" => csv = true,
                    "--faults" => cfg.failures = Some(parse_faults(take_value(a, &mut it)?)?),
                    "--txns" => txns = Some(parse_num(a, take_value(a, &mut it)?)?),
                    "--out" => out = Some(take_value(a, &mut it)?.clone()),
                    "--format" => {
                        format = Some(
                            take_value(a, &mut it)?
                                .parse()
                                .map_err(|e: String| CliError(format!("--format: {e}")))?,
                        )
                    }
                    "--trace-out" => trace_out = Some(take_value(a, &mut it)?.clone()),
                    "--series-out" => series_out = Some(take_value(a, &mut it)?.clone()),
                    "--window" => window = Some(parse_window(take_value(a, &mut it)?)?),
                    "--per-site" => per_site = true,
                    "--reps" => reps = parse_num(a, take_value(a, &mut it)?)?,
                    "--jobs" => jobs = Some(parse_num(a, take_value(a, &mut it)?)?),
                    "--protocols" => {
                        protocols = take_value(a, &mut it)?
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(parse_protocol)
                            .collect::<Result<_, _>>()?;
                    }
                    "--mpl" => cfg.mpl = parse_num(a, take_value(a, &mut it)?)?,
                    "--mpls" => mpls = parse_list(a, take_value(a, &mut it)?)?,
                    "--seed" => seed = parse_num(a, take_value(a, &mut it)?)?,
                    "--sites" => cfg.num_sites = parse_num(a, take_value(a, &mut it)?)?,
                    "--db-size" => cfg.db_size = parse_num(a, take_value(a, &mut it)?)?,
                    "--dist-degree" => cfg.dist_degree = parse_num(a, take_value(a, &mut it)?)?,
                    "--cohort-size" => cfg.cohort_size = parse_num(a, take_value(a, &mut it)?)?,
                    "--update-prob" => cfg.update_prob = parse_num(a, take_value(a, &mut it)?)?,
                    "--msg-cpu-ms" => {
                        cfg.msg_cpu = parse_millis(a, take_value(a, &mut it)?).map_err(CliError)?
                    }
                    "--page-cpu-ms" => {
                        cfg.page_cpu = parse_millis(a, take_value(a, &mut it)?).map_err(CliError)?
                    }
                    "--page-disk-ms" => {
                        cfg.page_disk =
                            parse_millis(a, take_value(a, &mut it)?).map_err(CliError)?
                    }
                    "--cpus" => cfg.num_cpus = parse_num(a, take_value(a, &mut it)?)?,
                    "--data-disks" => cfg.num_data_disks = parse_num(a, take_value(a, &mut it)?)?,
                    "--log-disks" => cfg.num_log_disks = parse_num(a, take_value(a, &mut it)?)?,
                    "--abort-prob" => {
                        cfg.cohort_abort_prob = parse_num(a, take_value(a, &mut it)?)?
                    }
                    "--replication" => cfg.replication = parse_num(a, take_value(a, &mut it)?)?,
                    "--hot-spot" => {
                        let parts: Vec<f64> = parse_list(a, take_value(a, &mut it)?)?;
                        if parts.len() != 2 {
                            return err("--hot-spot wants DATA_FRACTION,ACCESS_FRACTION");
                        }
                        cfg.hot_spot = Some(distdb::config::HotSpot {
                            data_fraction: parts[0],
                            access_fraction: parts[1],
                        });
                    }
                    "--zipf" => {
                        cfg.zipf = Some(distdb::config::Zipf {
                            theta: parse_num(a, take_value(a, &mut it)?)?,
                        })
                    }
                    "--topology" => {
                        cfg.topology = Some(
                            take_value(a, &mut it)?
                                .parse()
                                .map_err(|e: String| CliError(format!("--topology: {e}")))?,
                        )
                    }
                    "--sequential" => cfg.trans_type = TransType::Sequential,
                    "--infinite" => cfg.resources = ResourceMode::Infinite,
                    "--read-only-opt" => cfg.read_only_optimization = true,
                    "--group-commit" => {
                        cfg.group_commit_batch = Some(parse_num(a, take_value(a, &mut it)?)?)
                    }
                    "--restart-fixed-ms" => {
                        cfg.restart_policy = RestartPolicy::Fixed(
                            parse_millis(a, take_value(a, &mut it)?).map_err(CliError)?,
                        )
                    }
                    "--warmup" => {
                        cfg.run.warmup_transactions = parse_num(a, take_value(a, &mut it)?)?
                    }
                    "--measured" => {
                        cfg.run.measured_transactions = parse_num(a, take_value(a, &mut it)?)?
                    }
                    other => return err(format!("unknown option {other:?}")),
                }
            }
            // Every (configuration, protocol) pair is checked here, so a
            // bad one exits 2 before any run starts.
            let validate = |cfg: &SystemConfig, spec| {
                cfg.validate_for(spec).map_err(|e| CliError(e.to_string()))
            };
            if sub == "sweep" {
                if protocols.is_empty() || mpls.is_empty() {
                    return err("sweep needs at least one protocol and one MPL");
                }
                for &spec in &protocols {
                    for &m in &mpls {
                        validate(&cfg.clone().with_mpl(m), spec)?;
                    }
                }
            } else {
                validate(&cfg, protocol)?;
            }
            if !matches!(sub.as_str(), "trace" | "fold") && txns.is_some() {
                return err("--txns applies to trace and fold only");
            }
            if !matches!(sub.as_str(), "trace" | "fold" | "series") && out.is_some() {
                return err("--out applies to trace, fold and series only");
            }
            if !matches!(sub.as_str(), "run" | "sweep" | "series") && format.is_some() {
                return err("--format applies to run, sweep and series only");
            }
            if sub != "run" && trace_out.is_some() {
                return err("--trace-out applies to run only");
            }
            if !matches!(sub.as_str(), "run" | "sweep") && series_out.is_some() {
                return err("--series-out applies to run and sweep only");
            }
            if sub != "series" && series_out.is_none() && (window.is_some() || per_site) {
                return err("--window/--per-site need `series` or --series-out");
            }
            if sub != "sweep" && csv {
                return err("--csv applies to sweep only");
            }
            let series_cfg = SeriesConfig {
                window: window.unwrap_or(SeriesConfig::DEFAULT_WINDOW),
                per_site,
            };
            if sub != "sweep" {
                if reps != 1 || jobs.is_some() {
                    return err("--reps/--jobs apply to sweep and experiment only");
                }
                if txns == Some(0) {
                    return err("--txns must be at least 1");
                }
                if sub == "trace" {
                    return Ok(Command::Trace {
                        cfg,
                        protocol,
                        seed,
                        txns: txns.unwrap_or(3),
                        out,
                    });
                }
                if sub == "fold" {
                    return Ok(Command::Fold {
                        cfg,
                        protocol,
                        seed,
                        txns: txns.unwrap_or(u64::MAX),
                        out,
                    });
                }
                if sub == "series" {
                    let format = match format.unwrap_or(ReportFormat::Csv) {
                        ReportFormat::Csv => SeriesFormat::Csv,
                        ReportFormat::Json => SeriesFormat::Json,
                        ReportFormat::Table => {
                            return err(
                                "series --format: csv|json (a table has no series rendering)",
                            )
                        }
                    };
                    return Ok(Command::Series {
                        cfg,
                        protocol,
                        seed,
                        series_cfg,
                        format,
                        out,
                    });
                }
                // Two writers on one file would interleave into garbage.
                // The path text catches `a.json` vs `./a.json` here;
                // `execute` catches the aliases only the files show.
                let absolute =
                    |p: &Option<String>| p.as_deref().map(|p| std::path::absolute(p).ok());
                if trace_out.is_some() && absolute(&trace_out) == absolute(&series_out) {
                    return err(ALIASED_OUTPUTS);
                }
                Ok(Command::Run {
                    cfg,
                    protocol,
                    seed,
                    format: format.unwrap_or(ReportFormat::Table),
                    trace_out,
                    series_out,
                    series_cfg,
                })
            } else {
                if reps == 0 {
                    return err("--reps must be at least 1");
                }
                if reps > experiments::MAX_REPLICATIONS {
                    return err("--reps must be at most 65535");
                }
                if csv && format.is_some() {
                    return err("--csv is shorthand for --format csv; pass one of them");
                }
                let format = format.unwrap_or(if csv {
                    ReportFormat::Csv
                } else {
                    ReportFormat::Table
                });
                Ok(Command::Sweep {
                    cfg,
                    protocols,
                    mpls,
                    seed,
                    reps,
                    jobs,
                    format,
                    series_out,
                    series_cfg,
                })
            }
        }
        other => err(format!("unknown command {other:?}; try `distcommit help`")),
    }
}

/// Execute a parsed command, writing to stdout. Returns the process
/// exit code.
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{}", *USAGE);
            0
        }
        Command::Tables => {
            println!("Table 2 — Baseline Parameter Settings (reconstructed):");
            println!("{}", SystemConfig::paper_baseline());
            for d in [3u32, 6] {
                println!(
                    "Table {} — Protocol Overheads (DistDegree = {d}), committing transactions; \
                     (meas) = per commit in a conflict-free run",
                    if d == 3 { 3 } else { 4 }
                );
                println!(
                    "{:<9} {:>9} {:>9} | {:>12} {:>9} | {:>10} {:>9}",
                    "Protocol",
                    "ExecMsgs",
                    "(meas)",
                    "ForcedWrites",
                    "(meas)",
                    "CommitMsgs",
                    "(meas)"
                );
                for spec in [
                    ProtocolSpec::TWO_PC,
                    ProtocolSpec::PA,
                    ProtocolSpec::PC,
                    ProtocolSpec::THREE_PC,
                    ProtocolSpec::DPCC,
                    ProtocolSpec::CENT,
                ] {
                    let o = spec.committed_overheads(d);
                    let m = match experiments::measured_overheads(d, spec, TABLES_SEED) {
                        Ok(m) if m.total_aborts() == 0 => m,
                        Ok(_) => {
                            eprintln!(
                                "error: the {} run at DistDegree {d} aborted transactions; \
                                 the overhead measurement must be conflict-free",
                                spec.name()
                            );
                            return 1;
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            return 1;
                        }
                    };
                    println!(
                        "{:<9} {:>9} {:>9.2} | {:>12} {:>9.2} | {:>10} {:>9.2}",
                        spec.name(),
                        o.exec_messages,
                        m.exec_messages_per_commit,
                        o.forced_writes,
                        m.forced_writes_per_commit,
                        o.commit_messages,
                        m.commit_messages_per_commit,
                    );
                }
                println!();
            }
            0
        }
        Command::Run {
            cfg,
            protocol,
            seed,
            format,
            trace_out,
            series_out,
            series_cfg,
        } => {
            // Both streamers write to disk as the run progresses, so
            // observing a full run needs no in-memory buffer.
            let Ok(mut sink) = create_out(trace_out.as_deref(), ChromeStreamSink::create) else {
                return 1;
            };
            let Ok(mut file) = create_out(series_out.as_deref(), |p| std::fs::File::create(p))
            else {
                return 1;
            };
            if let (Some(t), Some(s)) = (&trace_out, &series_out) {
                if same_file(t, s) {
                    eprintln!("error: {ALIASED_OUTPUTS}");
                    return 2;
                }
            }
            let obs = Observers {
                trace: sink.as_mut().map(|s| (u64::MAX, s as &mut dyn TraceSink)),
                series: file
                    .as_mut()
                    .zip(series_out.as_deref())
                    .map(|(f, path)| (series_cfg, SeriesOut::Stream(f, series_format_for(path)))),
            };
            match Simulation::run_observed(&cfg, protocol, seed, obs) {
                Ok(r) => {
                    if format == ReportFormat::Table {
                        println!("{cfg}");
                    }
                    print!("{}", r.render(format));
                    if let Some((sink, path)) = sink.zip(trace_out) {
                        match sink.into_result() {
                            // stderr keeps csv/json output machine-readable.
                            Ok(events) => eprintln!(
                                "chrome trace ({events} events) streamed to {path} — open in \
                                 chrome://tracing or https://ui.perfetto.dev"
                            ),
                            Err(e) => {
                                eprintln!("error: cannot write {path}: {e}");
                                return 1;
                            }
                        }
                    }
                    if let Some(path) = &series_out {
                        eprintln!("windowed series streamed to {path}");
                    }
                    i32::from(!r.overhead_check.is_clean() || r.truncated)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Series {
            cfg,
            protocol,
            seed,
            series_cfg,
            format,
            out,
        } => {
            // Without --out, stdout carries only the series, so
            // redirecting it to a file gives exactly the --out bytes; the
            // summary rides on stderr.
            let Ok(file) = create_out(out.as_deref(), |p| std::fs::File::create(p)) else {
                return 1;
            };
            let mut writer: Box<dyn io::Write + Send> = match file {
                Some(file) => Box::new(file),
                None => Box::new(io::BufWriter::new(io::stdout())),
            };
            let obs = Observers {
                trace: None,
                series: Some((series_cfg, SeriesOut::Stream(&mut *writer, format))),
            };
            match Simulation::run_observed(&cfg, protocol, seed, obs) {
                Ok(report) => {
                    match &out {
                        Some(path) => {
                            println!(
                                "windowed series ({}) streamed to {path}",
                                series_format_name(format)
                            );
                            println!("{}", report.summary());
                        }
                        None => eprintln!("{}", report.summary()),
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Fold {
            cfg,
            protocol,
            seed,
            txns,
            out,
        } => {
            let mut fold = FoldSink::new(protocol.name());
            let obs = Observers {
                trace: Some((txns, &mut fold)),
                series: None,
            };
            match Simulation::run_observed(&cfg, protocol, seed, obs) {
                Ok(report) => {
                    let rendered = fold.render();
                    match out {
                        Some(path) => {
                            if let Err(e) = std::fs::write(&path, &rendered) {
                                eprintln!("error: cannot write {path}: {e}");
                                return 1;
                            }
                            println!(
                                "{} collapsed stacks written to {path} — render with \
                                 flamegraph.pl, inferno-flamegraph or speedscope",
                                fold.stacks().len()
                            );
                            println!("{}", report.summary());
                        }
                        None => {
                            // stdout carries only the collapsed stacks, so
                            // `distcommit fold | flamegraph.pl` works.
                            print!("{rendered}");
                            eprintln!("{}", report.summary());
                        }
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Trace {
            cfg,
            protocol,
            seed,
            txns,
            out,
        } => {
            let mut trace = Trace::default();
            let obs = Observers {
                trace: Some((txns, &mut trace)),
                series: None,
            };
            match Simulation::run_observed(&cfg, protocol, seed, obs) {
                Ok(report) => {
                    println!(
                        "{} — first {txns} transaction(s), seed {seed}",
                        protocol.name()
                    );
                    println!();
                    for txn in trace.txns() {
                        print!("{}", trace.render_txn(txn));
                        println!();
                    }
                    println!("{}", report.summary());
                    if let Some(path) = out {
                        let json = distdb::engine::chrome_trace_json(&trace);
                        match std::fs::write(&path, &json) {
                            Ok(()) => println!(
                                "chrome trace ({} events) written to {path} — open in \
                                 chrome://tracing or https://ui.perfetto.dev",
                                trace.events.len()
                            ),
                            Err(e) => {
                                eprintln!("error: cannot write {path}: {e}");
                                return 1;
                            }
                        }
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Sweep {
            cfg,
            protocols,
            mpls,
            seed,
            reps,
            jobs,
            format,
            series_out,
            series_cfg,
        } => {
            let scale = Scale::quick()
                .with_runs(cfg.run.warmup_transactions, cfg.run.measured_transactions)
                .with_mpls(mpls)
                .with_seed(seed)
                .with_replications(reps)
                .with_jobs(jobs);
            let specs: Vec<(String, ProtocolSpec, SystemConfig)> = protocols
                .iter()
                .map(|&p| (p.name().to_string(), p, cfg.clone()))
                .collect();
            // With --series-out every grid cell also records windows;
            // recording does not perturb the runs, so the reports are
            // identical either way.
            let result = match &series_out {
                Some(path) => match experiments::sweep_with_series(&specs, &scale, &series_cfg) {
                    Ok((series, cells)) => {
                        let rendered = match series_format_for(path) {
                            SeriesFormat::Json => render_sweep_series_json(&cells),
                            SeriesFormat::Csv => render_sweep_series_csv(&cells),
                        };
                        if let Err(e) = std::fs::write(path, &rendered) {
                            eprintln!("error: cannot write {path}: {e}");
                            return 1;
                        }
                        eprintln!(
                            "windowed series for {} sweep cell(s) written to {path}",
                            cells.len()
                        );
                        Ok(series)
                    }
                    Err(e) => Err(e),
                },
                None => experiments::sweep(&specs, &scale),
            };
            match result {
                Ok(series) => {
                    let exp = Experiment {
                        id: "cli-sweep".into(),
                        title: "CLI sweep".into(),
                        config: cfg,
                        series,
                    };
                    match format {
                        ReportFormat::Csv => {
                            print!("{}", render_sweep_csv(&exp));
                            return 0;
                        }
                        ReportFormat::Json => {
                            print!("{}", render_sweep_json(&exp));
                            return 0;
                        }
                        ReportFormat::Table => {}
                    }
                    if reps >= 2 {
                        print!("{}", render_table_ci(&exp));
                    } else {
                        print!("{}", render_table(&exp, Metric::Throughput));
                    }
                    println!();
                    print!("{}", render_table(&exp, Metric::BlockRatio));
                    println!();
                    print!("{}", render_ascii_chart(&exp, Metric::Throughput, 64, 18));
                    print!("{}", render_peaks(&exp));
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Experiment {
            id,
            full,
            reps,
            jobs,
            csv,
        } => {
            let preset = experiments::preset(&id).expect("`parse` admits only preset ids");
            let scale = if full { Scale::full() } else { Scale::quick() }
                .with_replications(reps)
                .with_jobs(jobs);
            match (preset.build)(&scale) {
                Ok(exps) => {
                    for exp in &exps {
                        if csv {
                            print_csv_blocks(exp, preset.metrics);
                        } else {
                            print_tables(exp, preset.metrics, reps);
                        }
                        println!();
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
    }
}

/// Seed of the conflict-free runs behind `tables`' measured columns.
const TABLES_SEED: u64 = 0xBE7C;

/// One experiment as `experiment` prints it: the configuration, one
/// table per metric (throughput as mean ±90% CI with `--reps` ≥ 2),
/// then the chart and peaks of the first metric over MPL — or, for a
/// fixed-MPL preset that varies the protocol mix instead, the ranking.
fn print_tables(exp: &Experiment, metrics: &[Metric], reps: u32) {
    println!("configuration:\n{}", exp.config);
    for &m in metrics {
        if m == Metric::Throughput && reps >= 2 {
            print!("{}", render_table_ci(exp));
        } else {
            print!("{}", render_table(exp, m));
        }
        println!();
    }
    if exp.mpls().len() > 1 {
        print!("{}", render_ascii_chart(exp, metrics[0], 64, 18));
        print!("{}", render_peaks(exp));
    } else {
        print!("{}", render_ranking(exp));
    }
}

/// One CSV block per metric, separated by blank lines.
fn print_csv_blocks(exp: &Experiment, metrics: &[Metric]) {
    for (i, &m) in metrics.iter().enumerate() {
        if i > 0 {
            println!();
        }
        print!("{}", render_csv(exp, m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn tables_command() {
        assert_eq!(parse(&argv("tables")).unwrap(), Command::Tables);
    }

    #[test]
    fn run_with_defaults() {
        let Command::Run {
            cfg,
            protocol,
            seed,
            format,
            trace_out,
            series_out,
            series_cfg,
        } = parse(&argv("run")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(protocol, ProtocolSpec::TWO_PC);
        assert_eq!(seed, 42);
        assert_eq!(cfg.mpl, 4);
        assert_eq!(format, ReportFormat::Table);
        assert_eq!(trace_out, None);
        assert_eq!(series_out, None);
        assert_eq!(series_cfg, SeriesConfig::default());
    }

    #[test]
    fn run_with_everything() {
        let cmd = parse(&argv(
            "run --protocol OPT-3PC --mpl 7 --seed 9 --sites 4 --db-size 4000 \
             --dist-degree 4 --cohort-size 3 --update-prob 0.5 --msg-cpu-ms 1 \
             --page-cpu-ms 6 --page-disk-ms 18 --cpus 2 --data-disks 3 --log-disks 2 \
             --abort-prob 0.05 --sequential --infinite --read-only-opt \
             --group-commit 8 --restart-fixed-ms 250 --warmup 10 --measured 100",
        ))
        .unwrap();
        let Command::Run {
            cfg,
            protocol,
            seed,
            ..
        } = cmd
        else {
            panic!("expected Run")
        };
        assert_eq!(protocol, ProtocolSpec::OPT_3PC);
        assert_eq!(seed, 9);
        assert_eq!(cfg.num_sites, 4);
        assert_eq!(cfg.db_size, 4000);
        assert_eq!(cfg.mpl, 7);
        assert_eq!(cfg.dist_degree, 4);
        assert_eq!(cfg.cohort_size, 3);
        assert_eq!(cfg.update_prob, 0.5);
        assert_eq!(cfg.msg_cpu, SimDuration::from_millis(1));
        assert_eq!(cfg.page_cpu, SimDuration::from_millis(6));
        assert_eq!(cfg.page_disk, SimDuration::from_millis(18));
        assert_eq!(cfg.num_cpus, 2);
        assert_eq!(cfg.num_data_disks, 3);
        assert_eq!(cfg.num_log_disks, 2);
        assert_eq!(cfg.cohort_abort_prob, 0.05);
        assert_eq!(cfg.trans_type, TransType::Sequential);
        assert_eq!(cfg.resources, ResourceMode::Infinite);
        assert!(cfg.read_only_optimization);
        assert_eq!(cfg.group_commit_batch, Some(8));
        assert_eq!(
            cfg.restart_policy,
            RestartPolicy::Fixed(SimDuration::from_millis(250))
        );
        assert_eq!(cfg.run.warmup_transactions, 10);
        assert_eq!(cfg.run.measured_transactions, 100);
    }

    #[test]
    fn hot_spot_flag() {
        let Command::Run { cfg, .. } = parse(&argv("run --hot-spot 0.2,0.8")).unwrap() else {
            panic!("expected Run");
        };
        let h = cfg.hot_spot.unwrap();
        assert_eq!(h.data_fraction, 0.2);
        assert_eq!(h.access_fraction, 0.8);
        assert!(parse(&argv("run --hot-spot 0.2")).is_err());
        assert!(parse(&argv("run --hot-spot 0.2,1.5")).is_err()); // validation
    }

    #[test]
    fn zipf_flag() {
        let Command::Run { cfg, .. } = parse(&argv("run --zipf 0.9")).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(cfg.zipf, Some(distdb::config::Zipf { theta: 0.9 }));
        // Validation runs at parse time: Zipf and HotSpot are exclusive.
        assert!(parse(&argv("run --zipf 0.9 --hot-spot 0.2,0.8")).is_err());
        assert!(parse(&argv("run --zipf -1")).is_err());
        assert!(parse(&argv("run --zipf")).is_err());
    }

    #[test]
    fn topology_flag_parses_key_value_pairs() {
        let Command::Sweep { cfg, .. } = parse(&argv(
            "sweep --protocols 2PC --mpls 2 --sites 64 \
             --topology regions=8,lan-ms=1,wan-ms=40,jitter=0.1,hot=0.2",
        ))
        .unwrap() else {
            panic!("expected Sweep");
        };
        let t = cfg.topology.unwrap();
        assert_eq!(t.regions, 8);
        assert_eq!(t.lan_latency, SimDuration::from_millis(1));
        assert_eq!(t.wan_latency, SimDuration::from_millis(40));
        assert_eq!(t.jitter, 0.1);
        assert_eq!(t.hot_site_prob, 0.2);
        // Unspecified keys keep the degenerate defaults.
        let Command::Run { cfg, .. } = parse(&argv("run --topology regions=4")).unwrap() else {
            panic!("expected Run");
        };
        let t = cfg.topology.unwrap();
        assert_eq!(t.regions, 4);
        assert!(t.lan_latency.is_zero());
        // Bad keys, shapes, and validation failures are rejected.
        assert!(parse(&argv("run --topology bogus=1")).is_err());
        assert!(parse(&argv("run --topology regions")).is_err());
        assert!(parse(&argv("run --topology regions=0")).is_err()); // validation
        assert!(parse(&argv("run --sites 4 --topology regions=9")).is_err()); // validation
        assert!(parse(&argv("run --topology")).is_err());
    }

    #[test]
    fn usage_lists_every_topology_key_from_the_config_table() {
        for (key, desc) in Topology::CLI_KEYS {
            assert!(USAGE.contains(key), "usage missing topology key {key}");
            assert!(USAGE.contains(desc), "usage missing topology desc {desc}");
        }
        assert!(USAGE.contains("--zipf"));
        assert!(USAGE.contains("scale"));
    }

    #[test]
    fn sweep_parses_lists() {
        let cmd = parse(&argv("sweep --protocols 2PC,OPT --mpls 1,4,8 --seed 3")).unwrap();
        let Command::Sweep {
            protocols,
            mpls,
            seed,
            reps,
            jobs,
            ..
        } = cmd
        else {
            panic!("expected Sweep")
        };
        assert_eq!(protocols, vec![ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC]);
        assert_eq!(mpls, vec![1, 4, 8]);
        assert_eq!(seed, 3);
        assert_eq!(reps, 1);
        assert_eq!(jobs, None);
    }

    #[test]
    fn sweep_parses_reps_and_jobs() {
        let cmd = parse(&argv("sweep --protocols 2PC --mpls 2 --reps 5 --jobs 4")).unwrap();
        let Command::Sweep { reps, jobs, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert_eq!(reps, 5);
        assert_eq!(jobs, Some(4));
        // reps must be positive; run takes neither flag
        assert!(parse(&argv("sweep --protocols 2PC --mpls 2 --reps 0")).is_err());
        assert!(parse(&argv("run --reps 3")).is_err());
        assert!(parse(&argv("run --jobs 2")).is_err());
    }

    #[test]
    fn experiment_parses_id_and_full() {
        assert_eq!(
            parse(&argv("experiment fig4 --full")).unwrap(),
            Command::Experiment {
                id: "fig4".into(),
                full: true,
                reps: 1,
                jobs: None,
                csv: false,
            }
        );
        assert_eq!(
            parse(&argv("experiment seq")).unwrap(),
            Command::Experiment {
                id: "seq".into(),
                full: false,
                reps: 1,
                jobs: None,
                csv: false,
            }
        );
        assert!(parse(&argv("experiment")).is_err());
    }

    /// The preset table is the only id list: every id parses, and the
    /// usage text names each one.
    #[test]
    fn every_preset_id_parses_and_is_in_usage() {
        for p in PRESETS {
            let cmd = parse(&argv(&format!("experiment {}", p.id))).unwrap();
            assert!(
                matches!(&cmd, Command::Experiment { id, .. } if id == p.id),
                "{cmd:?}"
            );
            assert!(USAGE.contains(p.id), "usage missing experiment {}", p.id);
        }
        assert!(USAGE.contains(&preset_ids()));
    }

    #[test]
    fn experiment_parses_csv() {
        assert_eq!(
            parse(&argv("experiment faults --csv")).unwrap(),
            Command::Experiment {
                id: "faults".into(),
                full: false,
                reps: 1,
                jobs: None,
                csv: true,
            }
        );
    }

    #[test]
    fn experiment_parses_reps_and_jobs() {
        assert_eq!(
            parse(&argv("experiment fig1 --reps 4 --jobs 8")).unwrap(),
            Command::Experiment {
                id: "fig1".into(),
                full: false,
                reps: 4,
                jobs: Some(8),
                csv: false,
            }
        );
        assert!(parse(&argv("experiment fig1 --reps 0")).is_err());
        assert!(parse(&argv("experiment fig1 --jobs")).is_err());
    }

    #[test]
    fn faults_flag_parses_key_value_pairs() {
        let Command::Run { cfg, .. } = parse(&argv(
            "run --faults mc=0.01,cc=0.005,loss=0.02,detect-ms=200,recover-ms=4000,\
             cohort-recover-ms=800,retry-ms=50,retries=2",
        ))
        .unwrap() else {
            panic!("expected Run");
        };
        let f = cfg.failures.unwrap();
        assert_eq!(f.master_crash_prob, 0.01);
        assert_eq!(f.cohort_crash_prob, 0.005);
        assert_eq!(f.msg_loss_prob, 0.02);
        assert_eq!(f.detection_timeout, SimDuration::from_millis(200));
        assert_eq!(f.recovery_time, SimDuration::from_millis(4000));
        assert_eq!(f.cohort_recovery_time, SimDuration::from_millis(800));
        assert_eq!(f.msg_timeout, SimDuration::from_millis(50));
        assert_eq!(f.max_retransmits, 2);
        // Unspecified keys keep the suite's defaults.
        let Command::Trace { cfg, .. } = parse(&argv("trace --faults mc=0.05")).unwrap() else {
            panic!("expected Trace");
        };
        let f = cfg.failures.unwrap();
        assert_eq!(f.master_crash_prob, 0.05);
        assert_eq!(f.cohort_crash_prob, 0.0);
        assert_eq!(f.max_retransmits, 3);
        // Bad keys, bad shapes and invalid probabilities are rejected.
        assert!(parse(&argv("run --faults bogus=1")).is_err());
        assert!(parse(&argv("run --faults mc")).is_err());
        assert!(parse(&argv("run --faults mc=1.5")).is_err()); // validation
        assert!(parse(&argv("run --faults")).is_err());
    }

    #[test]
    fn csv_flag_is_sweep_only_and_aliases_format_csv() {
        let Command::Sweep { format, .. } =
            parse(&argv("sweep --protocols 2PC --mpls 1,2 --csv")).unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(format, ReportFormat::Csv);
        let Command::Sweep { format, .. } = parse(&argv("sweep --protocols 2PC --mpls 1")).unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(format, ReportFormat::Table);
        assert!(parse(&argv("run --csv")).is_err());
        assert!(parse(&argv("trace --csv")).is_err());
        // The alias and the explicit flag cannot disagree.
        assert!(parse(&argv("sweep --csv --format json")).is_err());
    }

    #[test]
    fn sweep_parses_format_json() {
        let Command::Sweep { format, .. } =
            parse(&argv("sweep --protocols 2PC --mpls 1,2 --format json")).unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(format, ReportFormat::Json);
        let e = parse(&argv("sweep --format xml")).unwrap_err();
        assert!(e.0.contains("--format"), "{e}");
    }

    #[test]
    fn bad_input_errors() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --protocol 4PC")).is_err());
        assert!(parse(&argv("run --mpl")).is_err());
        assert!(parse(&argv("run --mpl notanumber")).is_err());
        assert!(parse(&argv("run --unknown-flag 3")).is_err());
        // validation runs at parse time: dist_degree > sites
        assert!(parse(&argv("run --sites 2 --dist-degree 3")).is_err());
        assert!(parse(&argv("sweep --protocols , --mpls 1")).is_err());
        // A cell's seed keeps 16 bits of the replication index, so a
        // cell takes at most 65 535 replications.
        let e = parse(&argv("sweep --protocols 2PC --mpls 1 --reps 65536")).unwrap_err();
        assert!(e.0.contains("--reps must be at most 65535"), "{e}");
        let e = parse(&argv("experiment fig1 --reps 70000")).unwrap_err();
        assert!(e.0.contains("--reps must be at most 65535"), "{e}");
        // Unknown experiment ids fail at parse time and name the valid
        // ones.
        let e = parse(&argv("experiment nope")).unwrap_err();
        assert!(e.0.contains("unknown experiment \"nope\""), "{e}");
        assert!(e.0.contains("fig1|fig2"), "{e}");
        // The removed intra-run sharding flag and benchmark command fail
        // loudly rather than being ignored.
        assert_eq!(
            parse(&argv("run --shards 4")).unwrap_err(),
            CliError("unknown option \"--shards\"".into())
        );
        let e = parse(&argv("bench --quick")).unwrap_err();
        assert!(e.0.starts_with("unknown command \"bench\""), "{e}");
        // A warm-up plus measured count that overflows u64 is rejected
        // by validation, not wrapped into a 4-commit run.
        let e = parse(&argv("run --warmup 18446744073709551615 --measured 5")).unwrap_err();
        assert!(e.0.contains("overflow"), "{e}");
        // Every --mpls entry is validated at parse time, not by the
        // first cell that runs it.
        for mpls in ["0", "4,0"] {
            let e = parse(&argv(&format!("sweep --protocols 2PC --mpls {mpls}"))).unwrap_err();
            assert!(e.0.contains("mpl must be positive"), "{mpls}: {e}");
        }
        // A cohort size whose 1.5x bound overflows u32 is rejected, not
        // wrapped to a bound every site passes.
        for size in ["2863311531", "4294967295"] {
            let e = parse(&argv(&format!("run --cohort-size {size}"))).unwrap_err();
            assert!(e.0.contains("1.5 * cohort_size"), "{size}: {e}");
        }
        // A skew whose distinct-page draws would stall is rejected.
        let e = parse(&argv("run --zipf 8")).unwrap_err();
        assert!(e.0.contains("zipf theta too large"), "{e}");
        // (configuration, protocol) pairs the engine cannot run fail at
        // parse time, for a sweep on any of its protocols.
        for (cmd, why) in [
            ("run --replication 1", "requires a replicated protocol"),
            ("run --protocol L2PC --read-only-opt", "linear-2PC chain"),
            ("trace --protocol L2PC --read-only-opt", "linear-2PC chain"),
            ("series --protocol L2PC --faults mc=0.01", "chained 2PC"),
            ("fold --protocol PAXOS --replication 2 --sites 4", "2F+1"),
            ("run --protocol REP2PC --read-only-opt", "not modeled"),
            ("sweep --protocols 2PC,L2PC --read-only-opt", "2PC chain"),
        ] {
            let e = parse(&argv(cmd)).expect_err(cmd);
            assert!(e.0.contains(why), "{cmd}: {e}");
        }
    }

    /// `run` exits 1 when the simulated-time cap cuts the run short
    /// (nothing commits when every cohort votes NO), 0 otherwise.
    #[test]
    fn run_exits_nonzero_when_truncated() {
        let run = |args: &str, cap_s: Option<u64>| {
            let Command::Run {
                mut cfg,
                protocol,
                seed,
                series_cfg,
                ..
            } = parse(&argv(args)).unwrap()
            else {
                panic!("expected Run");
            };
            if let Some(s) = cap_s {
                cfg.run.max_sim_time = Some(simkernel::SimTime::from_secs(s));
            }
            execute(Command::Run {
                cfg,
                protocol,
                seed,
                format: ReportFormat::Json,
                trace_out: None,
                series_out: None,
                series_cfg,
            })
        };
        let never_commits = "run --mpl 1 --db-size 80000 --abort-prob 1 --warmup 0 --measured 10";
        assert_eq!(run(never_commits, Some(30)), 1);
        assert_eq!(run("run --warmup 10 --measured 80", None), 0);
        // Delays so long that the clock saturates: each run stalls on
        // an event parked at the end of the clock and ends at the cap.
        for longest in [
            "run --faults mc=0.5,recover-ms=18446744073709549 --measured 20",
            "run --topology regions=2,wan-ms=18446744073709549 --measured 20",
            "run --faults loss=0.5,retry-ms=18446744073709549 --measured 20",
        ] {
            assert_eq!(run(longest, None), 1, "{longest}");
        }
    }

    /// Every duration input rejects what cannot be a duration with an
    /// error naming the input, never a panic.
    #[test]
    fn duration_inputs_reject_non_durations() {
        let inputs: [(&str, &str); 11] = [
            ("run --msg-cpu-ms {}", "--msg-cpu-ms"),
            ("run --page-cpu-ms {}", "--page-cpu-ms"),
            ("run --page-disk-ms {}", "--page-disk-ms"),
            ("run --restart-fixed-ms {}", "--restart-fixed-ms"),
            ("series --window {}", "--window"),
            ("run --topology regions=2,lan-ms={}", "lan-ms"),
            ("run --topology regions=2,wan-ms={}", "wan-ms"),
            ("run --faults detect-ms={}", "detect-ms"),
            ("run --faults recover-ms={}", "recover-ms"),
            ("run --faults cohort-recover-ms={}", "cohort-recover-ms"),
            ("run --faults retry-ms={},loss=0.1", "retry-ms"),
        ];
        for (template, key) in inputs {
            assert!(parse(&argv(&template.replace("{}", "2"))).is_ok(), "{key}");
            for bad in ["-1", "nan", "inf", "1e30"] {
                let cmd = template.replace("{}", bad);
                let e = parse(&argv(&cmd)).expect_err(&cmd);
                assert!(e.0.contains(key), "{cmd}: {e}");
            }
        }
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        for word in [
            "run",
            "series",
            "trace",
            "fold",
            "sweep",
            "experiment",
            "tables",
            "help",
        ] {
            assert!(USAGE.contains(word), "usage missing {word}");
        }
    }

    #[test]
    fn usage_lists_every_protocol_from_the_spec_table() {
        // The protocol vocabulary renders from ProtocolSpec::CLI_NAMES,
        // so the help screen names every table entry — including the
        // replicated family.
        for name in ProtocolSpec::valid_names() {
            assert!(USAGE.contains(name), "usage missing protocol {name}");
        }
        assert!(USAGE.contains("PAXOS"));
        assert!(USAGE.contains("REP2PC"));
        assert!(USAGE.contains("replication"));
    }

    #[test]
    fn replication_flag_and_paxos_protocol() {
        let Command::Run { cfg, protocol, .. } =
            parse(&argv("run --protocol PAXOS --replication 1")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(protocol, ProtocolSpec::PAXOS);
        assert_eq!(cfg.replication, 1);
        // Aliases parse through the same FromStr vocabulary.
        let Command::Run { protocol, .. } = parse(&argv("run --protocol paxos-commit")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(protocol, ProtocolSpec::PAXOS);
        let Command::Sweep { protocols, .. } =
            parse(&argv("sweep --protocols 2PC,PAXOS,REP-2PC --mpls 2")).unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(
            protocols,
            vec![
                ProtocolSpec::TWO_PC,
                ProtocolSpec::PAXOS,
                ProtocolSpec::REP_2PC
            ]
        );
        // Unknown names list the full vocabulary.
        let e = parse(&argv("run --protocol 4PC")).unwrap_err();
        assert!(e.0.contains("PAXOS"), "{e}");
        assert!(e.0.contains("REP2PC"), "{e}");
    }

    #[test]
    fn usage_lists_every_fault_key_from_the_config_table() {
        // The help text renders FailureConfig::CLI_KEYS verbatim, so
        // the parser vocabulary and the documentation cannot drift.
        for (key, desc) in FailureConfig::CLI_KEYS {
            assert!(USAGE.contains(key), "usage missing fault key {key}");
            assert!(USAGE.contains(desc), "usage missing fault desc {desc}");
        }
    }

    #[test]
    fn run_parses_format_and_trace_out() {
        let Command::Run {
            format, trace_out, ..
        } = parse(&argv("run --format json --trace-out /tmp/r.json")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(format, ReportFormat::Json);
        assert_eq!(trace_out.as_deref(), Some("/tmp/r.json"));
        let Command::Run { format, .. } = parse(&argv("run --format csv")).unwrap() else {
            panic!("expected Run");
        };
        assert_eq!(format, ReportFormat::Csv);
        // Bad formats are rejected with the flag named.
        let e = parse(&argv("run --format xml")).unwrap_err();
        assert!(e.0.contains("--format"), "{e}");
        // --trace-out is run-only; --format is run/sweep/series-only.
        assert!(parse(&argv("sweep --trace-out x.json")).is_err());
        assert!(parse(&argv("trace --trace-out x.json")).is_err());
        assert!(parse(&argv("fold --format csv")).is_err());
        assert!(parse(&argv("trace --format json")).is_err());
    }

    #[test]
    fn series_parses_flags_and_defaults() {
        let Command::Series {
            cfg,
            protocol,
            seed,
            series_cfg,
            format,
            out,
        } = parse(&argv("series")).unwrap()
        else {
            panic!("expected Series");
        };
        assert_eq!(protocol, ProtocolSpec::TWO_PC);
        assert_eq!(seed, 42);
        assert_eq!(cfg.mpl, 4);
        assert_eq!(series_cfg, SeriesConfig::default());
        assert_eq!(format, SeriesFormat::Csv);
        assert_eq!(out, None);
        let Command::Series {
            series_cfg,
            format,
            out,
            ..
        } = parse(&argv(
            "series --protocol OPT --window 2.5 --per-site --format json --out /tmp/s.json \
             --faults mc=0.01",
        ))
        .unwrap()
        else {
            panic!("expected Series");
        };
        assert_eq!(series_cfg.window, SimDuration::from_millis(2_500));
        assert!(series_cfg.per_site);
        assert_eq!(format, SeriesFormat::Json);
        assert_eq!(out.as_deref(), Some("/tmp/s.json"));
    }

    #[test]
    fn series_rejects_bad_flag_combinations() {
        // A table has no series rendering.
        let e = parse(&argv("series --format table")).unwrap_err();
        assert!(e.0.contains("csv|json"), "{e}");
        // Window must be positive and finite.
        assert!(parse(&argv("series --window 0")).is_err());
        assert!(parse(&argv("series --window -3")).is_err());
        assert!(parse(&argv("series --window inf")).is_err());
        // Series takes none of the other subcommands' flags.
        assert!(parse(&argv("series --txns 5")).is_err());
        assert!(parse(&argv("series --trace-out x.json")).is_err());
        assert!(parse(&argv("series --series-out x.csv")).is_err());
        assert!(parse(&argv("series --reps 2")).is_err());
        assert!(parse(&argv("series --jobs 2")).is_err());
        assert!(parse(&argv("series --csv")).is_err());
    }

    #[test]
    fn series_out_applies_to_run_and_sweep() {
        let Command::Run {
            series_out,
            series_cfg,
            ..
        } = parse(&argv("run --series-out /tmp/s.csv --window 1 --per-site")).unwrap()
        else {
            panic!("expected Run");
        };
        assert_eq!(series_out.as_deref(), Some("/tmp/s.csv"));
        assert_eq!(series_cfg.window, SimDuration::from_millis(1_000));
        assert!(series_cfg.per_site);
        let Command::Sweep {
            series_out,
            series_cfg,
            ..
        } = parse(&argv(
            "sweep --protocols 2PC --mpls 1,2 --series-out /tmp/s.json",
        ))
        .unwrap()
        else {
            panic!("expected Sweep");
        };
        assert_eq!(series_out.as_deref(), Some("/tmp/s.json"));
        assert_eq!(series_cfg, SeriesConfig::default());
        // One observed run feeds both streamers, into two files.
        assert!(parse(&argv("run --trace-out a.json --series-out b.csv")).is_ok());
        for same in ["a.json", "./a.json"] {
            let cmd = format!("run --trace-out a.json --series-out {same}");
            assert!(parse(&argv(&cmd)).is_err(), "{same}");
        }
        // --window/--per-site are meaningless without a series.
        assert!(parse(&argv("run --window 2")).is_err());
        assert!(parse(&argv("run --per-site")).is_err());
        assert!(parse(&argv("sweep --protocols 2PC --mpls 1 --per-site")).is_err());
        assert!(parse(&argv("trace --series-out x.csv")).is_err());
        assert!(parse(&argv("fold --series-out x.csv")).is_err());
    }

    /// Aliases the path text cannot see — a `..` detour, a symlink and
    /// a hard link to the trace file — exit 2 before the run rather than
    /// interleave both streams in one file; distinct files still run.
    #[cfg(unix)]
    #[test]
    fn run_rejects_outputs_that_are_one_file() {
        let dir = std::env::temp_dir().join(format!("distcommit-alias-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("b")).unwrap();
        let trace = dir.join("a.json");
        std::fs::write(&trace, "").unwrap();
        std::os::unix::fs::symlink(&trace, dir.join("link.json")).unwrap();
        std::fs::hard_link(&trace, dir.join("hard.json")).unwrap();
        let run = |series: &str| {
            let cmd = format!(
                "run --warmup 0 --measured 20 --format csv --trace-out {} --series-out {}",
                trace.display(),
                dir.join(series).display()
            );
            execute(parse(&argv(&cmd)).expect("the path text differs"))
        };
        for alias in ["b/../a.json", "link.json", "hard.json"] {
            assert_eq!(run(alias), 2, "{alias}");
            let text = std::fs::read_to_string(&trace).unwrap();
            assert!(!text.contains("window,"), "{alias}: a series was written");
            assert!(
                !text.contains("process_name"),
                "{alias}: a trace was written"
            );
        }
        assert_eq!(run("b/s.csv"), 0);
        assert!(std::fs::read_to_string(dir.join("b/s.csv"))
            .unwrap()
            .starts_with("window,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn series_format_follows_output_extension() {
        assert_eq!(series_format_for("s.json"), SeriesFormat::Json);
        assert_eq!(series_format_for("s.csv"), SeriesFormat::Csv);
        assert_eq!(series_format_for("windows"), SeriesFormat::Csv);
    }

    #[test]
    fn fold_parses_txns_and_out() {
        let Command::Fold {
            cfg,
            protocol,
            seed,
            txns,
            out,
        } = parse(&argv(
            "fold --protocol 3PC --seed 5 --txns 100 --out /tmp/f.folded",
        ))
        .unwrap()
        else {
            panic!("expected Fold");
        };
        assert_eq!(protocol, ProtocolSpec::THREE_PC);
        assert_eq!(seed, 5);
        assert_eq!(txns, 100);
        assert_eq!(out.as_deref(), Some("/tmp/f.folded"));
        // Fold uses run-length defaults (it aggregates, so a full run
        // is the point) and folds every transaction by default.
        assert_eq!(cfg.run.warmup_transactions, 500);
        assert_eq!(cfg.run.measured_transactions, 5_000);
        let Command::Fold { txns, out, .. } = parse(&argv("fold")).unwrap() else {
            panic!("expected Fold");
        };
        assert_eq!(txns, u64::MAX);
        assert_eq!(out, None);
        assert!(parse(&argv("fold --txns 0")).is_err());
        assert!(parse(&argv("fold --reps 2")).is_err());
        assert!(parse(&argv("fold --csv")).is_err());
    }

    #[test]
    fn trace_parses_txns_and_out() {
        let cmd = parse(&argv(
            "trace --protocol 3PC --txns 5 --out /tmp/t.json --seed 2",
        ))
        .unwrap();
        let Command::Trace {
            cfg,
            protocol,
            seed,
            txns,
            out,
        } = cmd
        else {
            panic!("expected Trace")
        };
        assert_eq!(protocol, ProtocolSpec::THREE_PC);
        assert_eq!(seed, 2);
        assert_eq!(txns, 5);
        assert_eq!(out.as_deref(), Some("/tmp/t.json"));
        // trace defaults to a short run; flags still override
        assert_eq!(cfg.run.warmup_transactions, 50);
        assert_eq!(cfg.run.measured_transactions, 200);
        let Command::Trace { cfg, txns, out, .. } = parse(&argv("trace --measured 80")).unwrap()
        else {
            panic!("expected Trace")
        };
        assert_eq!(cfg.run.measured_transactions, 80);
        assert_eq!(txns, 3);
        assert_eq!(out, None);
        // --txns/--out are trace-only; trace takes no --reps/--jobs
        assert!(parse(&argv("run --txns 5")).is_err());
        assert!(parse(&argv("run --out x.json")).is_err());
        assert!(parse(&argv("sweep --out x.json")).is_err());
        assert!(parse(&argv("trace --txns 0")).is_err());
        assert!(parse(&argv("trace --reps 2")).is_err());
    }
}
