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
    parse_millis, FailureConfig, HotSpot, ResourceMode, RestartPolicy, SystemConfig, Topology,
    TransType, Zipf,
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
use std::fs::File;
use std::io;
use std::path::Path;
use std::str::FromStr;
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

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError(msg)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Every subcommand but `help`; bit `i` of an [`Opt::subs`] mask names
/// `SUBCOMMANDS[i]`.
const SUBCOMMANDS: [&str; 7] = [
    "run",
    "series",
    "trace",
    "fold",
    "sweep",
    "experiment",
    "tables",
];
const RUN: u8 = 1;
const SERIES: u8 = 1 << 1;
const TRACE: u8 = 1 << 2;
const FOLD: u8 = 1 << 3;
const SWEEP: u8 = 1 << 4;
const EXPERIMENT: u8 = 1 << 5;
/// The subcommands that simulate one configuration under one protocol.
const ONE_RUN: u8 = RUN | SERIES | TRACE | FOLD;
/// The subcommands that take the configuration flags.
const CONFIG: u8 = ONE_RUN | SWEEP;

/// The subcommands in `subs`, as "run, series and sweep".
fn sub_list(subs: u8) -> String {
    let names: Vec<&str> = (0..SUBCOMMANDS.len())
        .filter(|i| subs & 1 << i != 0)
        .map(|i| SUBCOMMANDS[i])
        .collect();
    match names.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} and {last}", rest.join(", ")),
        _ => names.concat(),
    }
}

/// One command-line option: its flag and value shape, the subcommands
/// that take it, its usage text and what it sets.
struct Opt {
    /// `--flag`, or `--flag <SHAPE>` when it takes a value.
    spec: &'static str,
    /// The subcommands that take it, as [`SUBCOMMANDS`] bits.
    subs: u8,
    /// Usage text; each `\n` starts another line of it.
    help: &'static str,
    /// Apply the option from `(settings, flag, value)`; a switch gets
    /// an empty value.
    set: fn(&mut Settings, &str, &str) -> Result<(), CliError>,
}

impl Opt {
    fn flag(&self) -> &'static str {
        self.spec
            .split_once(' ')
            .map_or(self.spec, |(flag, _)| flag)
    }

    fn takes_value(&self) -> bool {
        self.spec.contains(' ')
    }
}

/// An [`OPTIONS`] row whose setter body is one assignment.
macro_rules! opt {
    ($spec:literal, $subs:expr, $help:literal, |$s:tt, $f:tt, $v:tt| $set:expr) => {
        Opt {
            spec: $spec,
            subs: $subs,
            help: $help,
            set: |$s, $f, $v| {
                $set;
                Ok(())
            },
        }
    };
}

/// Every option, one row per meaning (`--format`, `--out`, `--txns`,
/// `--series-out` and `--csv` mean different things to different
/// subcommands), rows that share their subcommands kept together:
/// [`parse`], its errors and the option sections of [`USAGE`] all read
/// these rows.
#[rustfmt::skip]
static OPTIONS: &[Opt] = &[
    opt!("--format <FORMAT>", RUN, "report format: table (default), csv\n\
          (long-form section,key,value) or json",
         |s, f, v| s.format = Some(parsed(f, v)?)),
    opt!("--trace-out <FILE>", RUN, "stream Chrome trace-event JSON to FILE while\n\
          the run executes — bounded memory, so it\n\
          works for arbitrarily long runs; loadable in\n\
          chrome://tracing or https://ui.perfetto.dev",
         |s, _, v| s.trace_out = Some(v.into())),
    opt!("--series-out <FILE>", RUN, "also stream the windowed metric series to\n\
          FILE (CSV, or JSON when FILE ends in .json);\n\
          accepts --window/--per-site; combines with\n\
          --trace-out: one run feeds both files, and\n\
          each is byte-identical to what the run\n\
          streams with the other flag absent; the two\n\
          must be different files (a link or `..`\n\
          path to the same file exits 2)",
         |s, _, v| s.series_out = Some(v.into())),
    opt!("--format <FORMAT>", SERIES, "series format: csv (default, one row per\n\
          window) or json (one document with a\n\
          `windows` array)",
         |s, f, v| s.format = Some(parsed(f, v)?)),
    opt!("--out <FILE>", SERIES, "stream windows to FILE as the run executes\n\
          (bounded memory) and print the report\n\
          summary to stdout; without --out the series\n\
          goes to stdout and the summary to stderr",
         |s, _, v| s.out = Some(v.into())),
    opt!("--window <SECS>", RUN | SERIES | SWEEP, "series window width in simulated seconds\n\
          (default 5); run and sweep need --series-out",
         |s, f, v| s.window = Some(parse_window(f, v)?)),
    opt!("--per-site", RUN | SERIES | SWEEP, "add a per-site breakdown (per-site commits\n\
          and instantaneous queue depths) to every\n\
          series window",
         |s, _, _| s.per_site = true),
    opt!("--txns <N>", TRACE, "transactions to trace from the start of the\n\
          run (default 3)",
         |s, f, v| s.txns = Some(count(f, v)?)),
    opt!("--out <FILE>", TRACE, "also write Chrome trace-event JSON, loadable\n\
          in chrome://tracing or Perfetto",
         |s, _, v| s.out = Some(v.into())),
    opt!("--txns <N>", FOLD, "transactions to fold (default: all)",
         |s, f, v| s.txns = Some(count(f, v)?)),
    opt!("--out <FILE>", FOLD, "write the collapsed stacks to FILE instead\n\
          of stdout; lines are\n\
          `protocol;phase;station;activity weight`\n\
          (weights in simulated µs), ready for\n\
          flamegraph.pl / inferno / speedscope",
         |s, _, v| s.out = Some(v.into())),
    opt!("--protocols <A,B,..>", SWEEP, "protocols (default CENT,DPCC,2PC,3PC,OPT)",
         |s, f, v| s.protocols = list(v, |p| parsed(f, p))?),
    opt!("--mpls <N,N,..>", SWEEP, "MPL axis (default 1..10)",
         |s, f, v| s.mpls = list(v, |m| num(f, m))?),
    opt!("--format <FORMAT>", SWEEP, "table (default): aligned tables plus an\n\
          ASCII chart and peak summary; csv: the three\n\
          CSV blocks below; json: one document with\n\
          every point's full report object",
         |s, f, v| s.format = Some(parsed(f, v)?)),
    opt!("--csv", SWEEP, "shorthand for --format csv: throughput\n\
          (mean + 90% CI half-width per series), then\n\
          per-phase p50/p90/p99 latencies, then\n\
          per-site occupancy percentiles, separated by\n\
          blank lines; byte-identical for every --jobs",
         |s, _, _| s.csv = true),
    opt!("--series-out <FILE>", SWEEP, "record every grid cell's windowed series to\n\
          FILE — CSV rows gain series,mpl,rep identity\n\
          columns (JSON when FILE ends in .json);\n\
          accepts --window/--per-site",
         |s, _, v| s.series_out = Some(v.into())),
    opt!("--full", EXPERIMENT, "run 50 000 transactions per point",
         |s, _, _| s.full = true),
    opt!("--csv", EXPERIMENT, "print one plottable CSV block per metric\n\
          instead of the tables",
         |s, _, _| s.csv = true),
    opt!("--jobs <N>", SWEEP | EXPERIMENT, "worker threads for the run grid (default:\n\
          all cores); results are byte-identical for\n\
          every N",
         |s, f, v| s.jobs = Some(count(f, v)?)),
    opt!("--reps <N>", SWEEP | EXPERIMENT, "independent replications per (protocol, MPL)\n\
          cell, each with its own derived seed; with\n\
          N >= 2 every point reports mean +-90% CI\n\
          across replications (default 1, at most\n\
          65535)",
         |s, f, v| s.reps = match count(f, v)? {
             n @ ..=experiments::MAX_REPLICATIONS => n,
             _ => return err(format!("{f} must be at most 65535")),
         }),
    opt!("--protocol <NAME>", ONE_RUN, "protocol (default 2PC)",
         |s, f, v| s.protocol = parsed(f, v)?),
    opt!("--mpl <N>", ONE_RUN, "multiprogramming level (default 4)",
         |s, f, v| s.cfg.mpl = num(f, v)?),
    opt!("--seed <N>", CONFIG, "RNG seed (default 42)",
         |s, f, v| s.seed = num(f, v)?),
    opt!("--sites <N>", CONFIG, "number of sites (default 8)",
         |s, f, v| s.cfg.num_sites = num(f, v)?),
    opt!("--db-size <PAGES>", CONFIG, "database size (default 8000)",
         |s, f, v| s.cfg.db_size = num(f, v)?),
    opt!("--dist-degree <N>", CONFIG, "cohorts per transaction (default 3)",
         |s, f, v| s.cfg.dist_degree = num(f, v)?),
    opt!("--cohort-size <N>", CONFIG, "mean pages per cohort (default 6)",
         |s, f, v| s.cfg.cohort_size = num(f, v)?),
    opt!("--update-prob <P>", CONFIG, "page update probability (default 1.0)",
         |s, f, v| s.cfg.update_prob = num(f, v)?),
    opt!("--msg-cpu-ms <MS>", CONFIG, "message send/receive CPU time (default 5)",
         |s, f, v| s.cfg.msg_cpu = parse_millis(f, v)?),
    opt!("--page-cpu-ms <MS>", CONFIG, "page processing CPU time (default 5)",
         |s, f, v| s.cfg.page_cpu = parse_millis(f, v)?),
    opt!("--page-disk-ms <MS>", CONFIG, "disk page access time (default 20)",
         |s, f, v| s.cfg.page_disk = parse_millis(f, v)?),
    opt!("--cpus <N>", CONFIG, "CPUs per site (default 1)",
         |s, f, v| s.cfg.num_cpus = num(f, v)?),
    opt!("--data-disks <N>", CONFIG, "data disks per site (default 2)",
         |s, f, v| s.cfg.num_data_disks = num(f, v)?),
    opt!("--log-disks <N>", CONFIG, "log disks per site (default 1)",
         |s, f, v| s.cfg.num_log_disks = num(f, v)?),
    opt!("--abort-prob <P>", CONFIG, "cohort surprise NO-vote probability (default 0)",
         |s, f, v| s.cfg.cohort_abort_prob = num(f, v)?),
    opt!("--replication <F>", CONFIG, "replica-group tolerance F: every shard gets\n\
          2F+1 acceptors / standby coordinators\n\
          (PAXOS and REP2PC only; default 0)",
         |s, f, v| s.cfg.replication = num(f, v)?),
    opt!("--hot-spot <D,A>", CONFIG, "b-c access skew: A of accesses hit first D of pages",
         |s, f, v| s.cfg.hot_spot = match list(v, |x| num::<f64>(f, x))?[..] {
             [data_fraction, access_fraction] => Some(HotSpot { data_fraction, access_fraction }),
             _ => return err(format!("{f} wants DATA_FRACTION,ACCESS_FRACTION")),
         }),
    opt!("--zipf <THETA>", CONFIG, "Zipf(theta) page-access skew per site\n\
          (excludes --hot-spot; 0 = uniform)",
         |s, f, v| s.cfg.zipf = Some(Zipf { theta: num(f, v)? })),
    opt!("--topology <K=V,..>", CONFIG, "LAN/WAN topology: sites split into regions,\n\
          messages spend wire latency in flight (keys:\n\
          TOPOLOGY KEYS)",
         |s, f, v| s.cfg.topology = Some(parsed(f, v)?)),
    opt!("--faults <K=V,..>", CONFIG, "enable the failure model (keys: FAULT KEYS)",
         |s, f, v| s.cfg.failures = Some(parsed(f, v)?)),
    opt!("--sequential", CONFIG, "sequential cohort execution",
         |s, _, _| s.cfg.trans_type = TransType::Sequential),
    opt!("--infinite", CONFIG, "infinite resources (pure data contention)",
         |s, _, _| s.cfg.resources = ResourceMode::Infinite),
    opt!("--read-only-opt", CONFIG, "enable the Read-Only commit optimization",
         |s, _, _| s.cfg.read_only_optimization = true),
    opt!("--group-commit <N>", CONFIG, "batch up to N forced writes per log service",
         |s, f, v| s.cfg.group_commit_batch = Some(num(f, v)?)),
    opt!("--restart-fixed-ms <MS>", CONFIG, "fixed restart delay instead of adaptive",
         |s, f, v| s.cfg.restart_policy = RestartPolicy::Fixed(parse_millis(f, v)?)),
    opt!("--warmup <N>", CONFIG, "warm-up transactions (default 500; trace 50)",
         |s, f, v| s.cfg.run.warmup_transactions = num(f, v)?),
    opt!("--measured <N>", CONFIG, "measured transactions (default 5000; trace 200)",
         |s, f, v| s.cfg.run.measured_transactions = num(f, v)?),
];

/// Usage text printed by `help` and on errors. Its option sections
/// render from the option table, one per set of subcommands, and its key
/// lists from [`FailureConfig::KEYS`] and [`Topology::KEYS`]: the
/// parsers and the help text share one vocabulary by construction.
pub static USAGE: LazyLock<String> = LazyLock::new(|| {
    let line = |spec: &str, help: &str| {
        format!(
            "  {spec:<24} {}\n",
            help.replace('\n', "\n                           ")
        )
    };
    let sections: String = OPTIONS
        .chunk_by(|a, b| a.subs == b.subs)
        .map(|rows| {
            let lines: String = rows.iter().map(|o| line(o.spec, o.help)).collect();
            format!("OPTIONS ({}):\n{lines}\n", sub_list(rows[0].subs))
        })
        .collect();
    let fault_keys: String = FailureConfig::KEYS
        .iter()
        .map(|k| line(k.key, k.help))
        .collect();
    let topology_keys: String = Topology::KEYS.iter().map(|k| line(k.key, k.help)).collect();
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
  distcommit experiment <ID> [OPTIONS]       one paper preset: its configuration
                                             and one table per metric it plots
      ID: {preset_ids}
  distcommit tables                          Tables 2-4, analytic and
                                             measured overheads
  distcommit help

{sections}FAULT KEYS (--faults K=V,..; unset keys keep the defaults in parentheses):
{fault_keys}  e.g. --faults mc=0.01,cc=0.005,loss=0.01

TOPOLOGY KEYS (--topology K=V,..; defaults in parentheses):
{topology_keys}  e.g. --topology regions=8,lan-ms=1,wan-ms=40

Protocols: {protocol_names}
"
    )
});

/// The `experiment` ids, `|`-separated, from the preset table — the
/// usage text and the parser's errors share this one list.
fn preset_ids() -> String {
    PRESETS.iter().map(|p| p.id).collect::<Vec<_>>().join("|")
}

/// Parse a number, naming the flag when it is not one.
fn num<T: FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError(format!("{flag}: cannot parse {v:?}")))
}

/// Parse a count of at least 1.
fn count<T: FromStr + From<u8> + PartialOrd>(flag: &str, v: &str) -> Result<T, CliError> {
    let n = num(flag, v)?;
    if n < T::from(1) {
        return err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Parse a value whose type says what is wrong with it, after the flag.
fn parsed<T: FromStr<Err: fmt::Display>>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse().map_err(|e| CliError(format!("{flag}: {e}")))
}

/// Parse a comma-separated list, skipping empty entries.
fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, CliError>) -> Result<Vec<T>, CliError> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(item)
        .collect()
}

/// Parse a series window in seconds through the conversion every
/// duration input shares; a window that rounds to zero microseconds is
/// rejected too.
fn parse_window(flag: &str, v: &str) -> Result<SimDuration, CliError> {
    let secs: f64 = num(flag, v)?;
    match SimDuration::try_from_millis_f64(secs * 1_000.0) {
        Some(w) if !w.is_zero() => Ok(w),
        _ => err(format!(
            "{flag}: {v:?} is not a positive number of seconds the microsecond clock can hold"
        )),
    }
}

/// What an invocation's options set, over its subcommand's defaults.
struct Settings {
    cfg: SystemConfig,
    protocol: ProtocolSpec,
    protocols: Vec<ProtocolSpec>,
    mpls: Vec<u32>,
    seed: u64,
    reps: u32,
    jobs: Option<usize>,
    format: Option<ReportFormat>,
    csv: bool,
    full: bool,
    txns: Option<u64>,
    out: Option<String>,
    trace_out: Option<String>,
    series_out: Option<String>,
    window: Option<SimDuration>,
    per_site: bool,
    /// The `experiment` id, the one argument that is not an option.
    id: Option<String>,
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((name, args)) = args.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let Some(i) = SUBCOMMANDS.iter().position(|s| s == name) else {
        return err(format!("unknown command {name:?}; try `distcommit help`"));
    };
    let sub = 1 << i;
    // Tracing inspects individual transactions; a short run keeps the
    // timeline readable (flags still override).
    let (warmup, measured) = if sub == TRACE {
        (50, 200)
    } else {
        (500, 5_000)
    };
    let mut s = Settings {
        cfg: SystemConfig::paper_baseline().with_run_length(warmup, measured),
        protocol: ProtocolSpec::TWO_PC,
        protocols: vec![
            ProtocolSpec::CENT,
            ProtocolSpec::DPCC,
            ProtocolSpec::TWO_PC,
            ProtocolSpec::THREE_PC,
            ProtocolSpec::OPT_2PC,
        ],
        mpls: (1..=10).collect(),
        seed: 42,
        reps: 1,
        jobs: None,
        format: None,
        csv: false,
        full: false,
        txns: None,
        out: None,
        trace_out: None,
        series_out: None,
        window: None,
        per_site: false,
        id: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if sub == EXPERIMENT && s.id.is_none() && !arg.starts_with('-') {
            s.id = Some(arg.clone());
            continue;
        }
        let opt = option(sub, arg)?;
        let value = match opt.takes_value() {
            true => args
                .next()
                .ok_or_else(|| CliError(format!("{arg} needs a value")))?,
            false => "",
        };
        (opt.set)(&mut s, arg, value)?;
    }
    s.command(sub)
}

/// The row of `flag` that `sub` takes. The error names the subcommands
/// that do take `flag`, if any does.
fn option(sub: u8, flag: &str) -> Result<&'static Opt, CliError> {
    let rows = || OPTIONS.iter().filter(|o| o.flag() == flag);
    if let Some(opt) = rows().find(|o| o.subs & sub != 0) {
        return Ok(opt);
    }
    match rows().fold(0, |subs, o| subs | o.subs) {
        0 => err(format!("unknown option {flag:?}")),
        subs => err(format!("{flag} applies to {} only", sub_list(subs))),
    }
}

impl Settings {
    /// The `sub` command, once the checks that span options pass.
    fn command(self, sub: u8) -> Result<Command, CliError> {
        if sub != SERIES && self.series_out.is_none() && (self.window.is_some() || self.per_site) {
            return err("--window/--per-site need `series` or --series-out");
        }
        if self.csv && self.format.is_some() {
            return err("--csv is shorthand for --format csv; pass one of them");
        }
        // Every (configuration, protocol) pair is checked here, so a
        // bad one exits 2 before any run starts.
        let validate =
            |cfg: &SystemConfig, spec| cfg.validate_for(spec).map_err(|e| CliError(e.to_string()));
        if sub & ONE_RUN != 0 {
            validate(&self.cfg, self.protocol)?;
        }
        let series_cfg = SeriesConfig {
            window: self.window.unwrap_or(SeriesConfig::DEFAULT_WINDOW),
            per_site: self.per_site,
        };
        Ok(match sub {
            RUN => {
                // Two writers on one file would interleave into garbage.
                // The path text catches `a.json` vs `./a.json` here;
                // `execute` catches the aliases only the files show.
                let absolute =
                    |p: &Option<String>| p.as_deref().map(|p| std::path::absolute(p).ok());
                if self.trace_out.is_some()
                    && absolute(&self.trace_out) == absolute(&self.series_out)
                {
                    return err(ALIASED_OUTPUTS);
                }
                Command::Run {
                    cfg: self.cfg,
                    protocol: self.protocol,
                    seed: self.seed,
                    format: self.format.unwrap_or(ReportFormat::Table),
                    trace_out: self.trace_out,
                    series_out: self.series_out,
                    series_cfg,
                }
            }
            SERIES => Command::Series {
                cfg: self.cfg,
                protocol: self.protocol,
                seed: self.seed,
                series_cfg,
                format: match self.format.unwrap_or(ReportFormat::Csv) {
                    ReportFormat::Csv => SeriesFormat::Csv,
                    ReportFormat::Json => SeriesFormat::Json,
                    ReportFormat::Table => {
                        return err("series --format: csv|json (a table has no series rendering)")
                    }
                },
                out: self.out,
            },
            TRACE => Command::Trace {
                cfg: self.cfg,
                protocol: self.protocol,
                seed: self.seed,
                txns: self.txns.unwrap_or(3),
                out: self.out,
            },
            FOLD => Command::Fold {
                cfg: self.cfg,
                protocol: self.protocol,
                seed: self.seed,
                txns: self.txns.unwrap_or(u64::MAX),
                out: self.out,
            },
            SWEEP => {
                if self.protocols.is_empty() || self.mpls.is_empty() {
                    return err("sweep needs at least one protocol and one MPL");
                }
                for &spec in &self.protocols {
                    for &m in &self.mpls {
                        validate(&self.cfg.clone().with_mpl(m), spec)?;
                    }
                }
                let default = if self.csv {
                    ReportFormat::Csv
                } else {
                    ReportFormat::Table
                };
                Command::Sweep {
                    cfg: self.cfg,
                    protocols: self.protocols,
                    mpls: self.mpls,
                    seed: self.seed,
                    reps: self.reps,
                    jobs: self.jobs,
                    format: self.format.unwrap_or(default),
                    series_out: self.series_out,
                    series_cfg,
                }
            }
            EXPERIMENT => match self.id {
                Some(id) if experiments::preset(&id).is_some() => Command::Experiment {
                    id,
                    full: self.full,
                    reps: self.reps,
                    jobs: self.jobs,
                    csv: self.csv,
                },
                Some(id) => return err(format!("unknown experiment {id:?} ({})", preset_ids())),
                None => return err(format!("experiment needs an id ({})", preset_ids())),
            },
            // `tables`, which takes no option.
            _ => Command::Tables,
        })
    }
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

/// Create the file `path` names, if any.
fn create_out<T>(
    path: Option<&str>,
    create: impl FnOnce(&Path) -> io::Result<T>,
) -> Result<Option<T>, String> {
    path.map(|p| create(Path::new(p)).map_err(|e| format!("cannot create {p}: {e}")))
        .transpose()
}

/// Write `bytes` to the file at `path`.
fn write_out(path: &str, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))
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

/// Execute a parsed command, writing its output to `out`, and return
/// the process exit code. Every failure — of a run, of a file it cannot
/// create or write, or of `out` itself — is reported on stderr and
/// exits 1, or 2 when `run`'s two outputs turn out to be one file. A
/// run that is truncated or fails its overhead check also exits 1.
pub fn execute(cmd: Command, out: &mut (dyn io::Write + Send)) -> i32 {
    match write_command(cmd, out).and_then(|code| {
        out.flush()?;
        Ok(code)
    }) {
        Ok(code) => code,
        Err(e) => {
            let what = if e.is::<io::Error>() {
                "output failed: "
            } else {
                ""
            };
            eprintln!("error: {what}{e}");
            if e.is::<CliError>() {
                2
            } else {
                1
            }
        }
    }
}

/// The body of [`execute`]: the exit code of a command that did not
/// fail.
fn write_command(
    cmd: Command,
    out: &mut (dyn io::Write + Send),
) -> Result<i32, Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => writeln!(out, "{}", *USAGE)?,
        Command::Tables => {
            writeln!(
                out,
                "Table 2 — Baseline Parameter Settings (reconstructed):\n{}",
                SystemConfig::paper_baseline()
            )?;
            for d in [3u32, 6] {
                writeln!(
                    out,
                    "Table {} — Protocol Overheads (DistDegree = {d}), committing transactions; \
                     (meas) = per commit in a conflict-free run",
                    if d == 3 { 3 } else { 4 }
                )?;
                writeln!(
                    out,
                    "{:<9} {:>9} {:>9} | {:>12} {:>9} | {:>10} {:>9}",
                    "Protocol",
                    "ExecMsgs",
                    "(meas)",
                    "ForcedWrites",
                    "(meas)",
                    "CommitMsgs",
                    "(meas)"
                )?;
                for spec in [
                    ProtocolSpec::TWO_PC,
                    ProtocolSpec::PA,
                    ProtocolSpec::PC,
                    ProtocolSpec::THREE_PC,
                    ProtocolSpec::DPCC,
                    ProtocolSpec::CENT,
                ] {
                    let o = spec.committed_overheads(d);
                    let m = experiments::measured_overheads(d, spec, TABLES_SEED)?;
                    if m.total_aborts() > 0 {
                        return Err(format!(
                            "the {} run at DistDegree {d} aborted transactions; \
                             the overhead measurement must be conflict-free",
                            spec.name()
                        )
                        .into());
                    }
                    writeln!(
                        out,
                        "{:<9} {:>9} {:>9.2} | {:>12} {:>9.2} | {:>10} {:>9.2}",
                        spec.name(),
                        o.exec_messages,
                        m.exec_messages_per_commit,
                        o.forced_writes,
                        m.forced_writes_per_commit,
                        o.commit_messages,
                        m.commit_messages_per_commit,
                    )?;
                }
                writeln!(out)?;
            }
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
            let mut sink = create_out(trace_out.as_deref(), ChromeStreamSink::create)?;
            let mut file = create_out(series_out.as_deref(), |p| File::create(p))?;
            if let (Some(t), Some(s)) = (&trace_out, &series_out) {
                if same_file(t, s) {
                    return Err(CliError(ALIASED_OUTPUTS.into()).into());
                }
            }
            let obs = Observers {
                trace: sink.as_mut().map(|s| (u64::MAX, s as &mut dyn TraceSink)),
                series: file
                    .as_mut()
                    .zip(series_out.as_deref())
                    .map(|(f, path)| (series_cfg, SeriesOut::Stream(f, series_format_for(path)))),
            };
            let r = Simulation::run_observed(&cfg, protocol, seed, obs)?;
            if format == ReportFormat::Table {
                writeln!(out, "{cfg}")?;
            }
            write!(out, "{}", r.render(format))?;
            // The report shows before the notes below on a terminal.
            out.flush()?;
            if let Some((sink, path)) = sink.zip(trace_out) {
                let events = sink
                    .into_result()
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                // stderr keeps csv/json output machine-readable.
                eprintln!(
                    "chrome trace ({events} events) streamed to {path} — open in \
                     chrome://tracing or https://ui.perfetto.dev"
                );
            }
            if let Some(path) = &series_out {
                eprintln!("windowed series streamed to {path}");
            }
            return Ok(i32::from(!r.overhead_check.is_clean() || r.truncated));
        }
        Command::Series {
            cfg,
            protocol,
            seed,
            series_cfg,
            format,
            out: path,
        } => {
            // Without --out, stdout carries only the series, so
            // redirecting it to a file gives exactly the --out bytes; the
            // summary rides on stderr.
            let mut file = create_out(path.as_deref(), |p| File::create(p))?;
            let writer: &mut (dyn io::Write + Send) = match &mut file {
                Some(file) => file,
                None => &mut *out,
            };
            let obs = Observers {
                trace: None,
                series: Some((series_cfg, SeriesOut::Stream(writer, format))),
            };
            let report = Simulation::run_observed(&cfg, protocol, seed, obs)?;
            match &path {
                Some(path) => writeln!(
                    out,
                    "windowed series ({}) streamed to {path}\n{}",
                    series_format_name(format),
                    report.summary()
                )?,
                None => eprintln!("{}", report.summary()),
            }
        }
        Command::Fold {
            cfg,
            protocol,
            seed,
            txns,
            out: path,
        } => {
            let mut fold = FoldSink::new(protocol.name());
            let obs = Observers {
                trace: Some((txns, &mut fold)),
                series: None,
            };
            let report = Simulation::run_observed(&cfg, protocol, seed, obs)?;
            let rendered = fold.render();
            match path {
                Some(path) => {
                    write_out(&path, &rendered)?;
                    writeln!(
                        out,
                        "{} collapsed stacks written to {path} — render with \
                         flamegraph.pl, inferno-flamegraph or speedscope\n{}",
                        fold.stacks().len(),
                        report.summary()
                    )?;
                }
                None => {
                    // stdout carries only the collapsed stacks, so
                    // `distcommit fold | flamegraph.pl` works.
                    out.write_all(rendered.as_bytes())?;
                    out.flush()?;
                    eprintln!("{}", report.summary());
                }
            }
        }
        Command::Trace {
            cfg,
            protocol,
            seed,
            txns,
            out: path,
        } => {
            let mut trace = Trace::default();
            let obs = Observers {
                trace: Some((txns, &mut trace)),
                series: None,
            };
            let report = Simulation::run_observed(&cfg, protocol, seed, obs)?;
            writeln!(
                out,
                "{} — first {txns} transaction(s), seed {seed}\n",
                protocol.name()
            )?;
            for txn in trace.txns() {
                writeln!(out, "{}", trace.render_txn(txn))?;
            }
            writeln!(out, "{}", report.summary())?;
            if let Some(path) = path {
                write_out(&path, distdb::engine::chrome_trace_json(&trace))?;
                writeln!(
                    out,
                    "chrome trace ({} events) written to {path} — open in \
                     chrome://tracing or https://ui.perfetto.dev",
                    trace.events.len()
                )?;
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
            let series = match &series_out {
                Some(path) => {
                    let (series, cells) =
                        experiments::sweep_with_series(&specs, &scale, &series_cfg)?;
                    write_out(
                        path,
                        match series_format_for(path) {
                            SeriesFormat::Json => render_sweep_series_json(&cells),
                            SeriesFormat::Csv => render_sweep_series_csv(&cells),
                        },
                    )?;
                    eprintln!(
                        "windowed series for {} sweep cell(s) written to {path}",
                        cells.len()
                    );
                    series
                }
                None => experiments::sweep(&specs, &scale)?,
            };
            let exp = Experiment {
                id: "cli-sweep".into(),
                title: "CLI sweep".into(),
                config: cfg,
                series,
            };
            match format {
                ReportFormat::Csv => write!(out, "{}", render_sweep_csv(&exp))?,
                ReportFormat::Json => write!(out, "{}", render_sweep_json(&exp))?,
                ReportFormat::Table => {
                    let throughput = if reps >= 2 {
                        render_table_ci(&exp)
                    } else {
                        render_table(&exp, Metric::Throughput)
                    };
                    write!(
                        out,
                        "{throughput}\n{}\n{}{}",
                        render_table(&exp, Metric::BlockRatio),
                        render_ascii_chart(&exp, Metric::Throughput, 64, 18),
                        render_peaks(&exp)
                    )?;
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
            for exp in &preset.build(&scale)? {
                if csv {
                    write_csv_blocks(out, exp, preset.metrics)?;
                } else {
                    write_tables(out, exp, preset.metrics, reps)?;
                }
                writeln!(out)?;
            }
        }
    }
    Ok(0)
}

/// Seed of the conflict-free runs behind `tables`' measured columns.
const TABLES_SEED: u64 = 0xBE7C;

/// One experiment as `experiment` prints it: the configuration, one
/// table per metric (throughput as mean ±90% CI with `--reps` ≥ 2),
/// then the chart and peaks of the first metric over MPL — or, for a
/// fixed-MPL preset that varies the protocol mix instead, the ranking.
fn write_tables(
    out: &mut dyn io::Write,
    exp: &Experiment,
    metrics: &[Metric],
    reps: u32,
) -> io::Result<()> {
    writeln!(out, "configuration:\n{}", exp.config)?;
    for &m in metrics {
        if m == Metric::Throughput && reps >= 2 {
            writeln!(out, "{}", render_table_ci(exp))?;
        } else {
            writeln!(out, "{}", render_table(exp, m))?;
        }
    }
    if exp.mpls().len() > 1 {
        write!(
            out,
            "{}{}",
            render_ascii_chart(exp, metrics[0], 64, 18),
            render_peaks(exp)
        )
    } else {
        write!(out, "{}", render_ranking(exp))
    }
}

/// One CSV block per metric, separated by blank lines.
fn write_csv_blocks(
    out: &mut dyn io::Write,
    exp: &Experiment,
    metrics: &[Metric],
) -> io::Result<()> {
    let blocks: Vec<String> = metrics.iter().map(|&m| render_csv(exp, m)).collect();
    write!(out, "{}", blocks.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use distdb::config::Key;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A valid value of each value shape the rows declare.
    fn sample(shape: &str) -> &'static str {
        match shape {
            "<N>" => "8",
            "<F>" => "0",
            "<P>" => "0.5",
            "<MS>" | "<SECS>" => "2",
            "<PAGES>" => "8000",
            "<THETA>" => "0.9",
            "<D,A>" => "0.2,0.8",
            "<N,N,..>" => "1,2",
            "<NAME>" => "OPT",
            "<A,B,..>" => "2PC,OPT",
            "<FORMAT>" => "json",
            "<FILE>" => "out.json",
            // Every key keeps its default.
            "<K=V,..>" => "",
            other => panic!("no sample value for {other}"),
        }
    }

    /// The subcommands a usage heading or an error lists, as in
    /// "run, series and sweep".
    fn listed(names: &str) -> Vec<&str> {
        names
            .split([',', ' '])
            .filter(|w| !w.is_empty() && *w != "and")
            .collect()
    }

    /// The names of the subcommands in `subs`, in `SUBCOMMANDS` order.
    fn names(subs: u8) -> Vec<&'static str> {
        (0..SUBCOMMANDS.len())
            .filter(|i| subs & 1 << i != 0)
            .map(|i| SUBCOMMANDS[i])
            .collect()
    }

    /// Every subcommand accepts exactly the flags that a row lists it
    /// for; any other flag fails, naming the subcommands that take it.
    /// Every row's flag and help lines appear in the usage section
    /// headed by exactly its subcommands.
    #[test]
    fn options_apply_exactly_to_the_subcommands_their_rows_list() {
        for (i, sub) in SUBCOMMANDS.iter().enumerate() {
            for row in OPTIONS {
                let mut args = vec![sub.to_string()];
                if *sub == "experiment" {
                    args.push("fig1".into());
                }
                args.push(row.flag().into());
                if let Some((_, shape)) = row.spec.split_once(' ') {
                    args.push(sample(shape).into());
                }
                // --window and --per-site need a series to window.
                if option(1 << i, "--series-out").is_ok() {
                    args.extend(["--series-out".into(), "s.csv".into()]);
                }
                let takers = OPTIONS
                    .iter()
                    .filter(|o| o.flag() == row.flag())
                    .fold(0, |subs, o| subs | o.subs);
                match parse(&args) {
                    Ok(_) => assert!(takers & 1 << i != 0, "{args:?} was accepted"),
                    Err(e) if takers & 1 << i != 0 => panic!("{args:?}: {e}"),
                    Err(e) => {
                        let named =
                            e.0.strip_prefix(&format!("{} applies to ", row.flag()))
                                .and_then(|rest| rest.strip_suffix(" only"));
                        assert_eq!(named.map(listed), Some(names(takers)), "{args:?}: {e}");
                    }
                }
            }
        }
        for row in OPTIONS {
            let section = USAGE
                .split("\n\n")
                .find(|s| {
                    s.strip_prefix("OPTIONS (")
                        .and_then(|s| s.split_once("):\n"))
                        .is_some_and(|(heading, _)| listed(heading) == names(row.subs))
                })
                .unwrap_or_else(|| panic!("no usage section for {:?}", names(row.subs)));
            assert!(
                section.contains(&format!("  {} ", row.spec)),
                "{}",
                row.spec
            );
            for line in row.help.lines() {
                assert!(section.contains(line), "{}: {line}", row.spec);
            }
        }
    }

    /// Seeded fuzzing from the tables: any subcommand, up to eight flags
    /// from every row (so misplaced ones too), each with a valid,
    /// hostile, key-list or missing value. `parse` never panics, and an
    /// `Ok` holds only options that its subcommand's rows list.
    #[test]
    fn parse_survives_fuzzed_argument_vectors() {
        const HOSTILE: [&str; 8] = [
            "",
            "-1",
            "nan",
            "inf",
            "1e400",
            "18446744073709551616",
            ",",
            "=",
        ];
        let subs: Vec<&str> = SUBCOMMANDS
            .iter()
            .copied()
            .chain(["help", "bogus"])
            .collect();
        let keys: Vec<&str> = (FailureConfig::KEYS.iter().map(Key::name))
            .chain(Topology::KEYS.iter().map(Key::name))
            .collect();
        let mut rng = simkernel::SimRng::new(0x5EED);
        let mut accepted = 0;
        for _ in 0..20_000 {
            let mut args = vec![rng.pick(&subs).to_string()];
            for _ in 0..rng.uniform_usize(0, 8) {
                let row = rng.pick(OPTIONS);
                args.push(row.flag().into());
                match rng.uniform_usize(0, 3) {
                    0 => args.extend(row.spec.split_once(' ').map(|(_, s)| sample(s).into())),
                    1 => args.push(rng.pick(&HOSTILE).to_string()),
                    2 => {
                        let pairs: Vec<String> = (0..rng.uniform_usize(1, 3))
                            .map(|_| format!("{}={}", rng.pick(&keys), rng.pick(&HOSTILE)))
                            .collect();
                        args.push(pairs.join(","));
                    }
                    _ => {}
                }
            }
            let parsed = std::panic::catch_unwind(|| parse(&args))
                .unwrap_or_else(|_| panic!("parse panicked on {args:?}"));
            if parsed.is_err() || args[0] == "help" {
                continue;
            }
            accepted += 1;
            let i = SUBCOMMANDS
                .iter()
                .position(|s| *s == args[0])
                .unwrap_or_else(|| panic!("{args:?} was accepted"));
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                let row = OPTIONS
                    .iter()
                    .find(|o| o.flag() == arg && o.subs & 1 << i != 0);
                match row {
                    Some(row) if row.takes_value() => _ = rest.next(),
                    Some(_) => {}
                    None => assert!(
                        args[0] == "experiment" && !arg.starts_with('-'),
                        "{args:?} was accepted with {arg:?}"
                    ),
                }
            }
        }
        // About one vector in ten is accepted, so the check above runs.
        assert!(accepted > 1_000, "only {accepted} vectors were accepted");
    }

    /// A writer that takes `.0` more bytes, then fails like a pipe
    /// whose reader has gone.
    struct ClosesAfter(usize);

    impl io::Write for ClosesAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.0 -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Output that cannot be written is an error that exits 1, never a
    /// panic, whether it fails at once or part-way.
    #[test]
    fn a_closed_output_exits_1() {
        for cmd in [
            "tables",
            "trace --txns 2 --measured 20",
            "run --warmup 10 --measured 50",
        ] {
            for bytes in [0, 100] {
                let code = execute(parse(&argv(cmd)).unwrap(), &mut ClosesAfter(bytes));
                assert_eq!(code, 1, "{cmd} after {bytes} bytes");
            }
        }
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
        for k in Topology::KEYS {
            assert!(
                USAGE.contains(k.key),
                "usage missing topology key {}",
                k.key
            );
            assert!(
                USAGE.contains(k.help),
                "usage missing topology desc {}",
                k.help
            );
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
        // The execution-phase crash probability is validated like the
        // others, NaN included.
        for p in ["2", "1.0000001", "-1", "nan"] {
            let e = parse(&argv(&format!("run --faults exec-cc={p}"))).unwrap_err();
            assert!(
                e.0.contains("exec_crash_prob must be a probability"),
                "{p}: {e}"
            );
        }
        for cmd in ["sweep --jobs 0", "experiment fig1 --jobs 0"] {
            let e = parse(&argv(cmd)).expect_err(cmd);
            assert_eq!(e.0, "--jobs must be at least 1", "{cmd}");
        }
        // A skew whose distinct-page draws would stall is rejected.
        let e = parse(&argv("run --zipf 8")).unwrap_err();
        assert!(e.0.contains("zipf theta too large"), "{e}");
        // Sizes a run cannot allocate are typed errors, not a panic, a
        // spin in validation or an allocation failure; each bound admits
        // its own value.
        for (args, why) in [
            ("--db-size 18446744073709551608", "at most 2^28 pages"),
            ("--db-size 4000000000", "at most 2^28 pages"),
            ("--db-size 268435464", "at most 2^28 pages"),
            ("--db-size 34359738360 --zipf 0.9", "at most 2^28 pages"),
            ("--db-size 134217736 --zipf 0.9", "2^24 pages per site"),
            ("--mpl 4000000000", "accesses in flight"),
            (
                "--mpl 9 --dist-degree 4 --db-size 800000 --cohort-size 43691",
                "in flight",
            ),
            ("--sites 20000000 --db-size 180000000", "at most 4096 sites"),
            (
                "--sites 1000000 --db-size 9000000 --topology regions=2,wan-ms=10",
                "4096 sites",
            ),
            ("--sites 4097 --db-size 36873", "at most 4096 sites"),
            (
                "--sites 4096 --dist-degree 4096 --cohort-size 40000 --db-size 268435456",
                "accesses in flight",
            ),
        ] {
            let e = parse(&argv(&format!("run {args} --measured 10"))).unwrap_err();
            assert!(e.0.contains(why), "{args}: {e}");
        }
        for args in [
            "--db-size 268435456",
            "--db-size 134217728 --zipf 0.9",
            "--mpl 8 --dist-degree 4 --db-size 800000 --cohort-size 43691",
            "--sites 4096 --db-size 36864",
        ] {
            parse(&argv(&format!("run {args}"))).expect(args);
        }
        // A cohort accesses at most 2^16 pages.
        for args in [
            "--db-size 34359738360 --cohort-size 2000000000 --zipf 0.9",
            "--db-size 24000000000 --cohort-size 2000000000",
            "--db-size 800000 --cohort-size 43692",
        ] {
            let e = parse(&argv(&format!("run {args}"))).unwrap_err();
            assert!(e.0.contains("at most 65536 pages"), "{args}: {e}");
        }
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
            let cmd = Command::Run {
                cfg,
                protocol,
                seed,
                format: ReportFormat::Json,
                trace_out: None,
                series_out: None,
                series_cfg,
            };
            execute(cmd, &mut io::sink())
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
        // The help text renders FailureConfig::KEYS verbatim, so
        // the parser vocabulary and the documentation cannot drift.
        for k in FailureConfig::KEYS {
            assert!(USAGE.contains(k.key), "usage missing fault key {}", k.key);
            assert!(
                USAGE.contains(k.help),
                "usage missing fault desc {}",
                k.help
            );
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
            execute(
                parse(&argv(&cmd)).expect("the path text differs"),
                &mut io::sink(),
            )
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
