//! Ready-made experiment presets — one per table/figure of the paper's
//! evaluation section (§5). See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for the paper-vs-measured record.
//!
//! Every preset is a row of [`PRESETS`] whose experiments are [`Plan`]
//! rows: a configuration, its protocol lines and at most one varied
//! parameter. [`Plan::run`] sweeps a plan into an [`Experiment`]: a set
//! of series over the multiprogramming level, carrying full
//! [`SimReport`]s so a single sweep yields the throughput figure *and*
//! the companion block- and borrow-ratio figures (the paper plots them
//! from the same runs).

use crate::config::{ConfigError, FailureConfig, RestartPolicy, SystemConfig, TransType, Zipf};
use crate::engine::{Observers, RunError, Series, SeriesConfig, SeriesOut, Simulation};
use crate::metrics::SimReport;
use crate::output::Metric;
use crate::runner;
use commitproto::{ProtocolSpec, ProtocolSpec as P};
use simkernel::SimDuration;

/// Run-length scaling for an experiment sweep.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Warm-up commits per run.
    pub warmup: u64,
    /// Measured commits per run.
    pub measured: u64,
    /// MPL values to sweep (the paper's x-axis, 1..10).
    pub mpls: Vec<u32>,
    /// Base RNG seed; each (protocol, MPL, replication) cell derives
    /// its own via [`cell_seed`].
    pub seed: u64,
    /// Independent replications per (protocol, MPL) cell. Each runs
    /// with its own derived seed; results are merged by
    /// [`SimReport::merge_replications`], so with 2 or more the
    /// throughput confidence interval is computed across replications.
    /// 1 (the default) is bit-identical to the pre-replication sweep;
    /// a sweep rejects 0 and anything above [`MAX_REPLICATIONS`].
    pub replications: u32,
    /// Worker threads for the sweep: `None` defers to
    /// [`runner::default_jobs`] (the available cores). Results are
    /// identical for every value — parallelism changes wall-clock
    /// time, never numbers.
    pub jobs: Option<usize>,
}

impl Scale {
    /// Quick scale: the `distcommit experiment` default and CI's.
    pub fn quick() -> Self {
        Scale {
            warmup: 400,
            measured: 4_000,
            mpls: (1..=10).collect(),
            seed: 42,
            replications: 1,
            jobs: None,
        }
    }

    /// Paper scale: "each experiment having been run until at least
    /// 50000 transactions were processed by the system".
    pub fn full() -> Self {
        Scale {
            warmup: 2_000,
            measured: 50_000,
            mpls: (1..=10).collect(),
            seed: 42,
            replications: 1,
            jobs: None,
        }
    }

    /// Set the per-run length: `warmup` commits before statistics,
    /// then `measured` commits in the window. Chainable, so scales
    /// compose from a preset: `Scale::quick().with_runs(100, 1_000)`.
    #[must_use]
    pub fn with_runs(mut self, warmup: u64, measured: u64) -> Self {
        self.warmup = warmup;
        self.measured = measured;
        self
    }

    /// Set the MPL axis.
    #[must_use]
    pub fn with_mpls(mut self, mpls: Vec<u32>) -> Self {
        self.mpls = mpls;
        self
    }

    /// Set the base RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the replication count per (protocol, MPL) cell.
    #[must_use]
    pub fn with_replications(mut self, replications: u32) -> Self {
        self.replications = replications;
        self
    }

    /// Set the worker-thread count (`None` lets the runner pick).
    #[must_use]
    pub fn with_jobs(mut self, jobs: Option<usize>) -> Self {
        self.jobs = jobs;
        self
    }

    fn apply(&self, cfg: &SystemConfig) -> SystemConfig {
        let mut cfg = cfg.clone();
        cfg.run.warmup_transactions = self.warmup;
        cfg.run.measured_transactions = self.measured;
        cfg
    }
}

/// One protocol's sweep over MPL.
#[derive(Debug, Clone)]
pub struct ProtocolSeries {
    /// Display label (protocol name, possibly with a parameter suffix
    /// such as `"OPT p=5%"` in the surprise-abort experiment).
    pub label: String,
    /// One report per MPL value, in sweep order.
    pub points: Vec<SimReport>,
}

impl ProtocolSeries {
    /// Peak (maximum) throughput over the sweep — the paper's headline
    /// comparison metric.
    pub fn peak_throughput(&self) -> f64 {
        self.points.iter().map(|r| r.throughput).fold(0.0, f64::max)
    }

    /// The MPL at which the peak occurs.
    pub fn peak_mpl(&self) -> u32 {
        self.points
            .iter()
            .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
            .map(|r| r.mpl)
            .unwrap_or(0)
    }
}

/// A complete experiment: several protocol series over one workload.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Short id (`"fig1"`, `"fig3a"`, ...), matching DESIGN.md.
    pub id: String,
    /// Human title as in the paper's figure caption.
    pub title: String,
    /// The configuration common to all series (MPL varies per point).
    pub config: SystemConfig,
    /// The per-protocol sweeps.
    pub series: Vec<ProtocolSeries>,
}

impl Experiment {
    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&ProtocolSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// MPL axis of the experiment.
    pub fn mpls(&self) -> Vec<u32> {
        self.series
            .first()
            .map(|s| s.points.iter().map(|r| r.mpl).collect())
            .unwrap_or_default()
    }
}

/// The most replications a sweep cell takes: [`cell_seed`] keeps each
/// replication index in 16 bits.
pub const MAX_REPLICATIONS: u32 = u16::MAX as u32;

/// Seed for one (series, MPL-index, replication) cell of a sweep grid.
///
/// The three indices occupy disjoint bit ranges of the base seed and
/// the XOR is finalized with a bijective mixer, so distinct cells can
/// never share a seed (see `simkernel::rng::mix_seed`) — replications
/// are genuinely independent and adding a replication never perturbs
/// any other cell's stream.
pub fn cell_seed(base: u64, series: usize, mpl_index: usize, replication: u32) -> u64 {
    simkernel::mix_seed(base, series as u64, mpl_index as u64, replication as u64)
}

/// Sweep `specs` over the scale's MPL axis. Each spec carries its own
/// full configuration; the scale sets run length and MPL per cell.
///
/// Every (protocol, MPL, replication) cell is an independent
/// [`Simulation::run`] with its own [`cell_seed`]; the grid is executed
/// on [`runner::run_ordered`] worker threads (`scale.jobs`) and
/// reassembled in grid order, so the returned series — and anything
/// rendered from them — are byte-identical for any worker count.
/// Replications of a cell are merged with
/// [`SimReport::merge_replications`].
pub fn sweep(
    specs: &[(String, ProtocolSpec, SystemConfig)],
    scale: &Scale,
) -> Result<Vec<ProtocolSeries>, ConfigError> {
    run_grid(specs, scale, Simulation::run, |_, _, _, report| report)
}

/// One grid cell's windowed metric series from [`sweep_with_series`].
#[derive(Debug, Clone)]
pub struct SeriesCell {
    /// Series label (protocol name or parameterized variant).
    pub label: String,
    /// Per-site multiprogramming level of the cell.
    pub mpl: u32,
    /// Replication index within the (series, MPL) cell.
    pub replication: u32,
    /// The cell's windowed series.
    pub series: Series,
}

/// Like [`sweep`], but every cell additionally records a windowed
/// metric time series via [`Simulation::run_observed`].
///
/// Returns the merged per-protocol report series (identical to what
/// [`sweep`] returns for the same inputs — recording does not perturb
/// a run) plus one [`SeriesCell`] per grid cell in grid order:
/// series-major, then MPL, then replication. Replications are *not*
/// merged on the series side — windows are per-run observations, so
/// each replication keeps its own cell. Like [`sweep`], the grid runs
/// on [`runner::run_ordered`] workers and both return values are
/// byte-identical for any worker count.
///
/// # Errors
/// Propagates the first cell's [`ConfigError`], like [`sweep`].
pub fn sweep_with_series(
    specs: &[(String, ProtocolSpec, SystemConfig)],
    scale: &Scale,
    series_cfg: &SeriesConfig,
) -> Result<(Vec<ProtocolSeries>, Vec<SeriesCell>), ConfigError> {
    let mut cells = Vec::new();
    let series = run_grid(
        specs,
        scale,
        |cfg, spec, seed| {
            let mut series = Series::default();
            let obs = Observers {
                trace: None,
                series: Some((*series_cfg, SeriesOut::Buffer(&mut series))),
            };
            let report = Simulation::run_observed(cfg, spec, seed, obs);
            Ok((report.map_err(RunError::into_config)?, series))
        },
        |label, mpl, replication, (report, series)| {
            cells.push(SeriesCell {
                label: label.to_string(),
                mpl,
                replication,
                series,
            });
            report
        },
    )?;
    Ok((series, cells))
}

/// The grid runner behind [`sweep`] and [`sweep_with_series`]: builds
/// the flat (series, MPL, replication) job grid, fans it out through
/// `run` on [`runner::run_ordered`] workers with progress lines, and
/// walks the results in grid order, handing each cell's output to
/// `keep` (label, MPL, replication index) for the report it
/// contributes to the merged point.
fn run_grid<T: Send>(
    specs: &[(String, ProtocolSpec, SystemConfig)],
    scale: &Scale,
    run: impl Fn(&SystemConfig, ProtocolSpec, u64) -> Result<T, ConfigError> + Sync,
    mut keep: impl FnMut(&str, u32, u32, T) -> SimReport,
) -> Result<Vec<ProtocolSeries>, ConfigError> {
    let reps = scale.replications;
    if !(1..=MAX_REPLICATIONS).contains(&reps) {
        return Err(ConfigError::Invalid(
            "replications must be between 1 and 65535",
        ));
    }

    // Flat job grid in output order: series-major, then MPL, then
    // replication.
    let mut grid: Vec<(SystemConfig, ProtocolSpec, u64)> =
        Vec::with_capacity(specs.len() * scale.mpls.len() * reps as usize);
    for (si, (_, spec, cfg)) in specs.iter().enumerate() {
        for (mi, &mpl) in scale.mpls.iter().enumerate() {
            let mut cell_cfg = scale.apply(cfg);
            cell_cfg.mpl = mpl;
            for rep in 0..reps {
                grid.push((cell_cfg.clone(), *spec, cell_seed(scale.seed, si, mi, rep)));
            }
        }
    }

    let jobs = runner::resolve_jobs(scale.jobs);
    let progress = runner::Progress::new("sweep", grid.len());
    let results = runner::run_ordered(&grid, jobs, |(cell_cfg, spec, seed)| {
        let t0 = std::time::Instant::now();
        let out = run(cell_cfg, *spec, *seed);
        progress.cell_done(
            &format!("{} mpl {} seed {}", spec.name(), cell_cfg.mpl, seed),
            t0.elapsed().as_secs_f64(),
        );
        out
    });

    let mut it = results.into_iter();
    let mut out = Vec::with_capacity(specs.len());
    for (label, _, _) in specs {
        let mut points = Vec::with_capacity(scale.mpls.len());
        for &mpl in &scale.mpls {
            let cell = (0..reps)
                .map(|rep| {
                    let result = it.next().expect("grid covers every cell")?;
                    Ok(keep(label, mpl, rep, result))
                })
                .collect::<Result<Vec<_>, ConfigError>>()?;
            points.push(SimReport::merge_replications(&cell));
        }
        out.push(ProtocolSeries {
            label: label.clone(),
            points,
        });
    }
    Ok(out)
}

/// One protocol line of a [`Plan`]: its label (empty for the
/// protocol's own name), the protocol, and the replication degree F it
/// runs at.
pub type Line = (&'static str, ProtocolSpec, u32);

/// One value of a plan's varied parameter: its label and how it is set
/// on the plan's configuration.
pub type Value = (&'static str, fn(&mut SystemConfig));

/// One experiment of a [`Preset`]: a configuration, the protocol lines
/// run on it, and at most one parameter varied besides MPL and
/// protocol.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Experiment id (`"fig1"`, `"fig3a"`, ...), matching DESIGN.md.
    pub id: &'static str,
    /// Human title as in the paper's figure caption.
    pub title: &'static str,
    /// The configuration common to every series.
    pub config: fn() -> SystemConfig,
    /// The protocol lines, in series order.
    pub lines: &'static [Line],
    /// Name of the varied parameter; empty labels a series by the
    /// value alone.
    pub knob: &'static str,
    /// The varied parameter's labelled values; empty varies nothing.
    pub values: &'static [Value],
    /// Run at the configuration's MPL whatever the scale's MPL axis
    /// says, for plans that vary something else instead.
    pub pin_mpl: bool,
}

/// What most plans share: the baseline, nothing varied, the scale's
/// MPL axis.
const PLAN: Plan = Plan {
    id: "",
    title: "",
    config: SystemConfig::paper_baseline,
    lines: &[],
    knob: "",
    values: &[],
    pin_mpl: false,
};

impl Plan {
    /// Sweep the plan at `scale`: one series per (value, line), values
    /// outside and lines inside, labelled `"<line> <knob>=<value>"`,
    /// `"<line> <value>"` for an unnamed knob, or `"<line>"` when
    /// nothing varies.
    pub fn run(&self, scale: &Scale) -> Result<Experiment, ConfigError> {
        let config = (self.config)();
        let unvaried: &[Value] = &[("", |_| {})];
        let values = if self.values.is_empty() {
            unvaried
        } else {
            self.values
        };
        let mut cells = Vec::with_capacity(values.len() * self.lines.len());
        for &(value, set) in values {
            let mut cfg = config.clone();
            set(&mut cfg);
            for &(line, spec, f) in self.lines {
                let line = if line.is_empty() { spec.name() } else { line };
                let label = match (self.knob, value) {
                    (_, "") => line.to_string(),
                    ("", value) => format!("{line} {value}"),
                    (knob, value) => format!("{line} {knob}={value}"),
                };
                cells.push((label, spec, cfg.clone().with_replication(f)));
            }
        }
        let mut scale = scale.clone();
        if self.pin_mpl {
            scale.mpls = vec![config.mpl];
        }
        Ok(Experiment {
            id: self.id.into(),
            title: self.title.into(),
            series: sweep(&cells, &scale)?,
            config,
        })
    }
}

/// Lines for `specs` under their own names, unreplicated.
const fn protocols<const N: usize>(specs: [ProtocolSpec; N]) -> [Line; N] {
    let mut lines = [("", ProtocolSpec::CENT, 0); N];
    let mut i = 0;
    while i < N {
        lines[i].1 = specs[i];
        i += 1;
    }
    lines
}

/// [`FailureConfig::master_crashes`] at crash probability `p`.
fn crashes(p: f64) -> Option<FailureConfig> {
    Some(FailureConfig::master_crashes(p))
}

/// One `distcommit experiment` preset: the id the command takes, the
/// experiments it runs, and the metrics the paper plots from them. The
/// CLI prints one table (or CSV block) per metric for every experiment
/// of the preset, in plan order.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Command-line id (`distcommit experiment <id>`).
    pub id: &'static str,
    /// The preset's experiments, in print order.
    pub plans: &'static [Plan],
    /// The metrics reported for every experiment of the preset.
    pub metrics: &'static [Metric],
}

impl Preset {
    /// Run the preset's plans at `scale`, in order.
    pub fn build(&self, scale: &Scale) -> Result<Vec<Experiment>, ConfigError> {
        self.plans.iter().map(|plan| plan.run(scale)).collect()
    }
}

/// The lines of Figures 1 and 2: both baselines, the four classical
/// protocols, and OPT.
const FIG12: &[Line] = &protocols([
    P::CENT,
    P::DPCC,
    P::TWO_PC,
    P::PA,
    P::PC,
    P::THREE_PC,
    P::OPT_2PC,
]);

/// Figure 3's lines: Figure 1's plus OPT-PC.
const FIG3: &[Line] = &protocols([
    P::CENT,
    P::DPCC,
    P::TWO_PC,
    P::PA,
    P::PC,
    P::THREE_PC,
    P::OPT_2PC,
    P::OPT_PC,
]);
const FIG4: &[Line] = &protocols([P::TWO_PC, P::THREE_PC, P::OPT_2PC, P::OPT_3PC]);
const FIG5: &[Line] = &protocols([P::TWO_PC, P::PA, P::OPT_2PC, P::OPT_PA]);
const LINEAR: &[Line] = &protocols([P::TWO_PC, P::LINEAR_2PC, P::OPT_2PC, P::OPT_LINEAR_2PC]);

/// Figure 5's cohort NO-vote probabilities, labelled by the
/// transaction abort probability each gives at DistDegree 3.
const ABORTS: &[Value] = &[
    ("3%", |c| c.cohort_abort_prob = 0.01),
    ("15%", |c| c.cohort_abort_prob = 0.05),
    ("27%", |c| c.cohort_abort_prob = 0.10),
];

/// The metrics of Figures 1–2 and Experiment 3.
const CONTENTION: &[Metric] = &[Metric::Throughput, Metric::BlockRatio, Metric::BorrowRatio];

/// The protocol set of Figures 1 and 2.
pub fn figure12_protocols() -> Vec<ProtocolSpec> {
    FIG12.iter().map(|&(_, spec, _)| spec).collect()
}

/// **Experiment 1 / Figures 1a–1c**: the `fig1` preset's one plan.
pub fn fig1(scale: &Scale) -> Result<Experiment, ConfigError> {
    preset("fig1").expect("fig1 is a preset").plans[0].run(scale)
}

/// Every experiment preset, in usage order — the single source of the
/// ids `distcommit experiment` accepts and of the experiments each
/// runs. DESIGN.md §4 indexes them against the paper.
#[rustfmt::skip]
pub static PRESETS: &[Preset] = &[
    // Figures 1a–1c (throughput, block ratio, borrow ratio): resource
    // and data contention on the reconstructed Table 2 baseline.
    Preset { id: "fig1", metrics: CONTENTION, plans: &[
        Plan { id: "fig1", title: "Expt 1: Resource and Data Contention (RC+DC)",
               lines: FIG12, ..PLAN },
    ] },
    // Figures 2a–2c: the same workload on infinite resources (§5.3).
    Preset { id: "fig2", metrics: CONTENTION, plans: &[
        Plan { id: "fig2", title: "Expt 2: Pure Data Contention (DC)",
               config: SystemConfig::pure_data_contention, lines: FIG12, ..PLAN },
    ] },
    // Experiment 3 (§5.4; graphs in the companion TR): MsgCPU = 1 ms
    // under both regimes.
    Preset { id: "expt3", metrics: CONTENTION, plans: &[
        Plan { id: "expt3-rcdc", title: "Expt 3: Fast Network Interface (RC+DC, MsgCPU = 1 ms)",
               config: || SystemConfig::paper_baseline().fast_network(),
               lines: FIG12, ..PLAN },
        Plan { id: "expt3-dc", title: "Expt 3: Fast Network Interface (DC, MsgCPU = 1 ms)",
               config: || SystemConfig::pure_data_contention().fast_network(),
               lines: FIG12, ..PLAN },
    ] },
    // Figures 3a–3b: six cohorts of three pages (§5.5).
    Preset { id: "fig3", metrics: &[Metric::Throughput, Metric::MessagesPerCommit], plans: &[
        Plan { id: "fig3a", title: "Expt 4 / Fig 3a: Distribution = 6 (RC+DC)",
               config: || SystemConfig::paper_baseline().higher_distribution(),
               lines: FIG3, ..PLAN },
        Plan { id: "fig3b", title: "Expt 4 / Fig 3b: Distribution = 6 (DC)",
               config: || SystemConfig::pure_data_contention().higher_distribution(),
               lines: FIG3, ..PLAN },
    ] },
    // Figures 4a–4b: non-blocking OPT (§5.6).
    Preset { id: "fig4", metrics: &[Metric::Throughput, Metric::BorrowRatio], plans: &[
        Plan { id: "fig4a", title: "Expt 5 / Fig 4a: Non-Blocking (RC+DC)",
               lines: FIG4, ..PLAN },
        Plan { id: "fig4b", title: "Expt 5 / Fig 4b: Non-Blocking (DC)",
               config: SystemConfig::pure_data_contention, lines: FIG4, ..PLAN },
    ] },
    // Figures 5a–5b: surprise aborts (§5.7). Then §5.7's DistDegree 6
    // case, heavily CPU-bound, where the paper found PA's savings
    // finally "sufficient to make it perform clearly better than 2PC".
    Preset {
        id: "fig5",
        metrics: &[Metric::Throughput, Metric::AbortFraction, Metric::ForcedWritesPerCommit],
        plans: &[
            Plan { id: "fig5a", title: "Expt 6 / Fig 5a: Surprise Aborts (RC+DC)",
                   lines: FIG5, knob: "abort", values: ABORTS, ..PLAN },
            Plan { id: "fig5b", title: "Expt 6 / Fig 5b: Surprise Aborts (DC)",
                   config: SystemConfig::pure_data_contention,
                   lines: FIG5, knob: "abort", values: ABORTS, ..PLAN },
            Plan { id: "expt6x",
                   title: "Expt 6 extension: Surprise Aborts at DistDegree = 6 (RC+DC)",
                   config: || SystemConfig::paper_baseline().higher_distribution()
                       .with_cohort_abort_prob(0.10),
                   lines: FIG5, ..PLAN },
        ],
    },
    // §5.8: cohorts execute one after another, so the commit share of
    // a transaction, and the protocol differences, shrink.
    Preset { id: "seq", metrics: &[Metric::Throughput, Metric::ResponseTime], plans: &[
        Plan { id: "seq", title: "§5.8: Sequential Transactions (RC+DC)",
               config: || SystemConfig {
                   trans_type: TransType::Sequential, ..SystemConfig::paper_baseline()
               },
               lines: &protocols([P::CENT, P::DPCC, P::TWO_PC, P::THREE_PC, P::OPT_2PC]),
               ..PLAN },
    ] },
    // §2.4's blocking argument, quantified: a crashed blocking master
    // holds its prepared cohorts' locks for the full recovery time,
    // while 3PC cohorts detect the crash and terminate on their own.
    Preset {
        id: "failures",
        metrics: &[Metric::Throughput, Metric::ResponseTime, Metric::BlockRatio,
                   Metric::MasterCrashes],
        plans: &[
            Plan { id: "failures", title: "Extension: Master Failures — blocking vs non-blocking",
                   lines: &protocols([P::TWO_PC, P::OPT_2PC, P::THREE_PC, P::OPT_3PC]),
                   knob: "crash", values: &[
                       ("0%", |_| {}),
                       ("0.2%", |c| c.failures = crashes(0.002)),
                       ("1%", |c| c.failures = crashes(0.01)),
                       ("5%", |c| c.failures = crashes(0.05)),
                   ],
                   pin_mpl: true, ..PLAN },
        ],
    },
    // Blocked-on-crash time across the blocking spectrum: the 2PC
    // family's tracks the full recovery time, 3PC's stays bounded by
    // detection plus termination rounds, and Paxos Commit fails over
    // to surviving acceptors after detection.
    Preset { id: "faults", metrics: &[Metric::Throughput, Metric::CrashBlockedTime], plans: &[
        Plan { id: "faults", title: "Extension: Blocked Time vs Crash Probability",
               lines: &[("", P::TWO_PC, 0), ("", P::PA, 0), ("", P::PC, 0),
                        ("", P::THREE_PC, 0), ("PAXOS f=1", P::PAXOS, 1)],
               knob: "mc", values: &[
                   ("0.5%", |c| c.failures = crashes(0.005)),
                   ("1%", |c| c.failures = crashes(0.01)),
                   ("2%", |c| c.failures = crashes(0.02)),
                   ("4%", |c| c.failures = crashes(0.04)),
               ],
               pin_mpl: true, ..PLAN },
    ] },
    // A 2PC master replicating its decision to 2F standbys (REP2PC)
    // still blocks its prepared cohorts for the full recovery time —
    // replication protects the decision, not availability — while
    // Paxos Commit at the same F fails over after detection. PAXOS at
    // F = 0 runs plain 2PC's schedule.
    Preset { id: "replication", metrics: &[Metric::Throughput, Metric::CrashBlockedTime], plans: &[
        Plan { id: "replication",
               title: "Extension: Replicated Commit — Paxos Commit vs replicated 2PC",
               lines: &[("", P::TWO_PC, 0), ("PAXOS f=0", P::PAXOS, 0), ("PAXOS f=1", P::PAXOS, 1),
                        ("REP2PC f=1", P::REP_2PC, 1), ("", P::THREE_PC, 0)],
               knob: "crash", values: &[
                   ("0%", |_| {}),
                   ("1%", |c| c.failures = crashes(0.01)),
                   ("5%", |c| c.failures = crashes(0.05)),
               ],
               pin_mpl: true, ..PLAN },
    ] },
    // Chained commit processing (§2.5, and §3.2's OPT synergy note)
    // at the baseline DistDegree 3 and the CPU-bound DistDegree 6.
    Preset { id: "linear", metrics: &[Metric::Throughput, Metric::MessagesPerCommit], plans: &[
        Plan { id: "linear-d3", title: "Linear 2PC at the baseline (RC+DC)",
               lines: LINEAR, ..PLAN },
        Plan { id: "linear-d6", title: "Linear 2PC at DistDegree 6 (RC+DC, CPU-bound)",
               config: || SystemConfig::paper_baseline().higher_distribution(),
               lines: LINEAR, ..PLAN },
    ] },
    // 256 sites at the paper's 1 000 pages/site, so per-site contention
    // stays comparable, under three network/skew mixes: how wire
    // latency, skew and a hot site reorder the 8-site LAN ranking.
    Preset { id: "scale", metrics: &[Metric::Throughput], plans: &[
        Plan { id: "scale",
               title: "Extension: Commit Protocols at Production Scale (256 sites, Zipf, WAN)",
               config: || SystemConfig {
                   num_sites: 256, db_size: 256 * 1_000, ..SystemConfig::paper_baseline()
               },
               lines: &protocols([P::TWO_PC, P::PA, P::PC, P::OPT_2PC]),
               values: &[
                   ("lan uniform", |_| {}),
                   ("wan zipf0.9", |c| {
                       c.zipf = Some(Zipf { theta: 0.9 });
                       c.topology = Some("regions=8,lan-ms=1,wan-ms=40,jitter=0.1".parse()
                           .expect("literal topology"));
                   }),
                   ("wan+hot zipf0.9", |c| {
                       c.zipf = Some(Zipf { theta: 0.9 });
                       c.topology = Some("regions=8,lan-ms=1,wan-ms=40,jitter=0.1,hot=0.2".parse()
                           .expect("literal topology"));
                   }),
               ],
               pin_mpl: true, ..PLAN },
    ] },
    // Ablations of DESIGN.md §2's model-fidelity choices and of the
    // optional §3.2 optimizations, each at its configuration's MPL.
    // Group commit runs log-bound: fast network, 80 000 pages and 4
    // data disks per site.
    Preset {
        id: "ablate",
        metrics: &[Metric::Throughput, Metric::AbortFraction, Metric::BlockRatio,
                   Metric::BorrowRatio, Metric::DataDiskUtilization, Metric::LogDiskUtilization,
                   Metric::WritesPerLogService],
        plans: &[
            Plan { id: "ablate-db", title: "Ablation 1: DBSize (pages/site)",
                   config: || SystemConfig::paper_baseline().with_mpl(6),
                   lines: &protocols([P::TWO_PC, P::OPT_2PC]),
                   knob: "db", values: &[
                       ("250", |c| c.db_size = 250 * c.num_sites as u64),
                       ("500", |c| c.db_size = 500 * c.num_sites as u64),
                       ("1000", |c| c.db_size = 1_000 * c.num_sites as u64),
                       ("2000", |c| c.db_size = 2_000 * c.num_sites as u64),
                       ("4000", |c| c.db_size = 4_000 * c.num_sites as u64),
                   ],
                   pin_mpl: true },
            Plan { id: "ablate-writes", title: "Ablation 2: Deferred-Write Charging",
                   config: || SystemConfig::paper_baseline().with_mpl(4),
                   lines: &protocols([P::TWO_PC, P::OPT_2PC]),
                   knob: "writes", values: &[
                       ("free", |c| c.model_deferred_writes = false),
                       ("charged", |c| c.model_deferred_writes = true),
                   ],
                   pin_mpl: true },
            Plan { id: "ablate-restart", title: "Ablation 3: Restart-Delay Policy",
                   config: || SystemConfig::paper_baseline().with_mpl(8),
                   lines: &protocols([P::TWO_PC]),
                   knob: "restart", values: &[
                       ("adaptive", |c| c.restart_policy = RestartPolicy::AdaptiveResponseTime),
                       ("fixed500ms", |c| c.restart_policy =
                           RestartPolicy::Fixed(SimDuration::from_millis(500))),
                       ("immediate", |c| c.restart_policy = RestartPolicy::Immediate),
                   ],
                   pin_mpl: true },
            Plan { id: "ablate-ro", title: "Ablation 4: Read-Only Optimization (UpdateProb 0.2)",
                   config: || SystemConfig {
                       update_prob: 0.2, ..SystemConfig::paper_baseline().with_mpl(4)
                   },
                   lines: &protocols([P::TWO_PC, P::PA, P::PC, P::OPT_2PC]),
                   knob: "ro", values: &[
                       ("off", |c| c.read_only_optimization = false),
                       ("on", |c| c.read_only_optimization = true),
                   ],
                   pin_mpl: true },
            Plan { id: "ablate-batch", title: "Ablation 5: Group-Commit Batch Cap (log-bound, 3PC)",
                   config: || SystemConfig::paper_baseline().with_mpl(10).fast_network()
                       .with_db_size(80_000).with_data_disks(4),
                   lines: &protocols([P::THREE_PC]),
                   knob: "batch", values: &[
                       ("off", |c| c.group_commit_batch = None),
                       ("2", |c| c.group_commit_batch = Some(2)),
                       ("4", |c| c.group_commit_batch = Some(4)),
                       ("8", |c| c.group_commit_batch = Some(8)),
                       ("16", |c| c.group_commit_batch = Some(16)),
                   ],
                   pin_mpl: true },
        ],
    },
];

/// The preset named `id`, if any.
pub fn preset(id: &str) -> Option<&'static Preset> {
    PRESETS.iter().find(|p| p.id == id)
}

/// Measure the per-committed-transaction overheads in a conflict-free
/// configuration (huge database, MPL 1) — the simulation counterpart of
/// Tables 3 and 4, used to validate the engine against the analytic
/// model.
pub fn measured_overheads(
    dist_degree: u32,
    spec: ProtocolSpec,
    seed: u64,
) -> Result<SimReport, ConfigError> {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.dist_degree = dist_degree;
    cfg.cohort_size = if dist_degree >= 6 { 3 } else { 6 };
    cfg.num_sites = dist_degree.max(3) as usize * 2;
    cfg.db_size = 100_000 * cfg.num_sites as u64; // conflicts vanish
    cfg.mpl = 1;
    cfg.run.warmup_transactions = 50;
    cfg.run.measured_transactions = 500;
    Simulation::run(&cfg, spec, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(
        cfg: &SystemConfig,
        specs: &[ProtocolSpec],
    ) -> Vec<(String, ProtocolSpec, SystemConfig)> {
        specs
            .iter()
            .map(|&s| (s.name().to_string(), s, cfg.clone()))
            .collect()
    }

    fn tiny() -> Scale {
        Scale::quick()
            .with_runs(20, 120)
            .with_mpls(vec![2])
            .with_seed(7)
            .with_jobs(Some(1))
    }

    #[test]
    fn sweep_produces_labeled_series() {
        let cfg = SystemConfig::paper_baseline();
        let specs = plain(&cfg, &[ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC]);
        let series = sweep(&specs, &tiny()).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "2PC");
        assert_eq!(series[1].label, "OPT");
        assert_eq!(series[0].points.len(), 1);
        assert!(series[0].points[0].throughput > 0.0);
    }

    #[test]
    fn experiment_lookup_and_axis() {
        let cfg = SystemConfig::paper_baseline();
        let specs = plain(&cfg, &[ProtocolSpec::TWO_PC]);
        let series = sweep(&specs, &tiny()).unwrap();
        let e = Experiment {
            id: "t".into(),
            title: "t".into(),
            config: cfg,
            series,
        };
        assert!(e.series("2PC").is_some());
        assert!(e.series("nope").is_none());
        assert_eq!(e.mpls(), vec![2]);
    }

    #[test]
    fn peak_throughput_math() {
        let cfg = SystemConfig::paper_baseline();
        let mut scale = tiny();
        scale.mpls = vec![1, 3];
        let specs = plain(&cfg, &[ProtocolSpec::DPCC]);
        let series = sweep(&specs, &scale).unwrap();
        let s = &series[0];
        let peak = s.peak_throughput();
        assert!(s.points.iter().all(|p| p.throughput <= peak));
        assert!(s.points.iter().any(|p| p.mpl == s.peak_mpl()));
    }

    /// The exact same grid run on 1 and on 4 workers must agree on
    /// every number — parallelism is wall-clock only.
    #[test]
    fn sweep_is_invariant_under_worker_count() {
        let cfg = SystemConfig::paper_baseline();
        let specs = plain(&cfg, &[ProtocolSpec::TWO_PC, ProtocolSpec::DPCC]);
        let mut scale = tiny();
        scale.mpls = vec![1, 3];
        scale.replications = 2;
        scale.jobs = Some(1);
        let serial = sweep(&specs, &scale).unwrap();
        scale.jobs = Some(4);
        let parallel = sweep(&specs, &scale).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            for (x, y) in a.points.iter().zip(&b.points) {
                assert_eq!(x.events, y.events);
                assert_eq!(x.committed, y.committed);
                assert_eq!(x.throughput.to_bits(), y.throughput.to_bits());
                assert_eq!(
                    x.throughput_ci.half_width.to_bits(),
                    y.throughput_ci.half_width.to_bits()
                );
            }
        }
    }

    /// One replication must reproduce the plain single-run sweep
    /// bit for bit (`merge_replications` is the identity at n = 1).
    #[test]
    fn single_replication_matches_plain_sweep() {
        let cfg = SystemConfig::paper_baseline();
        let specs = plain(&cfg, &[ProtocolSpec::TWO_PC]);
        let scale = tiny();
        let series = sweep(&specs, &scale).unwrap();
        let direct = {
            let mut c = scale.apply(&cfg);
            c.mpl = scale.mpls[0];
            Simulation::run(&c, ProtocolSpec::TWO_PC, cell_seed(scale.seed, 0, 0, 0)).unwrap()
        };
        assert_eq!(series[0].points[0].events, direct.events);
        assert_eq!(
            series[0].points[0].throughput.to_bits(),
            direct.throughput.to_bits()
        );
    }

    /// Replications merge into one point per MPL, averaged across
    /// genuinely different runs, with a cross-replication CI.
    #[test]
    fn replications_merge_into_one_point_per_mpl() {
        let cfg = SystemConfig::paper_baseline();
        let specs = plain(&cfg, &[ProtocolSpec::TWO_PC]);
        let mut scale = tiny();
        scale.replications = 3;
        let series = sweep(&specs, &scale).unwrap();
        assert_eq!(series[0].points.len(), 1);
        let p = &series[0].points[0];
        assert_eq!(p.throughput_ci.batches, 3);
        assert!(
            p.throughput_ci.half_width > 0.0,
            "distinct seeds must differ"
        );
        // merged point averages the three independent runs
        let singles: Vec<f64> = (0..3)
            .map(|rep| {
                let mut c = scale.apply(&cfg);
                c.mpl = scale.mpls[0];
                Simulation::run(&c, ProtocolSpec::TWO_PC, cell_seed(scale.seed, 0, 0, rep))
                    .unwrap()
                    .throughput
            })
            .collect();
        let mean = singles.iter().sum::<f64>() / 3.0;
        assert!((p.throughput - mean).abs() < 1e-12);
    }

    /// A replication count outside 1..=65 535 is a typed error returned
    /// before any cell runs: the seed keeps only 16 bits of the
    /// replication index.
    #[test]
    fn replication_counts_outside_the_seed_field_are_errors() {
        let specs = plain(&SystemConfig::paper_baseline(), &[ProtocolSpec::TWO_PC]);
        for reps in [0, MAX_REPLICATIONS + 1] {
            let scale = tiny().with_replications(reps);
            let no_cell = |_: &SystemConfig, _, _| -> Result<SimReport, ConfigError> {
                panic!("a cell ran with {reps} replications")
            };
            let e = run_grid(&specs, &scale, no_cell, |_, _, _, r| r).unwrap_err();
            assert!(e.to_string().contains("between 1 and 65535"), "{reps}: {e}");
            assert!(sweep(&specs, &scale).is_err());
        }
    }

    /// Cell seeds never collide across the whole (series, MPL, rep)
    /// grid of the largest preset.
    #[test]
    fn cell_seeds_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for series in 0..16 {
            for mpl_index in 0..10 {
                for rep in 0..8 {
                    assert!(
                        seen.insert(cell_seed(42, series, mpl_index, rep)),
                        "seed collision at ({series}, {mpl_index}, {rep})"
                    );
                }
            }
        }
    }

    #[test]
    fn measured_overheads_runs_clean() {
        let r = measured_overheads(3, ProtocolSpec::TWO_PC, 1).unwrap();
        assert_eq!(r.total_aborts(), 0, "conflict-free config must not abort");
        assert!(r.committed >= 500);
    }

    /// Preset ids are unique and every preset reports throughput
    /// first — the metric its chart and peak summary are drawn from.
    #[test]
    fn preset_table_is_well_formed() {
        let mut ids = std::collections::HashSet::new();
        for p in PRESETS {
            assert!(ids.insert(p.id), "duplicate preset id {}", p.id);
            assert_eq!(p.metrics.first(), Some(&Metric::Throughput), "{}", p.id);
            assert!(std::ptr::eq(preset(p.id).unwrap(), p));
        }
        assert!(preset("nope").is_none());
    }

    /// The scale preset pins MPL, spans 4 protocols × 3 network/skew
    /// mixes, and actually runs at 256 sites.
    #[test]
    fn at_scale_preset_shape() {
        let micro = Scale {
            warmup: 2,
            measured: 10,
            mpls: vec![1, 2],
            seed: 6,
            replications: 1,
            jobs: None,
        };
        let e = preset("scale").unwrap().plans[0].run(&micro).unwrap();
        assert_eq!(e.id, "scale");
        assert_eq!(e.mpls(), vec![4]);
        assert_eq!(e.series.len(), 12);
        assert_eq!(e.config.num_sites, 256);
        assert!(e.series("2PC lan uniform").is_some());
        assert!(e.series("OPT wan+hot zipf0.9").is_some());
        for s in &e.series {
            assert!(s.points[0].throughput > 0.0, "{}", s.label);
        }
    }

    /// The ablate preset runs five experiments, each pinned to its own
    /// MPL, with the series labels EXPERIMENTS.md quotes; group commit
    /// off serves one write per log service and batching serves more.
    #[test]
    fn ablate_preset_shape() {
        let micro = Scale {
            warmup: 5,
            measured: 60,
            mpls: vec![1, 2],
            seed: 8,
            replications: 1,
            jobs: None,
        };
        let exps = preset("ablate").unwrap().build(&micro).unwrap();
        let shape: Vec<(&str, u32, usize)> = exps
            .iter()
            .map(|e| (e.id.as_str(), e.mpls()[0], e.series.len()))
            .collect();
        assert_eq!(
            shape,
            [
                ("ablate-db", 6, 10),
                ("ablate-writes", 4, 4),
                ("ablate-restart", 8, 3),
                ("ablate-ro", 4, 8),
                ("ablate-batch", 10, 5),
            ]
        );
        for (e, label) in exps.iter().zip([
            "OPT db=250",
            "2PC writes=charged",
            "2PC restart=fixed500ms",
            "PA ro=on",
            "3PC batch=16",
        ]) {
            assert_eq!(e.mpls().len(), 1, "{}", e.id);
            assert_eq!(e.config.mpl, e.mpls()[0], "{}", e.id);
            assert!(e.series(label).is_some(), "{}: no {label}", e.id);
        }
        let writes = |label: &str| {
            let s = exps[4].series(label).unwrap();
            Metric::WritesPerLogService.of(&s.points[0])
        };
        assert_eq!(writes("3PC batch=off"), 1.0);
        assert!(["2", "4", "8", "16"]
            .iter()
            .any(|b| writes(&format!("3PC batch={b}")) > 1.0));
    }

    #[test]
    fn fig5_labels_carry_abort_levels() {
        let micro = Scale {
            warmup: 5,
            measured: 30,
            mpls: vec![1],
            seed: 4,
            replications: 1,
            jobs: None,
        };
        let rc = preset("fig5").unwrap().plans[0].run(&micro).unwrap();
        assert!(rc.series("2PC abort=3%").is_some());
        assert!(rc.series("OPT-PA abort=27%").is_some());
    }

    #[test]
    fn failures_preset_pins_mpl() {
        let micro = Scale {
            warmup: 5,
            measured: 30,
            mpls: vec![1, 2, 3],
            seed: 5,
            replications: 1,
            jobs: None,
        };
        let e = preset("failures").unwrap().plans[0].run(&micro).unwrap();
        // the failure sweep intentionally collapses the MPL axis
        assert_eq!(e.mpls(), vec![4]);
        assert!(e.series("2PC crash=0%").is_some());
        assert!(e.series("OPT-3PC crash=5%").is_some());
    }
}
