//! Ready-made experiment presets — one per table/figure of the paper's
//! evaluation section (§5). See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for the paper-vs-measured record.
//!
//! Every preset returns an [`Experiment`]: a set of per-protocol series
//! over the multiprogramming level, carrying full [`SimReport`]s so a
//! single sweep yields the throughput figure *and* the companion block-
//! and borrow-ratio figures (the paper plots them from the same runs).

use crate::config::{ConfigError, SystemConfig, TransType};
use crate::engine::{Observers, RunError, Series, SeriesConfig, SeriesOut, Simulation};
use crate::metrics::SimReport;
use crate::output::Metric;
use crate::runner;
use commitproto::ProtocolSpec;

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
    /// [`runner::default_jobs`] (`DISTCOMMIT_JOBS`, then available
    /// cores). Results are identical for every value — parallelism
    /// changes wall-clock time, never numbers.
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

fn plain(cfg: &SystemConfig, specs: &[ProtocolSpec]) -> Vec<(String, ProtocolSpec, SystemConfig)> {
    specs
        .iter()
        .map(|&s| (s.name().to_string(), s, cfg.clone()))
        .collect()
}

/// The protocol set of Figures 1 and 2: both baselines, the four
/// classical protocols, and OPT.
pub fn figure12_protocols() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::CENT,
        ProtocolSpec::DPCC,
        ProtocolSpec::TWO_PC,
        ProtocolSpec::PA,
        ProtocolSpec::PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_2PC,
    ]
}

/// **Experiment 1 / Figures 1a–1c** — resource *and* data contention:
/// the reconstructed Table 2 baseline, all seven protocol lines.
/// Fig 1a = throughput, Fig 1b = block ratio, Fig 1c = borrow ratio.
pub fn fig1(scale: &Scale) -> Result<Experiment, ConfigError> {
    let cfg = SystemConfig::paper_baseline();
    let series = sweep(&plain(&cfg, &figure12_protocols()), scale)?;
    Ok(Experiment {
        id: "fig1".into(),
        title: "Expt 1: Resource and Data Contention (RC+DC)".into(),
        config: cfg,
        series,
    })
}

/// **Experiment 2 / Figures 2a–2c** — pure data contention: identical
/// workload but infinite physical resources (§5.3).
pub fn fig2(scale: &Scale) -> Result<Experiment, ConfigError> {
    let cfg = SystemConfig::pure_data_contention();
    let series = sweep(&plain(&cfg, &figure12_protocols()), scale)?;
    Ok(Experiment {
        id: "fig2".into(),
        title: "Expt 2: Pure Data Contention (DC)".into(),
        config: cfg,
        series,
    })
}

/// **Experiment 3** — fast network interface (`MsgCPU` = 1 ms, §5.4),
/// under RC+DC and under pure DC. The paper discusses this experiment
/// in prose (graphs are in the companion TR), so the harness prints
/// both regimes.
pub fn expt3(scale: &Scale) -> Result<(Experiment, Experiment), ConfigError> {
    let protocols = figure12_protocols();
    let rc = SystemConfig::paper_baseline().fast_network();
    let dc = SystemConfig::pure_data_contention().fast_network();
    let rc_series = sweep(&plain(&rc, &protocols), scale)?;
    let dc_series = sweep(&plain(&dc, &protocols), scale)?;
    Ok((
        Experiment {
            id: "expt3-rcdc".into(),
            title: "Expt 3: Fast Network Interface (RC+DC, MsgCPU = 1 ms)".into(),
            config: rc,
            series: rc_series,
        },
        Experiment {
            id: "expt3-dc".into(),
            title: "Expt 3: Fast Network Interface (DC, MsgCPU = 1 ms)".into(),
            config: dc,
            series: dc_series,
        },
    ))
}

/// **Experiment 4 / Figures 3a–3b** — higher degree of distribution:
/// six cohorts of three pages (§5.5), with OPT-PC added to the lineup.
pub fn fig3(scale: &Scale) -> Result<(Experiment, Experiment), ConfigError> {
    let mut protocols = figure12_protocols();
    protocols.push(ProtocolSpec::OPT_PC);
    let rc = SystemConfig::paper_baseline().higher_distribution();
    let dc = SystemConfig::pure_data_contention().higher_distribution();
    let rc_series = sweep(&plain(&rc, &protocols), scale)?;
    let dc_series = sweep(&plain(&dc, &protocols), scale)?;
    Ok((
        Experiment {
            id: "fig3a".into(),
            title: "Expt 4 / Fig 3a: Distribution = 6 (RC+DC)".into(),
            config: rc,
            series: rc_series,
        },
        Experiment {
            id: "fig3b".into(),
            title: "Expt 4 / Fig 3b: Distribution = 6 (DC)".into(),
            config: dc,
            series: dc_series,
        },
    ))
}

/// **Experiment 5 / Figures 4a–4b** — non-blocking OPT: 2PC, 3PC, OPT
/// and OPT-3PC under RC+DC and pure DC (§5.6).
pub fn fig4(scale: &Scale) -> Result<(Experiment, Experiment), ConfigError> {
    let protocols = vec![
        ProtocolSpec::TWO_PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::OPT_3PC,
    ];
    let rc = SystemConfig::paper_baseline();
    let dc = SystemConfig::pure_data_contention();
    let rc_series = sweep(&plain(&rc, &protocols), scale)?;
    let dc_series = sweep(&plain(&dc, &protocols), scale)?;
    Ok((
        Experiment {
            id: "fig4a".into(),
            title: "Expt 5 / Fig 4a: Non-Blocking (RC+DC)".into(),
            config: rc,
            series: rc_series,
        },
        Experiment {
            id: "fig4b".into(),
            title: "Expt 5 / Fig 4b: Non-Blocking (DC)".into(),
            config: dc,
            series: dc_series,
        },
    ))
}

/// **Experiment 6 / Figures 5a–5b** — surprise aborts (§5.7): cohorts
/// vote NO with probability 1%, 5% or 10% (≈ 3%, 15%, 27% transaction
/// abort probability at `DistDegree` 3), for 2PC, PA, OPT and OPT-PA.
pub fn fig5(scale: &Scale) -> Result<(Experiment, Experiment), ConfigError> {
    let protocols = [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::PA,
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::OPT_PA,
    ];
    let probs = [(0.01, "3%"), (0.05, "15%"), (0.10, "27%")];
    let build = |base: SystemConfig| -> Vec<(String, ProtocolSpec, SystemConfig)> {
        let mut specs = Vec::new();
        for &(p, label) in &probs {
            for spec in protocols {
                let mut cfg = base.clone();
                cfg.cohort_abort_prob = p;
                specs.push((format!("{} abort={}", spec.name(), label), spec, cfg));
            }
        }
        specs
    };
    let rc = SystemConfig::paper_baseline();
    let dc = SystemConfig::pure_data_contention();
    let rc_series = sweep(&build(rc.clone()), scale)?;
    let dc_series = sweep(&build(dc.clone()), scale)?;
    Ok((
        Experiment {
            id: "fig5a".into(),
            title: "Expt 6 / Fig 5a: Surprise Aborts (RC+DC)".into(),
            config: rc,
            series: rc_series,
        },
        Experiment {
            id: "fig5b".into(),
            title: "Expt 6 / Fig 5b: Surprise Aborts (DC)".into(),
            config: dc,
            series: dc_series,
        },
    ))
}

/// **§5.7 extension** — PA vs 2PC under surprise aborts at a *higher
/// degree of distribution* (heavily CPU-bound), where the paper found
/// PA's savings finally "sufficient to make it perform clearly better
/// than 2PC".
pub fn expt6_high_distribution(scale: &Scale) -> Result<Experiment, ConfigError> {
    let mut cfg = SystemConfig::paper_baseline().higher_distribution();
    cfg.cohort_abort_prob = 0.10;
    let protocols = [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::PA,
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::OPT_PA,
    ];
    let series = sweep(&plain(&cfg, &protocols), scale)?;
    Ok(Experiment {
        id: "expt6x".into(),
        title: "Expt 6 extension: Surprise Aborts at DistDegree = 6 (RC+DC)".into(),
        config: cfg,
        series,
    })
}

/// **§5.8** — sequential transactions: the same baseline with cohorts
/// executing one after another; protocol differences shrink because the
/// commit-to-execution ratio drops.
pub fn seq(scale: &Scale) -> Result<Experiment, ConfigError> {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.trans_type = TransType::Sequential;
    let protocols = vec![
        ProtocolSpec::CENT,
        ProtocolSpec::DPCC,
        ProtocolSpec::TWO_PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_2PC,
    ];
    let series = sweep(&plain(&cfg, &protocols), scale)?;
    Ok(Experiment {
        id: "seq".into(),
        title: "§5.8: Sequential Transactions (RC+DC)".into(),
        config: cfg,
        series,
    })
}

/// **Linear 2PC extension** (§2.5, and the §3.2 OPT synergy note) —
/// chained commit processing against the parallel protocols, with and
/// without OPT, at the baseline `DistDegree` 3 and at the CPU-bound
/// `DistDegree` 6 (RC+DC).
pub fn linear(scale: &Scale) -> Result<(Experiment, Experiment), ConfigError> {
    let protocols = [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::LINEAR_2PC,
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::OPT_LINEAR_2PC,
    ];
    let d3 = SystemConfig::paper_baseline();
    let d6 = SystemConfig::paper_baseline().higher_distribution();
    let d3_series = sweep(&plain(&d3, &protocols), scale)?;
    let d6_series = sweep(&plain(&d6, &protocols), scale)?;
    Ok((
        Experiment {
            id: "linear-d3".into(),
            title: "Linear 2PC at the baseline (RC+DC)".into(),
            config: d3,
            series: d3_series,
        },
        Experiment {
            id: "linear-d6".into(),
            title: "Linear 2PC at DistDegree 6 (RC+DC, CPU-bound)".into(),
            config: d6,
            series: d6_series,
        },
    ))
}

/// **Failure extension** (beyond the paper, quantifying §2.4's blocking
/// argument): throughput vs master-crash probability for 2PC, OPT,
/// 3PC and OPT-3PC. Crashed blocking-protocol masters hold their
/// prepared cohorts' locks for the full recovery time; 3PC cohorts
/// detect the crash and terminate on their own.
pub fn failures(scale: &Scale) -> Result<Experiment, ConfigError> {
    use crate::config::FailureConfig;
    let base = SystemConfig::paper_baseline();
    let protocols = [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::OPT_2PC,
        ProtocolSpec::THREE_PC,
        ProtocolSpec::OPT_3PC,
    ];
    let mut specs = Vec::new();
    for &(p, label) in &[(0.0, "0%"), (0.002, "0.2%"), (0.01, "1%"), (0.05, "5%")] {
        for spec in protocols {
            let mut cfg = base.clone();
            if p > 0.0 {
                cfg.failures = Some(FailureConfig::master_crashes(p));
            }
            specs.push((format!("{} crash={}", spec.name(), label), spec, cfg));
        }
    }
    // The failure sweep holds MPL fixed and varies the crash rate, so a
    // single-MPL scale keeps the series readable.
    let mut scale = scale.clone();
    scale.mpls = vec![4];
    let series = sweep(&specs, &scale)?;
    Ok(Experiment {
        id: "failures".into(),
        title: "Extension: Master Failures — blocking vs non-blocking".into(),
        config: base,
        series,
    })
}

/// **Fault-injection extension** — blocked time vs crash probability
/// at a fixed MPL, across the protocol spread that spans the blocking
/// spectrum: 2PC, presumed-abort, presumed-commit, non-blocking 3PC,
/// and Paxos Commit at F = 1. The headline curve is the per-series
/// mean blocked-on-crash time from
/// [`FaultCounters`](crate::metrics::FaultCounters), which makes
/// §2.4's blocking argument measurable: the 2PC family's blocked
/// time tracks the full
/// recovery time and grows with the crash rate, 3PC stays bounded by
/// the detection timeout plus termination rounds, and replicated
/// Paxos Commit fails over to surviving acceptors after detection.
/// The CLI renders this metric as an extra table/CSV block for this
/// preset (`experiment faults [--csv]`).
pub fn fault_injection(scale: &Scale) -> Result<Experiment, ConfigError> {
    use crate::config::FailureConfig;
    let base = SystemConfig::paper_baseline();
    let family: [(&str, ProtocolSpec, u32); 5] = [
        ("2PC", ProtocolSpec::TWO_PC, 0),
        ("PA", ProtocolSpec::PA, 0),
        ("PC", ProtocolSpec::PC, 0),
        ("3PC", ProtocolSpec::THREE_PC, 0),
        ("PAXOS f=1", ProtocolSpec::PAXOS, 1),
    ];
    let mut specs = Vec::new();
    for &(mc, plabel) in &[(0.005, "0.5%"), (0.01, "1%"), (0.02, "2%"), (0.04, "4%")] {
        for (name, spec, f) in family {
            let mut cfg = base.clone().with_replication(f);
            cfg.failures = Some(FailureConfig::master_crashes(mc));
            specs.push((format!("{name} mc={plabel}"), spec, cfg));
        }
    }
    // Like the master-failure sweep, hold MPL fixed and vary the crash
    // rate instead.
    let mut scale = scale.clone();
    scale.mpls = vec![4];
    let series = sweep(&specs, &scale)?;
    Ok(Experiment {
        id: "faults".into(),
        title: "Extension: Blocked Time vs Crash Probability".into(),
        config: base,
        series,
    })
}

/// **Replication extension** — the replicated-shard commit family
/// under master crashes at a fixed MPL. The headline contrast: a 2PC
/// master replicating its decision to 2F standby coordinators
/// (REP2PC) still *blocks* its prepared cohorts for the full recovery
/// time when it crashes — replication protects the decision record,
/// not availability — while Paxos Commit at the same F fails over to
/// the surviving acceptors after the detection timeout, keeping the
/// blocked time bounded. PAXOS at F = 0 runs the same schedule as
/// plain 2PC (the degenerate case), pinning the family to the
/// Tables 3–4 baseline.
pub fn replication(scale: &Scale) -> Result<Experiment, ConfigError> {
    use crate::config::FailureConfig;
    let base = SystemConfig::paper_baseline();
    let family: [(&str, ProtocolSpec, u32); 5] = [
        ("2PC", ProtocolSpec::TWO_PC, 0),
        ("PAXOS f=0", ProtocolSpec::PAXOS, 0),
        ("PAXOS f=1", ProtocolSpec::PAXOS, 1),
        ("REP2PC f=1", ProtocolSpec::REP_2PC, 1),
        ("3PC", ProtocolSpec::THREE_PC, 0),
    ];
    let mut specs = Vec::new();
    for &(p, plabel) in &[(0.0, "0%"), (0.01, "1%"), (0.05, "5%")] {
        for (label, spec, f) in family {
            let mut cfg = base.clone().with_replication(f);
            if p > 0.0 {
                cfg.failures = Some(FailureConfig::master_crashes(p));
            }
            specs.push((format!("{label} crash={plabel}"), spec, cfg));
        }
    }
    // Like the other failure sweeps: hold MPL fixed, vary the crash
    // rate across the family.
    let mut scale = scale.clone();
    scale.mpls = vec![4];
    let series = sweep(&specs, &scale)?;
    Ok(Experiment {
        id: "replication".into(),
        title: "Extension: Replicated Commit — Paxos Commit vs replicated 2PC".into(),
        config: base,
        series,
    })
}

/// **Scale extension** (ROADMAP item 2) — commit protocols at
/// production scale: 256 sites at the paper's page density, Zipf-skewed
/// page access, and a two-class LAN/WAN topology. Each protocol runs
/// under three network/skew mixes at a fixed MPL, so the rendered
/// ranking shows how wire latency, contention skew, and a hot site
/// reorder the paper's 8-site LAN-era conclusions.
pub fn at_scale(scale: &Scale) -> Result<Experiment, ConfigError> {
    use crate::config::{Topology, Zipf};
    let mut base = SystemConfig::paper_baseline();
    base.num_sites = 256;
    // Keep the paper's 1000 pages/site so per-site contention is
    // comparable; the *global* database is 32× the baseline.
    base.db_size = 1_000 * base.num_sites as u64;
    let wan: Topology = "regions=8,lan-ms=1,wan-ms=40,jitter=0.1"
        .parse()
        .expect("literal topology");
    let hot = Topology {
        hot_site_prob: 0.2,
        ..wan
    };
    let protocols = [
        ProtocolSpec::TWO_PC,
        ProtocolSpec::PA,
        ProtocolSpec::PC,
        ProtocolSpec::OPT_2PC,
    ];
    let mixes: [(&str, Option<Topology>, Option<Zipf>); 3] = [
        ("lan uniform", None, None),
        ("wan zipf0.9", Some(wan), Some(Zipf { theta: 0.9 })),
        ("wan+hot zipf0.9", Some(hot), Some(Zipf { theta: 0.9 })),
    ];
    let mut specs = Vec::new();
    for (label, topo, zipf) in mixes {
        for spec in protocols {
            let mut cfg = base.clone();
            cfg.topology = topo;
            cfg.zipf = zipf;
            specs.push((format!("{} {}", spec.name(), label), spec, cfg));
        }
    }
    // Like the failure sweeps: hold MPL fixed, vary the mix.
    let mut scale = scale.clone();
    scale.mpls = vec![4];
    let series = sweep(&specs, &scale)?;
    Ok(Experiment {
        id: "scale".into(),
        title: "Extension: Commit Protocols at Production Scale (256 sites, Zipf, WAN)".into(),
        config: base,
        series,
    })
}

/// **Ablations** of the model-fidelity choices DESIGN.md §2 defends
/// and of the optional §3.2 optimizations, one fixed-MPL experiment
/// each:
///
/// 1. `DBSize`, the data-contention knob: 250–4 000 pages/site, 2PC vs
///    OPT at MPL 6;
/// 2. charging the deferred post-commit writes to the data disks, off
///    and on, at MPL 4;
/// 3. the restart delay — §4's adaptive heuristic, a fixed 500 ms, or
///    none — for 2PC at MPL 8;
/// 4. the Read-Only optimization at `UpdateProb` 0.2, MPL 4;
/// 5. the group-commit batch cap for 3PC in a log-bound configuration
///    (fast network, 80 000 pages, 4 data disks per site) at MPL 10.
pub fn ablate(scale: &Scale) -> Result<Vec<Experiment>, ConfigError> {
    use crate::config::RestartPolicy;
    use simkernel::SimDuration;
    let at = |mpl| SystemConfig::paper_baseline().with_mpl(mpl);
    let (two, opt) = (ProtocolSpec::TWO_PC, ProtocolSpec::OPT_2PC);
    let pages = [
        ("250", 250),
        ("500", 500),
        ("1000", 1_000),
        ("2000", 2_000),
        ("4000", 4_000),
    ];
    let restarts = [
        ("adaptive", RestartPolicy::AdaptiveResponseTime),
        (
            "fixed500ms",
            RestartPolicy::Fixed(SimDuration::from_millis(500)),
        ),
        ("immediate", RestartPolicy::Immediate),
    ];
    let batches = [
        ("off", None),
        ("2", Some(2)),
        ("4", Some(4)),
        ("8", Some(8)),
        ("16", Some(16)),
    ];
    Ok(vec![
        ablation(
            "Ablation 1: DBSize (pages/site)",
            at(6),
            ("db", &pages, |c, n| c.db_size = n * c.num_sites as u64),
            &[two, opt],
            scale,
        )?,
        ablation(
            "Ablation 2: Deferred-Write Charging",
            at(4),
            ("writes", &[("free", false), ("charged", true)], |c, on| {
                c.model_deferred_writes = on
            }),
            &[two, opt],
            scale,
        )?,
        ablation(
            "Ablation 3: Restart-Delay Policy",
            at(8),
            ("restart", &restarts, |c, p| c.restart_policy = p),
            &[two],
            scale,
        )?,
        ablation(
            "Ablation 4: Read-Only Optimization (UpdateProb 0.2)",
            SystemConfig {
                update_prob: 0.2,
                ..at(4)
            },
            ("ro", &[("off", false), ("on", true)], |c, on| {
                c.read_only_optimization = on
            }),
            &[two, ProtocolSpec::PA, ProtocolSpec::PC, opt],
            scale,
        )?,
        ablation(
            "Ablation 5: Group-Commit Batch Cap (log-bound, 3PC)",
            at(10)
                .fast_network()
                .with_db_size(80_000)
                .with_data_disks(4),
            ("batch", &batches, |c, b| c.group_commit_batch = b),
            &[ProtocolSpec::THREE_PC],
            scale,
        )?,
    ])
}

/// One knob of an ablation: its name, its labelled values, and how a
/// value is set on a configuration.
type Knob<'a, T> = (&'a str, &'a [(&'a str, T)], fn(&mut SystemConfig, T));

/// Ablation `ablate-<knob>`: every protocol in `specs` over `base` with
/// the knob set to each of its values, as series
/// `"<protocol> <knob>=<label>"`, at `base`'s MPL whatever the scale's
/// MPL axis says.
fn ablation<T: Copy>(
    title: &str,
    base: SystemConfig,
    (knob, values, set): Knob<'_, T>,
    specs: &[ProtocolSpec],
    scale: &Scale,
) -> Result<Experiment, ConfigError> {
    let mut cells = Vec::new();
    for &(label, value) in values {
        let mut cfg = base.clone();
        set(&mut cfg, value);
        for &spec in specs {
            cells.push((format!("{} {knob}={label}", spec.name()), spec, cfg.clone()));
        }
    }
    let series = sweep(&cells, &scale.clone().with_mpls(vec![base.mpl]))?;
    Ok(Experiment {
        id: format!("ablate-{knob}"),
        title: title.into(),
        config: base,
        series,
    })
}

/// One `distcommit experiment` preset: the id the command takes, the
/// sweeps it runs, and the metrics the paper plots from them. The CLI
/// prints one table (or CSV block) per metric for every experiment the
/// preset builds, in this order.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Command-line id (`distcommit experiment <id>`).
    pub id: &'static str,
    /// Run the preset's sweeps at `scale`.
    pub build: fn(&Scale) -> Result<Vec<Experiment>, ConfigError>,
    /// The metrics reported for every experiment the preset builds.
    pub metrics: &'static [Metric],
}

/// Every experiment preset, in usage order — the single source of the
/// ids `distcommit experiment` accepts.
pub static PRESETS: &[Preset] = &[
    Preset {
        id: "fig1",
        build: |s| Ok(vec![fig1(s)?]),
        metrics: &[Metric::Throughput, Metric::BlockRatio, Metric::BorrowRatio],
    },
    Preset {
        id: "fig2",
        build: |s| Ok(vec![fig2(s)?]),
        metrics: &[Metric::Throughput, Metric::BlockRatio, Metric::BorrowRatio],
    },
    Preset {
        id: "expt3",
        build: |s| expt3(s).map(|(a, b)| vec![a, b]),
        metrics: &[Metric::Throughput, Metric::BlockRatio, Metric::BorrowRatio],
    },
    Preset {
        id: "fig3",
        build: |s| fig3(s).map(|(a, b)| vec![a, b]),
        metrics: &[Metric::Throughput, Metric::MessagesPerCommit],
    },
    Preset {
        id: "fig4",
        build: |s| fig4(s).map(|(a, b)| vec![a, b]),
        metrics: &[Metric::Throughput, Metric::BorrowRatio],
    },
    Preset {
        id: "fig5",
        build: |s| {
            let (a, b) = fig5(s)?;
            Ok(vec![a, b, expt6_high_distribution(s)?])
        },
        metrics: &[
            Metric::Throughput,
            Metric::AbortFraction,
            Metric::ForcedWritesPerCommit,
        ],
    },
    Preset {
        id: "seq",
        build: |s| Ok(vec![seq(s)?]),
        metrics: &[Metric::Throughput, Metric::ResponseTime],
    },
    Preset {
        id: "failures",
        build: |s| Ok(vec![failures(s)?]),
        metrics: &[
            Metric::Throughput,
            Metric::ResponseTime,
            Metric::BlockRatio,
            Metric::MasterCrashes,
        ],
    },
    Preset {
        id: "faults",
        build: |s| Ok(vec![fault_injection(s)?]),
        metrics: &[Metric::Throughput, Metric::CrashBlockedTime],
    },
    Preset {
        id: "replication",
        build: |s| Ok(vec![replication(s)?]),
        metrics: &[Metric::Throughput, Metric::CrashBlockedTime],
    },
    Preset {
        id: "linear",
        build: |s| linear(s).map(|(a, b)| vec![a, b]),
        metrics: &[Metric::Throughput, Metric::MessagesPerCommit],
    },
    Preset {
        id: "scale",
        build: |s| Ok(vec![at_scale(s)?]),
        metrics: &[Metric::Throughput],
    },
    Preset {
        id: "ablate",
        build: ablate,
        metrics: &[
            Metric::Throughput,
            Metric::AbortFraction,
            Metric::BlockRatio,
            Metric::BorrowRatio,
            Metric::DataDiskUtilization,
            Metric::LogDiskUtilization,
            Metric::WritesPerLogService,
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

    /// Every preset constructor produces a well-formed experiment at a
    /// micro scale: the right series labels, one point per MPL, and
    /// positive throughputs.
    #[test]
    fn all_presets_construct() {
        let micro = Scale {
            warmup: 5,
            measured: 40,
            mpls: vec![2],
            seed: 3,
            replications: 1,
            jobs: None,
        };
        let check = |e: &Experiment, min_series: usize| {
            assert!(
                e.series.len() >= min_series,
                "{}: {} series",
                e.id,
                e.series.len()
            );
            for s in &e.series {
                assert_eq!(s.points.len(), 1, "{}/{}", e.id, s.label);
                assert!(s.points[0].throughput > 0.0, "{}/{}", e.id, s.label);
            }
            assert!(!e.title.is_empty());
        };
        check(&fig1(&micro).unwrap(), 7);
        check(&fig2(&micro).unwrap(), 7);
        let (a, b) = expt3(&micro).unwrap();
        check(&a, 7);
        check(&b, 7);
        let (a, b) = fig3(&micro).unwrap();
        check(&a, 8); // + OPT-PC
        check(&b, 8);
        let (a, b) = fig4(&micro).unwrap();
        check(&a, 4);
        check(&b, 4);
        let (a, b) = fig5(&micro).unwrap();
        check(&a, 12); // 4 protocols x 3 abort levels
        check(&b, 12);
        check(&expt6_high_distribution(&micro).unwrap(), 4);
        check(&seq(&micro).unwrap(), 5);
        check(&failures(&micro).unwrap(), 16); // 4 protocols x 4 crash rates
        check(&fault_injection(&micro).unwrap(), 20); // 5 protocols x 4 crash rates
        let (a, b) = linear(&micro).unwrap();
        check(&a, 4);
        check(&b, 4);
        assert_eq!(b.config.dist_degree, 6);
        for e in ablate(&micro).unwrap() {
            check(&e, 3);
        }
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
        let e = at_scale(&micro).unwrap();
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
        let exps = ablate(&micro).unwrap();
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
        let (rc, _) = fig5(&micro).unwrap();
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
        let e = failures(&micro).unwrap();
        // the failure sweep intentionally collapses the MPL axis
        assert_eq!(e.mpls(), vec![4]);
        assert!(e.series("2PC crash=0%").is_some());
        assert!(e.series("OPT-3PC crash=5%").is_some());
    }
}
