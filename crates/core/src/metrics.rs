//! Run metrics and the public simulation report.
//!
//! The paper's primary metric is *transaction throughput* (committed
//! transactions per second); the secondary metrics are the *block
//! ratio* ("the average fraction of transactions that are in the
//! blocked state", Fig 1b/2b) and OPT's *borrow ratio* ("the average
//! number of data items (pages) borrowed per transaction", Fig 1c/2c).
//! We additionally report per-committed-transaction message and
//! forced-write counts — these validate the simulator against the
//! paper's Tables 3 and 4 — plus response times, abort breakdowns and
//! resource utilizations.

use simkernel::stats::{
    BatchMeans, ConfidenceInterval, Counter, DurationHistogram, Tally, TimeWeighted,
};
use simkernel::{SimDuration, SimTime};

use crate::json::Json;

/// Why a transaction incarnation aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Chosen as the youngest victim of a deadlock cycle.
    Deadlock,
    /// A cohort voted NO in the voting phase (§5.7 surprise aborts).
    SurpriseVote,
    /// A lender it had borrowed from aborted (OPT's bounded abort
    /// chain, §3.1).
    BorrowerCascade,
    /// A cohort crashed during the execution phase, before anything
    /// reached stable storage; recovery presumes abort and the
    /// transaction restarts.
    CohortCrash,
}

/// Live accumulation during a run. Reset at the end of warm-up.
#[derive(Debug)]
pub(crate) struct Metrics {
    pub start: SimTime,
    pub committed: Counter,
    pub aborted_deadlock: Counter,
    pub aborted_surprise: Counter,
    pub aborted_borrower: Counter,
    pub aborted_crash: Counter,
    pub exec_messages: Counter,
    pub commit_messages: Counter,
    pub forced_writes: Counter,
    pub borrowed_pages: Counter,
    pub master_crashes: Counter,
    pub cohort_crashes: Counter,
    pub messages_lost: Counter,
    pub retransmissions: Counter,
    pub retry_escalations: Counter,
    pub termination_rounds: Counter,
    pub master_crash_trials: Counter,
    pub cohort_crash_trials: Counter,
    pub message_loss_trials: Counter,
    pub blocked_on_crash_cohorts: Counter,
    /// Per-cohort time spent prepared *and* waiting out a crash, from
    /// the later of (crash instant, prepared instant) to the decision.
    pub crash_block_time: Tally,
    pub response: Tally,
    pub response_hist: DurationHistogram,
    pub attempt_response: Tally,
    pub shelf_time: Tally,
    pub prepared_time: Tally,
    /// Submission → WORKDONE collection complete, committed txns only.
    pub phase_execution: DurationHistogram,
    /// Commit-protocol start → master decision logged.
    pub phase_voting: DurationHistogram,
    /// Master decision → last cohort acknowledged (protocol fully drained).
    pub phase_decision: DurationHistogram,
    /// Running cross-check of measured per-commit overheads against the
    /// analytic model (Tables 3–4).
    pub overhead_check: OverheadCheck,
    pub blocked_txns: TimeWeighted,
    pub live_txns: TimeWeighted,
    pub throughput_batches: BatchMeans,
    batch_size: u64,
    batch_count_in_progress: u64,
    batch_started: SimTime,
    /// Steady-state detection samples: one throughput observation per
    /// `batch_size` commits from t = 0 — warm-up *included*, and never
    /// cleared by [`Metrics::reset`], because the detector has to see
    /// the initial transient to judge whether the warm-up covered it.
    conv_rates: Vec<f64>,
    /// Start time of each convergence sample's batch.
    conv_starts: Vec<SimTime>,
    conv_count_in_progress: u64,
    conv_batch_started: SimTime,
}

impl Metrics {
    pub fn new(now: SimTime, measured: u64, batches: u64) -> Self {
        Self::fresh(now, (measured / batches).max(1))
    }

    fn fresh(now: SimTime, batch_size: u64) -> Self {
        Metrics {
            start: now,
            committed: Counter::default(),
            aborted_deadlock: Counter::default(),
            aborted_surprise: Counter::default(),
            aborted_borrower: Counter::default(),
            aborted_crash: Counter::default(),
            exec_messages: Counter::default(),
            commit_messages: Counter::default(),
            forced_writes: Counter::default(),
            borrowed_pages: Counter::default(),
            master_crashes: Counter::default(),
            cohort_crashes: Counter::default(),
            messages_lost: Counter::default(),
            retransmissions: Counter::default(),
            retry_escalations: Counter::default(),
            termination_rounds: Counter::default(),
            master_crash_trials: Counter::default(),
            cohort_crash_trials: Counter::default(),
            message_loss_trials: Counter::default(),
            blocked_on_crash_cohorts: Counter::default(),
            crash_block_time: Tally::new(),
            response: Tally::new(),
            response_hist: DurationHistogram::new(),
            attempt_response: Tally::new(),
            shelf_time: Tally::new(),
            prepared_time: Tally::new(),
            phase_execution: DurationHistogram::new(),
            phase_voting: DurationHistogram::new(),
            phase_decision: DurationHistogram::new(),
            overhead_check: OverheadCheck::default(),
            blocked_txns: TimeWeighted::new(now, 0.0),
            live_txns: TimeWeighted::new(now, 0.0),
            throughput_batches: BatchMeans::new(1),
            batch_size,
            batch_count_in_progress: 0,
            batch_started: now,
            conv_rates: Vec::new(),
            conv_starts: Vec::new(),
            conv_count_in_progress: 0,
            conv_batch_started: now,
        }
    }

    /// Reset counters at the end of warm-up: everything starts afresh
    /// as in [`Metrics::new`] except the batch size, the blocked/live
    /// levels (current state, not counts) and the steady-state
    /// detection samples, which span the whole run, warm-up included.
    pub fn reset(&mut self, now: SimTime) {
        let mut warm = std::mem::replace(self, Metrics::fresh(now, self.batch_size));
        warm.blocked_txns.reset(now);
        warm.live_txns.reset(now);
        self.blocked_txns = warm.blocked_txns;
        self.live_txns = warm.live_txns;
        self.conv_rates = warm.conv_rates;
        self.conv_starts = warm.conv_starts;
        self.conv_count_in_progress = warm.conv_count_in_progress;
        self.conv_batch_started = warm.conv_batch_started;
    }

    /// Record a commit at `now` with the given response times.
    pub fn record_commit(&mut self, now: SimTime, response: SimDuration, attempt: SimDuration) {
        self.committed.bump();
        self.response.record_duration(response);
        self.response_hist.record(response);
        self.attempt_response.record_duration(attempt);
        // Throughput batches: every `batch_size` commits, record the
        // batch's rate as one sample.
        self.batch_count_in_progress += 1;
        if self.batch_count_in_progress == self.batch_size {
            let span = now.since(self.batch_started).as_secs_f64();
            if span > 0.0 {
                self.throughput_batches
                    .record(self.batch_size as f64 / span);
            }
            self.batch_count_in_progress = 0;
            self.batch_started = now;
        }
        // Convergence samples run on their own cursor so the warm-up
        // reset cannot disturb them.
        self.conv_count_in_progress += 1;
        if self.conv_count_in_progress == self.batch_size {
            let span = now.since(self.conv_batch_started).as_secs_f64();
            if span > 0.0 {
                self.conv_rates.push(self.batch_size as f64 / span);
                self.conv_starts.push(self.conv_batch_started);
            }
            self.conv_count_in_progress = 0;
            self.conv_batch_started = now;
        }
    }

    /// Run the MSER steady-state scan over the whole-run throughput
    /// samples and relate the detected transient to where the
    /// configured warm-up actually ended.
    pub fn convergence(&self) -> ConvergenceReport {
        let ss = simkernel::stats::mser_truncation(&self.conv_rates);
        let steady_from_s = if ss.converged {
            self.conv_starts[ss.truncated].as_secs_f64()
        } else {
            f64::NAN
        };
        // `start` is reset to the warm-up boundary when warm-up ends
        // (and stays 0 for warmup = 0 runs).
        let warmup_ended_s = self.start.as_secs_f64();
        ConvergenceReport {
            samples: ss.samples as u64,
            converged: ss.converged,
            steady_from_s,
            warmup_ended_s,
            warmup_sufficient: ss.converged && steady_from_s <= warmup_ended_s,
        }
    }

    pub fn record_abort(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::Deadlock => self.aborted_deadlock.bump(),
            AbortReason::SurpriseVote => self.aborted_surprise.bump(),
            AbortReason::BorrowerCascade => self.aborted_borrower.bump(),
            AbortReason::CohortCrash => self.aborted_crash.bump(),
        }
    }
}

/// Per-resource-class mean utilization over the measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Utilizations {
    /// CPUs, averaged over all sites.
    pub cpu: f64,
    /// Data disks, averaged over all sites and disks.
    pub data_disk: f64,
    /// Log disks, averaged over all sites and disks.
    pub log_disk: f64,
}

/// Summary statistics of one latency distribution, in seconds.
/// Percentiles come from a log-linear histogram (≤6.25% bucket
/// resolution); the mean is exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Observations the summary is based on.
    pub count: u64,
    /// Exact mean, seconds.
    pub mean_s: f64,
    /// Median, seconds.
    pub p50_s: f64,
    /// 90th percentile, seconds.
    pub p90_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
}

impl LatencySummary {
    pub(crate) fn from_histogram(h: &DurationHistogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean_s: h.mean().as_secs_f64(),
            p50_s: h.p50().as_secs_f64(),
            p90_s: h.p90().as_secs_f64(),
            p99_s: h.p99().as_secs_f64(),
        }
    }
}

/// Where a committed transaction's time went, split at the commit
/// protocol's phase boundaries (the decomposition behind Tables 3–4:
/// execution messages vs. voting-phase vs. decision-phase overheads).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseLatencies {
    /// Submission to WORKDONE collection complete (execution phase).
    pub execution: LatencySummary,
    /// Commit-protocol start to the master's decision being durable
    /// (voting phase, plus PC's collecting / 3PC's precommit rounds).
    pub voting: LatencySummary,
    /// Master decision to the last cohort acknowledgment (decision/ack
    /// drain; the transaction holds no locks for most of it).
    pub decision: LatencySummary,
}

/// Observed behaviour of one resource class over the window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceStats {
    /// Mean utilization per server (or mean concurrency when infinite).
    pub utilization: f64,
    /// Time-averaged queue length (jobs waiting, not in service).
    pub mean_queue_depth: f64,
    /// Largest queue length seen at any single station of the class.
    pub max_queue_depth: u64,
    /// Mean queueing delay per served job, seconds.
    pub mean_wait_s: f64,
    /// Time-weighted median queue depth (from the occupancy histogram;
    /// fractional after averaging across sites or replications).
    pub queue_depth_p50: f64,
    /// Queue depth not exceeded 90% of the time.
    pub queue_depth_p90: f64,
    /// Queue depth not exceeded 99% of the time — the tail the paper's
    /// mean-based resource metrics cannot show.
    pub queue_depth_p99: f64,
}

/// Queue-depth and utilization report for the three station classes of
/// the paper's physical model (§4).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceReport {
    /// CPUs (common queue per site).
    pub cpu: ResourceStats,
    /// Data disks.
    pub data_disk: ResourceStats,
    /// Log disks (including group-commit batchers when enabled).
    pub log_disk: ResourceStats,
}

impl ResourceReport {
    /// Average a set of per-site reports into one class-level view:
    /// utilizations, queue depths, waits and occupancy percentiles are
    /// averaged; max queue depth is the max over sites. Returns the
    /// default (all-zero) report for an empty slice. Also merges one
    /// site's replications in [`SimReport::merge_replications`].
    pub fn average(sites: &[ResourceReport]) -> ResourceReport {
        if sites.is_empty() {
            return ResourceReport::default();
        }
        let avg = |f: &dyn Fn(&ResourceReport) -> &ResourceStats| {
            let n = sites.len() as f64;
            let mean =
                |g: &dyn Fn(&ResourceStats) -> f64| sites.iter().map(|r| g(f(r))).sum::<f64>() / n;
            ResourceStats {
                utilization: mean(&|s| s.utilization),
                mean_queue_depth: mean(&|s| s.mean_queue_depth),
                max_queue_depth: sites
                    .iter()
                    .map(|r| f(r).max_queue_depth)
                    .max()
                    .unwrap_or(0),
                mean_wait_s: mean(&|s| s.mean_wait_s),
                queue_depth_p50: mean(&|s| s.queue_depth_p50),
                queue_depth_p90: mean(&|s| s.queue_depth_p90),
                queue_depth_p99: mean(&|s| s.queue_depth_p99),
            }
        };
        ResourceReport {
            cpu: avg(&|r| &r.cpu),
            data_disk: avg(&|r| &r.data_disk),
            log_disk: avg(&|r| &r.log_disk),
        }
    }
}

/// Runtime cross-check of measured per-commit message/forced-write
/// counts against the analytic model of Tables 3–4
/// (`commitproto`'s `committed_overheads`). Every cleanly committed
/// transaction (no restarts in its history, no master crash) is
/// compared against the model at its actual degree of distribution;
/// any divergence is a simulator bug, not workload noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverheadCheck {
    /// Clean commits whose counters were compared against the model.
    pub checked_commits: u64,
    /// Checked commits whose counters diverged from the prediction.
    pub mismatched_commits: u64,
    /// Sum of |measured − predicted| messages over checked commits.
    pub message_delta: u64,
    /// Sum of |measured − predicted| forced writes over checked commits.
    pub forced_write_delta: u64,
}

impl OverheadCheck {
    /// True when every checked commit matched the analytic model.
    pub fn is_clean(&self) -> bool {
        self.mismatched_commits == 0
    }

    /// Fold one commit's comparison into the running check.
    pub(crate) fn record(&mut self, message_delta: u64, forced_write_delta: u64) {
        self.checked_commits += 1;
        if message_delta != 0 || forced_write_delta != 0 {
            self.mismatched_commits += 1;
            self.message_delta += message_delta;
            self.forced_write_delta += forced_write_delta;
        }
    }
}

/// Fault-injection observability: what the failure subsystem actually
/// did during the measurement window (§2.4 failure experiments).
///
/// The `*_trials` fields count RNG rolls, so observed fault rates
/// (`master_crashes / master_crash_trials`, …) can be cross-checked
/// against the configured probabilities the same way the Tables 3–4
/// overhead check validates message counts. Everything is exactly zero
/// when `failures: None` — the fault paths are never entered.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultCounters {
    /// Masters crashed at their decision point.
    pub master_crashes: u64,
    /// Cohorts crashed right after forcing a prepare/precommit record.
    pub cohort_crashes: u64,
    /// Coordinator messages dropped in transit.
    pub messages_lost: u64,
    /// Timeout-driven retransmissions actually sent.
    pub retransmissions: u64,
    /// Retransmissions that exhausted the retry budget and escalated to
    /// a reliable send.
    pub retry_escalations: u64,
    /// 3PC termination-protocol elections run after a master crash.
    pub termination_rounds: u64,
    /// Master-crash RNG rolls (denominator for the observed crash rate).
    pub master_crash_trials: u64,
    /// Cohort-crash RNG rolls.
    pub cohort_crash_trials: u64,
    /// Message-loss RNG rolls.
    pub message_loss_trials: u64,
    /// Prepared cohorts that spent time blocked behind a crash.
    pub blocked_on_crash_cohorts: u64,
    /// Mean per-cohort blocked-on-crash time, seconds: from the later
    /// of (crash instant, prepared instant) to the cohort's decision.
    /// This is the §2.4 blocking metric — unbounded recovery wait under
    /// 2PC, bounded by detection timeout + termination under 3PC.
    pub mean_blocked_on_crash_s: f64,
}

impl FaultCounters {
    /// True when no fault of any kind fired (the no-failure invariant).
    pub fn is_quiet(&self) -> bool {
        self.master_crashes == 0
            && self.cohort_crashes == 0
            && self.messages_lost == 0
            && self.retransmissions == 0
            && self.retry_escalations == 0
            && self.termination_rounds == 0
            && self.master_crash_trials == 0
            && self.cohort_crash_trials == 0
            && self.message_loss_trials == 0
            && self.blocked_on_crash_cohorts == 0
            && self.mean_blocked_on_crash_s == 0.0
    }

    /// Merge replications: counts sum; the blocked-time mean is
    /// weighted by each replication's blocked-cohort count.
    pub(crate) fn merge(reports: &[SimReport]) -> FaultCounters {
        let sum = |f: &dyn Fn(&FaultCounters) -> u64| reports.iter().map(|r| f(&r.faults)).sum();
        let blocked: u64 = reports
            .iter()
            .map(|r| r.faults.blocked_on_crash_cohorts)
            .sum();
        let mean_blocked = if blocked == 0 {
            0.0
        } else {
            reports
                .iter()
                .map(|r| {
                    r.faults.mean_blocked_on_crash_s * r.faults.blocked_on_crash_cohorts as f64
                })
                .sum::<f64>()
                / blocked as f64
        };
        FaultCounters {
            master_crashes: sum(&|f| f.master_crashes),
            cohort_crashes: sum(&|f| f.cohort_crashes),
            messages_lost: sum(&|f| f.messages_lost),
            retransmissions: sum(&|f| f.retransmissions),
            retry_escalations: sum(&|f| f.retry_escalations),
            termination_rounds: sum(&|f| f.termination_rounds),
            master_crash_trials: sum(&|f| f.master_crash_trials),
            cohort_crash_trials: sum(&|f| f.cohort_crash_trials),
            message_loss_trials: sum(&|f| f.message_loss_trials),
            blocked_on_crash_cohorts: blocked,
            mean_blocked_on_crash_s: mean_blocked,
        }
    }
}

/// Steady-state verdict for one run: did the measured window actually
/// sit in steady state, and did the configured warm-up cover the
/// initial transient? Computed by an MSER scan
/// ([`simkernel::stats::mser_truncation`]) over whole-run throughput
/// samples (warm-up included), so it replaces blind trust in the fixed
/// warm-up commit count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConvergenceReport {
    /// Throughput batch samples the detector examined (whole run).
    pub samples: u64,
    /// Whether a credible steady state was found.
    pub converged: bool,
    /// Simulated time at which steady state begins (NaN when not
    /// converged).
    pub steady_from_s: f64,
    /// Simulated time at which the configured warm-up ended.
    pub warmup_ended_s: f64,
    /// True when the run converged *and* the warm-up ended at or after
    /// the detected transient — i.e. the measured window is clean.
    pub warmup_sufficient: bool,
}

impl ConvergenceReport {
    /// Merge replications: samples sum; the run is converged only if
    /// every replication converged; steady-state onset is the latest
    /// (most conservative) across replications.
    pub(crate) fn merge(reports: &[SimReport]) -> ConvergenceReport {
        let converged = reports.iter().all(|r| r.convergence.converged);
        let steady_from_s = if converged {
            reports
                .iter()
                .map(|r| r.convergence.steady_from_s)
                .fold(0.0, f64::max)
        } else {
            f64::NAN
        };
        let n = reports.len() as f64;
        ConvergenceReport {
            samples: reports.iter().map(|r| r.convergence.samples).sum(),
            converged,
            steady_from_s,
            warmup_ended_s: reports
                .iter()
                .map(|r| r.convergence.warmup_ended_s)
                .sum::<f64>()
                / n,
            warmup_sufficient: reports.iter().all(|r| r.convergence.warmup_sufficient),
        }
    }
}

/// The result of one simulation run — everything the experiment
/// harness and the figures need.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Protocol name (paper spelling, e.g. "OPT-3PC").
    pub protocol: String,
    /// Per-site multiprogramming level of the run.
    pub mpl: u32,
    /// Length of the measurement window in simulated seconds.
    pub sim_seconds: f64,
    /// Transactions committed inside the window.
    pub committed: u64,
    /// Deadlock-victim aborts inside the window.
    pub aborted_deadlock: u64,
    /// Surprise-vote aborts inside the window.
    pub aborted_surprise: u64,
    /// Borrower-cascade aborts inside the window (OPT only).
    pub aborted_borrower: u64,
    /// Execution-phase cohort-crash aborts inside the window: the
    /// cohort went down before logging anything, so recovery presumed
    /// abort and the transaction restarted.
    pub aborted_crash: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Batch-means 90% confidence interval on the throughput.
    pub throughput_ci: ConfidenceInterval,
    /// Mean response time (submission to master commit decision,
    /// restarts included), seconds.
    pub mean_response_s: f64,
    /// Median response time, seconds (±6.25% bucket resolution).
    pub p50_response_s: f64,
    /// 95th-percentile response time, seconds.
    pub p95_response_s: f64,
    /// 99th-percentile response time, seconds.
    pub p99_response_s: f64,
    /// Mean per-incarnation response time, seconds.
    pub mean_attempt_response_s: f64,
    /// Time-average of (blocked transactions / live transactions).
    pub block_ratio: f64,
    /// Pages borrowed per committed transaction (0 unless OPT).
    pub borrow_ratio: f64,
    /// Execution-phase messages per committed transaction.
    pub exec_messages_per_commit: f64,
    /// Commit-phase messages per committed transaction.
    pub commit_messages_per_commit: f64,
    /// Forced log writes per committed transaction.
    pub forced_writes_per_commit: f64,
    /// Mean time cohorts spent on the OPT shelf, seconds.
    pub mean_shelf_time_s: f64,
    /// Mean time cohorts spent in the prepared state, seconds.
    pub mean_prepared_time_s: f64,
    /// Per-phase latency breakdown of committed transactions.
    pub phase_latencies: PhaseLatencies,
    /// Resource utilizations over the window.
    pub utilizations: Utilizations,
    /// Queue-depth/wait/utilization detail per resource class, one
    /// entry per (effective) site. The site-averaged view is derived by
    /// [`SimReport::resources`], not stored.
    pub site_resources: Vec<ResourceReport>,
    /// Measured-vs-analytic overhead cross-check (Tables 3–4).
    pub overhead_check: OverheadCheck,
    /// Mean forced writes per log-disk service (1.0 without group
    /// commit; higher when batching actually groups writes; 0 when no
    /// log write completed).
    pub mean_log_batch: f64,
    /// Fault-injection counters (all zero in the paper's no-failure
    /// experiments).
    pub faults: FaultCounters,
    /// Steady-state detection verdict for the run.
    pub convergence: ConvergenceReport,
    /// Total simulation events dispatched (diagnostics).
    pub events: u64,
    /// The run hit [`crate::config::RunConfig::max_sim_time`] before
    /// committing its target, so every figure covers a shorter run
    /// than was asked for. Rendered only when set.
    pub truncated: bool,
}

fn merge_latency(
    reports: &[SimReport],
    f: &dyn Fn(&SimReport) -> &LatencySummary,
) -> LatencySummary {
    let n = reports.len() as f64;
    let mean =
        |g: &dyn Fn(&LatencySummary) -> f64| reports.iter().map(|r| g(f(r))).sum::<f64>() / n;
    LatencySummary {
        count: reports.iter().map(|r| f(r).count).sum(),
        mean_s: mean(&|l| l.mean_s),
        p50_s: mean(&|l| l.p50_s),
        p90_s: mean(&|l| l.p90_s),
        p99_s: mean(&|l| l.p99_s),
    }
}

/// Output format for [`SimReport::render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// The human-readable detail block `distcommit run` prints.
    Table,
    /// Long-format CSV: one `section,key,value` row per metric,
    /// including per-site resource rows.
    Csv,
    /// A single JSON object with every report field, written by the
    /// crate's one JSON writer (non-finite floats serialize as `null`).
    Json,
}

impl std::str::FromStr for ReportFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "table" => Ok(ReportFormat::Table),
            "csv" => Ok(ReportFormat::Csv),
            "json" => Ok(ReportFormat::Json),
            _ => Err(format!("unknown format {s:?} (table|csv|json)")),
        }
    }
}

impl SimReport {
    /// The site-averaged resource view, derived from
    /// [`SimReport::site_resources`].
    pub fn resources(&self) -> ResourceReport {
        ResourceReport::average(&self.site_resources)
    }

    /// All aborts inside the window.
    pub fn total_aborts(&self) -> u64 {
        self.aborted_deadlock + self.aborted_surprise + self.aborted_borrower + self.aborted_crash
    }

    /// Fraction of incarnations that aborted.
    pub fn abort_fraction(&self) -> f64 {
        let attempts = self.committed + self.total_aborts();
        if attempts == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / attempts as f64
        }
    }

    /// Merge independent replications of the *same* (protocol, MPL)
    /// cell into one report.
    ///
    /// Counts (commits, aborts, messages, events) and simulated time
    /// are summed; rates, ratios and response times are averaged
    /// unweighted (every replication runs the same number of measured
    /// transactions). The throughput confidence interval is computed
    /// *across replications* — mean ± `t₀.₉₅(n−1)·s/√n` over the
    /// per-replication throughputs — which is the textbook independent-
    /// replications estimator and supersedes the per-run batch-means
    /// interval. A single replication is returned unchanged, so
    /// `replications = 1` is bit-identical to a plain run.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn merge_replications(reports: &[SimReport]) -> SimReport {
        assert!(!reports.is_empty(), "cannot merge zero replications");
        if reports.len() == 1 {
            return reports[0].clone();
        }
        let n = reports.len() as f64;
        let mean = |f: &dyn Fn(&SimReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
        let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();

        let mut throughputs = Tally::new();
        for r in reports {
            throughputs.record(r.throughput);
        }
        let df = throughputs.count().saturating_sub(1);
        let half_width = simkernel::stats::t_critical_90(df) * throughputs.std_dev()
            / (throughputs.count() as f64).sqrt();

        SimReport {
            protocol: reports[0].protocol.clone(),
            mpl: reports[0].mpl,
            sim_seconds: reports.iter().map(|r| r.sim_seconds).sum(),
            committed: sum(&|r| r.committed),
            aborted_deadlock: sum(&|r| r.aborted_deadlock),
            aborted_surprise: sum(&|r| r.aborted_surprise),
            aborted_borrower: sum(&|r| r.aborted_borrower),
            aborted_crash: sum(&|r| r.aborted_crash),
            throughput: throughputs.mean(),
            throughput_ci: ConfidenceInterval {
                mean: throughputs.mean(),
                half_width,
                batches: throughputs.count(),
            },
            mean_response_s: mean(&|r| r.mean_response_s),
            p50_response_s: mean(&|r| r.p50_response_s),
            p95_response_s: mean(&|r| r.p95_response_s),
            p99_response_s: mean(&|r| r.p99_response_s),
            mean_attempt_response_s: mean(&|r| r.mean_attempt_response_s),
            block_ratio: mean(&|r| r.block_ratio),
            borrow_ratio: mean(&|r| r.borrow_ratio),
            exec_messages_per_commit: mean(&|r| r.exec_messages_per_commit),
            commit_messages_per_commit: mean(&|r| r.commit_messages_per_commit),
            forced_writes_per_commit: mean(&|r| r.forced_writes_per_commit),
            mean_shelf_time_s: mean(&|r| r.mean_shelf_time_s),
            mean_prepared_time_s: mean(&|r| r.mean_prepared_time_s),
            phase_latencies: PhaseLatencies {
                execution: merge_latency(reports, &|r| &r.phase_latencies.execution),
                voting: merge_latency(reports, &|r| &r.phase_latencies.voting),
                decision: merge_latency(reports, &|r| &r.phase_latencies.decision),
            },
            utilizations: Utilizations {
                cpu: mean(&|r| r.utilizations.cpu),
                data_disk: mean(&|r| r.utilizations.data_disk),
                log_disk: mean(&|r| r.utilizations.log_disk),
            },
            site_resources: {
                let sites = reports.iter().map(|r| r.site_resources.len()).min();
                (0..sites.unwrap_or(0))
                    .map(|i| {
                        let replications: Vec<_> =
                            reports.iter().map(|r| r.site_resources[i]).collect();
                        ResourceReport::average(&replications)
                    })
                    .collect()
            },
            overhead_check: OverheadCheck {
                checked_commits: sum(&|r| r.overhead_check.checked_commits),
                mismatched_commits: sum(&|r| r.overhead_check.mismatched_commits),
                message_delta: sum(&|r| r.overhead_check.message_delta),
                forced_write_delta: sum(&|r| r.overhead_check.forced_write_delta),
            },
            mean_log_batch: mean(&|r| r.mean_log_batch),
            faults: FaultCounters::merge(reports),
            convergence: ConvergenceReport::merge(reports),
            events: sum(&|r| r.events),
            truncated: reports.iter().any(|r| r.truncated),
        }
    }

    /// Compact summary for logs and examples: the headline line, the
    /// abort-reason breakdown, and the per-phase latency percentiles.
    pub fn summary(&self) -> String {
        let phase = |l: &LatencySummary| {
            format!(
                "{:.1}/{:.1}/{:.1}",
                l.p50_s * 1e3,
                l.p90_s * 1e3,
                l.p99_s * 1e3
            )
        };
        let avg = self.resources();
        let mut s = format!(
            "{:<8} MPL {:>2}: {:>7.2} txn/s (±{:>4.1}%), resp {:>6.3}s, block {:>5.3}, borrow {:>5.3}, \
             aborts {:.1}% (deadlock {}, vote {}, cascade {}, crash {})\n         \
             phase p50/p90/p99 ms: exec {} | vote {} | ack {} \
             | occ p99 cpu/data/log {:.0}/{:.0}/{:.0}",
            self.protocol,
            self.mpl,
            self.throughput,
            self.throughput_ci.relative_half_width() * 100.0,
            self.mean_response_s,
            self.block_ratio,
            self.borrow_ratio,
            self.abort_fraction() * 100.0,
            self.aborted_deadlock,
            self.aborted_surprise,
            self.aborted_borrower,
            self.aborted_crash,
            phase(&self.phase_latencies.execution),
            phase(&self.phase_latencies.voting),
            phase(&self.phase_latencies.decision),
            avg.cpu.queue_depth_p99,
            avg.data_disk.queue_depth_p99,
            avg.log_disk.queue_depth_p99,
        );
        if !self.faults.is_quiet() {
            let f = &self.faults;
            s.push_str(&format!(
                "\n         faults: master crashes {}, cohort crashes {}, lost {}, \
                 retransmits {} (escalated {}), termination rounds {}, \
                 blocked-on-crash {} cohorts, mean {:.3}s",
                f.master_crashes,
                f.cohort_crashes,
                f.messages_lost,
                f.retransmissions,
                f.retry_escalations,
                f.termination_rounds,
                f.blocked_on_crash_cohorts,
                f.mean_blocked_on_crash_s,
            ));
        }
        if self.truncated {
            s.push_str(
                "\n         WARNING: TRUNCATED — the run hit its simulated-time cap before \
                 committing its target; these numbers cover a shorter run",
            );
        }
        let c = &self.convergence;
        if !c.converged {
            s.push_str(&format!(
                "\n         WARNING: NOT CONVERGED — no steady state detected over {} \
                 throughput samples; lengthen the run before trusting these numbers",
                c.samples
            ));
        } else if !c.warmup_sufficient {
            s.push_str(&format!(
                "\n         WARNING: warm-up too short — steady state begins at t={:.2}s \
                 but warm-up ended at t={:.2}s; early transient leaks into the window",
                c.steady_from_s, c.warmup_ended_s
            ));
        }
        s
    }

    /// Render the full report in the requested format. This is the
    /// single entry point the CLI uses, so every subcommand shows the
    /// same numbers the same way.
    pub fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Table => self.render_table(),
            ReportFormat::Csv => self.render_csv(),
            ReportFormat::Json => self.render_json(),
        }
    }

    fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.summary());
        let _ = writeln!(out);
        let _ = writeln!(out, "committed            {}", self.committed);
        let _ = writeln!(
            out,
            "aborts               {} deadlock, {} surprise, {} cascade, {} crash",
            self.aborted_deadlock, self.aborted_surprise, self.aborted_borrower, self.aborted_crash
        );
        let _ = writeln!(
            out,
            "throughput           {:.3} txn/s (90% CI ±{:.1}%)",
            self.throughput,
            self.throughput_ci.relative_half_width() * 100.0
        );
        let _ = writeln!(
            out,
            "response             {:.4}s mean",
            self.mean_response_s
        );
        let _ = writeln!(out, "block ratio          {:.4}", self.block_ratio);
        let _ = writeln!(
            out,
            "borrow ratio         {:.4} pages/txn",
            self.borrow_ratio
        );
        let _ = writeln!(
            out,
            "messages / commit    {:.2} exec + {:.2} commit",
            self.exec_messages_per_commit, self.commit_messages_per_commit
        );
        let _ = writeln!(
            out,
            "forced writes        {:.2} / commit",
            self.forced_writes_per_commit
        );
        for (name, l) in [
            ("exec", &self.phase_latencies.execution),
            ("vote", &self.phase_latencies.voting),
            ("ack", &self.phase_latencies.decision),
        ] {
            let _ = writeln!(
                out,
                "phase {name:<14} mean {:7.2} ms, p50 {:7.2}, p90 {:7.2}, p99 {:7.2}",
                l.mean_s * 1e3,
                l.p50_s * 1e3,
                l.p90_s * 1e3,
                l.p99_s * 1e3
            );
        }
        let resources = self.resources();
        for (name, s) in [
            ("cpu", &resources.cpu),
            ("data disk", &resources.data_disk),
            ("log disk", &resources.log_disk),
        ] {
            let _ = writeln!(
                out,
                "{name:<20} util {:.2}, queue mean {:.2} / max {}, wait {:.4}s",
                s.utilization, s.mean_queue_depth, s.max_queue_depth, s.mean_wait_s
            );
        }
        let _ = writeln!(
            out,
            "occupancy p50/90/99  cpu {:.1}/{:.1}/{:.1} | data {:.1}/{:.1}/{:.1} | \
             log {:.1}/{:.1}/{:.1}",
            resources.cpu.queue_depth_p50,
            resources.cpu.queue_depth_p90,
            resources.cpu.queue_depth_p99,
            resources.data_disk.queue_depth_p50,
            resources.data_disk.queue_depth_p90,
            resources.data_disk.queue_depth_p99,
            resources.log_disk.queue_depth_p50,
            resources.log_disk.queue_depth_p90,
            resources.log_disk.queue_depth_p99,
        );
        for (i, site) in self.site_resources.iter().enumerate() {
            let name = format!("site {i}");
            let _ = writeln!(
                out,
                "{name:<20} util {:.2}/{:.2}/{:.2}, occ p99 {:.0}/{:.0}/{:.0} (cpu/data/log)",
                site.cpu.utilization,
                site.data_disk.utilization,
                site.log_disk.utilization,
                site.cpu.queue_depth_p99,
                site.data_disk.queue_depth_p99,
                site.log_disk.queue_depth_p99,
            );
        }
        let oc = &self.overhead_check;
        let _ = writeln!(
            out,
            "overhead model       {}/{} commits match Tables 3-4{}",
            oc.checked_commits - oc.mismatched_commits,
            oc.checked_commits,
            if oc.is_clean() {
                String::new()
            } else {
                format!(
                    " (MISMATCH: msg delta {}, forced-write delta {})",
                    oc.message_delta, oc.forced_write_delta
                )
            }
        );
        if self.mean_log_batch > 1.0 {
            let _ = writeln!(
                out,
                "log batch            {:.2} writes / service",
                self.mean_log_batch
            );
        }
        let c = &self.convergence;
        if c.converged {
            let _ = writeln!(
                out,
                "convergence          converged at t={:.2}s ({} samples, warm-up ended t={:.2}s{})",
                c.steady_from_s,
                c.samples,
                c.warmup_ended_s,
                if c.warmup_sufficient {
                    ""
                } else {
                    ", WARM-UP TOO SHORT"
                }
            );
        } else {
            let _ = writeln!(
                out,
                "convergence          NOT CONVERGED ({} samples)",
                c.samples
            );
        }
        out
    }

    fn render_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("section,key,value\n");
        {
            let kv = |out: &mut String, sec: &str, key: &str, val: String| {
                let _ = writeln!(out, "{sec},{key},{val}");
            };
            let f = |v: f64| format!("{v:.6}");
            kv(&mut out, "run", "protocol", self.protocol.clone());
            kv(&mut out, "run", "mpl", self.mpl.to_string());
            kv(&mut out, "run", "sim_seconds", f(self.sim_seconds));
            kv(&mut out, "run", "committed", self.committed.to_string());
            kv(
                &mut out,
                "run",
                "aborted_deadlock",
                self.aborted_deadlock.to_string(),
            );
            kv(
                &mut out,
                "run",
                "aborted_surprise",
                self.aborted_surprise.to_string(),
            );
            kv(
                &mut out,
                "run",
                "aborted_borrower",
                self.aborted_borrower.to_string(),
            );
            kv(
                &mut out,
                "run",
                "aborted_crash",
                self.aborted_crash.to_string(),
            );
            kv(&mut out, "run", "throughput", f(self.throughput));
            kv(
                &mut out,
                "run",
                "throughput_ci90",
                f(if self.throughput_ci.half_width.is_finite() {
                    self.throughput_ci.half_width
                } else {
                    0.0
                }),
            );
            kv(&mut out, "run", "mean_response_s", f(self.mean_response_s));
            kv(&mut out, "run", "p50_response_s", f(self.p50_response_s));
            kv(&mut out, "run", "p95_response_s", f(self.p95_response_s));
            kv(&mut out, "run", "p99_response_s", f(self.p99_response_s));
            kv(&mut out, "run", "block_ratio", f(self.block_ratio));
            kv(&mut out, "run", "borrow_ratio", f(self.borrow_ratio));
            kv(
                &mut out,
                "run",
                "exec_messages_per_commit",
                f(self.exec_messages_per_commit),
            );
            kv(
                &mut out,
                "run",
                "commit_messages_per_commit",
                f(self.commit_messages_per_commit),
            );
            kv(
                &mut out,
                "run",
                "forced_writes_per_commit",
                f(self.forced_writes_per_commit),
            );
            kv(&mut out, "run", "mean_log_batch", f(self.mean_log_batch));
            kv(&mut out, "run", "events", self.events.to_string());
            let c = &self.convergence;
            kv(&mut out, "convergence", "samples", c.samples.to_string());
            kv(
                &mut out,
                "convergence",
                "converged",
                (c.converged as u8).to_string(),
            );
            kv(
                &mut out,
                "convergence",
                "steady_from_s",
                f(if c.steady_from_s.is_finite() {
                    c.steady_from_s
                } else {
                    0.0
                }),
            );
            kv(
                &mut out,
                "convergence",
                "warmup_ended_s",
                f(c.warmup_ended_s),
            );
            kv(
                &mut out,
                "convergence",
                "warmup_sufficient",
                (c.warmup_sufficient as u8).to_string(),
            );
            for (name, l) in [
                ("exec", &self.phase_latencies.execution),
                ("vote", &self.phase_latencies.voting),
                ("ack", &self.phase_latencies.decision),
            ] {
                kv(&mut out, "phase", &format!("{name}_p50_s"), f(l.p50_s));
                kv(&mut out, "phase", &format!("{name}_p90_s"), f(l.p90_s));
                kv(&mut out, "phase", &format!("{name}_p99_s"), f(l.p99_s));
            }
            let mut resource_rows = |sec: String, r: &ResourceReport| {
                for (name, s) in [
                    ("cpu", &r.cpu),
                    ("data_disk", &r.data_disk),
                    ("log_disk", &r.log_disk),
                ] {
                    kv(&mut out, &sec, &format!("{name}_util"), f(s.utilization));
                    kv(
                        &mut out,
                        &sec,
                        &format!("{name}_queue_mean"),
                        f(s.mean_queue_depth),
                    );
                    kv(
                        &mut out,
                        &sec,
                        &format!("{name}_queue_max"),
                        s.max_queue_depth.to_string(),
                    );
                    kv(&mut out, &sec, &format!("{name}_wait_s"), f(s.mean_wait_s));
                    kv(
                        &mut out,
                        &sec,
                        &format!("{name}_occ_p50"),
                        f(s.queue_depth_p50),
                    );
                    kv(
                        &mut out,
                        &sec,
                        &format!("{name}_occ_p90"),
                        f(s.queue_depth_p90),
                    );
                    kv(
                        &mut out,
                        &sec,
                        &format!("{name}_occ_p99"),
                        f(s.queue_depth_p99),
                    );
                }
            };
            resource_rows("resources".to_string(), &self.resources());
            for (i, site) in self.site_resources.iter().enumerate() {
                resource_rows(format!("site{i}"), site);
            }
        }
        if self.truncated {
            out.push_str("run,truncated,1\n");
        }
        out
    }

    fn render_json(&self) -> String {
        let mut j = Json::default();
        self.write_json(&mut j);
        j.finish()
    }

    /// Write the report as one JSON object value — the `run --format
    /// json` document, and each point of the sweep document.
    pub(crate) fn write_json(&self, j: &mut Json) {
        let report = |j: &mut Json, r: &ResourceReport| {
            j.begin_object();
            for (key, s) in [
                ("cpu", &r.cpu),
                ("data_disk", &r.data_disk),
                ("log_disk", &r.log_disk),
            ] {
                j.key(key)
                    .begin_object()
                    .field("utilization", s.utilization)
                    .field("mean_queue_depth", s.mean_queue_depth)
                    .field("max_queue_depth", s.max_queue_depth)
                    .field("mean_wait_s", s.mean_wait_s)
                    .field("queue_depth_p50", s.queue_depth_p50)
                    .field("queue_depth_p90", s.queue_depth_p90)
                    .field("queue_depth_p99", s.queue_depth_p99)
                    .end_object();
            }
            j.end_object();
        };
        j.begin_object()
            .field("protocol", self.protocol.as_str())
            .field("mpl", self.mpl)
            .field("sim_seconds", self.sim_seconds)
            .field("committed", self.committed)
            .field("aborted_deadlock", self.aborted_deadlock)
            .field("aborted_surprise", self.aborted_surprise)
            .field("aborted_borrower", self.aborted_borrower)
            .field("aborted_crash", self.aborted_crash)
            .field("throughput", self.throughput)
            .field("throughput_ci90", self.throughput_ci.half_width)
            .field("mean_response_s", self.mean_response_s)
            .field("p50_response_s", self.p50_response_s)
            .field("p95_response_s", self.p95_response_s)
            .field("p99_response_s", self.p99_response_s)
            .field("mean_attempt_response_s", self.mean_attempt_response_s)
            .field("block_ratio", self.block_ratio)
            .field("borrow_ratio", self.borrow_ratio)
            .field("exec_messages_per_commit", self.exec_messages_per_commit)
            .field(
                "commit_messages_per_commit",
                self.commit_messages_per_commit,
            )
            .field("forced_writes_per_commit", self.forced_writes_per_commit)
            .field("mean_shelf_time_s", self.mean_shelf_time_s)
            .field("mean_prepared_time_s", self.mean_prepared_time_s)
            .field("mean_log_batch", self.mean_log_batch)
            .field("events", self.events);
        j.key("phase_latencies").begin_object();
        for (key, l) in [
            ("execution", &self.phase_latencies.execution),
            ("voting", &self.phase_latencies.voting),
            ("decision", &self.phase_latencies.decision),
        ] {
            j.key(key)
                .begin_object()
                .field("count", l.count)
                .field("mean_s", l.mean_s)
                .field("p50_s", l.p50_s)
                .field("p90_s", l.p90_s)
                .field("p99_s", l.p99_s)
                .end_object();
        }
        j.end_object()
            .key("utilizations")
            .begin_object()
            .field("cpu", self.utilizations.cpu)
            .field("data_disk", self.utilizations.data_disk)
            .field("log_disk", self.utilizations.log_disk)
            .end_object();
        j.key("resources");
        report(j, &self.resources());
        j.key("site_resources").begin_array();
        for site in &self.site_resources {
            report(j, site);
        }
        let oc = &self.overhead_check;
        j.end_array()
            .key("overhead_check")
            .begin_object()
            .field("checked_commits", oc.checked_commits)
            .field("mismatched_commits", oc.mismatched_commits)
            .field("message_delta", oc.message_delta)
            .field("forced_write_delta", oc.forced_write_delta)
            .end_object();
        let fc = &self.faults;
        j.key("faults")
            .begin_object()
            .field("master_crashes", fc.master_crashes)
            .field("cohort_crashes", fc.cohort_crashes)
            .field("messages_lost", fc.messages_lost)
            .field("retransmissions", fc.retransmissions)
            .field("retry_escalations", fc.retry_escalations)
            .field("termination_rounds", fc.termination_rounds)
            .field("master_crash_trials", fc.master_crash_trials)
            .field("cohort_crash_trials", fc.cohort_crash_trials)
            .field("message_loss_trials", fc.message_loss_trials)
            .field("blocked_on_crash_cohorts", fc.blocked_on_crash_cohorts)
            .field("mean_blocked_on_crash_s", fc.mean_blocked_on_crash_s)
            .end_object();
        let c = &self.convergence;
        j.key("convergence")
            .begin_object()
            .field("samples", c.samples)
            .field("converged", c.converged)
            .field("steady_from_s", c.steady_from_s)
            .field("warmup_ended_s", c.warmup_ended_s)
            .field("warmup_sufficient", c.warmup_sufficient)
            .end_object();
        if self.truncated {
            j.field("truncated", true);
        }
        j.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn metrics_batching_produces_throughput_samples() {
        let mut m = Metrics::new(SimTime::ZERO, 100, 10);
        let mut t = 0;
        for _ in 0..100 {
            t += 100; // one commit per 100 ms => 10 txn/s
            m.record_commit(
                at(t),
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
            );
        }
        let ci = m.throughput_batches.confidence_interval();
        assert_eq!(ci.batches, 10);
        assert!((ci.mean - 10.0).abs() < 1e-9, "mean {}", ci.mean);
        assert!(ci.half_width < 1e-9);
    }

    #[test]
    fn metrics_reset_clears_counts() {
        let mut m = Metrics::new(SimTime::ZERO, 100, 10);
        m.record_commit(
            at(5),
            SimDuration::from_millis(5),
            SimDuration::from_millis(5),
        );
        m.record_abort(AbortReason::Deadlock);
        m.exec_messages.add(4);
        m.reset(at(10));
        assert_eq!(m.committed.get(), 0);
        assert_eq!(m.aborted_deadlock.get(), 0);
        assert_eq!(m.exec_messages.get(), 0);
        assert_eq!(m.response.count(), 0);
        assert_eq!(m.start, at(10));
    }

    #[test]
    fn abort_reasons_are_split() {
        let mut m = Metrics::new(SimTime::ZERO, 10, 2);
        m.record_abort(AbortReason::Deadlock);
        m.record_abort(AbortReason::SurpriseVote);
        m.record_abort(AbortReason::SurpriseVote);
        m.record_abort(AbortReason::BorrowerCascade);
        m.record_abort(AbortReason::CohortCrash);
        assert_eq!(m.aborted_deadlock.get(), 1);
        assert_eq!(m.aborted_surprise.get(), 2);
        assert_eq!(m.aborted_borrower.get(), 1);
        assert_eq!(m.aborted_crash.get(), 1);
    }

    fn sample_report() -> SimReport {
        SimReport {
            protocol: "2PC".into(),
            mpl: 4,
            sim_seconds: 100.0,
            committed: 900,
            aborted_deadlock: 50,
            aborted_surprise: 25,
            aborted_borrower: 25,
            aborted_crash: 0,
            throughput: 9.0,
            throughput_ci: ConfidenceInterval {
                mean: 9.0,
                half_width: 0.5,
                batches: 10,
            },
            mean_response_s: 0.4,
            p50_response_s: 0.35,
            p95_response_s: 0.9,
            p99_response_s: 1.4,
            mean_attempt_response_s: 0.3,
            block_ratio: 0.2,
            borrow_ratio: 0.0,
            exec_messages_per_commit: 4.0,
            commit_messages_per_commit: 8.0,
            forced_writes_per_commit: 7.0,
            mean_shelf_time_s: 0.0,
            mean_prepared_time_s: 0.05,
            phase_latencies: PhaseLatencies {
                execution: LatencySummary {
                    count: 900,
                    mean_s: 0.3,
                    p50_s: 0.28,
                    p90_s: 0.4,
                    p99_s: 0.5,
                },
                voting: LatencySummary {
                    count: 900,
                    mean_s: 0.08,
                    p50_s: 0.07,
                    p90_s: 0.1,
                    p99_s: 0.12,
                },
                decision: LatencySummary {
                    count: 900,
                    mean_s: 0.02,
                    p50_s: 0.02,
                    p90_s: 0.03,
                    p99_s: 0.04,
                },
            },
            utilizations: Utilizations::default(),
            site_resources: vec![ResourceReport {
                cpu: ResourceStats {
                    utilization: 0.5,
                    mean_queue_depth: 1.5,
                    max_queue_depth: 6,
                    mean_wait_s: 0.001,
                    queue_depth_p50: 1.0,
                    queue_depth_p90: 3.0,
                    queue_depth_p99: 5.0,
                },
                data_disk: ResourceStats::default(),
                log_disk: ResourceStats::default(),
            }],
            overhead_check: OverheadCheck {
                checked_commits: 900,
                mismatched_commits: 0,
                message_delta: 0,
                forced_write_delta: 0,
            },
            mean_log_batch: 1.0,
            faults: FaultCounters::default(),
            convergence: ConvergenceReport {
                samples: 11,
                converged: true,
                steady_from_s: 2.0,
                warmup_ended_s: 5.0,
                warmup_sufficient: true,
            },
            events: 1,
            truncated: false,
        }
    }

    #[test]
    fn report_derived_quantities() {
        let r = sample_report();
        assert_eq!(r.total_aborts(), 100);
        assert!((r.abort_fraction() - 0.1).abs() < 1e-12);
        let s = r.summary();
        assert!(s.contains("2PC"));
        assert!(s.contains("9.00"));
    }

    #[test]
    fn merge_of_one_replication_is_identity() {
        let r = sample_report();
        let m = SimReport::merge_replications(std::slice::from_ref(&r));
        assert_eq!(m.throughput, r.throughput);
        assert_eq!(m.throughput_ci.half_width, r.throughput_ci.half_width);
        assert_eq!(m.committed, r.committed);
        assert_eq!(m.events, r.events);
    }

    #[test]
    fn merge_averages_rates_and_sums_counts() {
        let a = sample_report();
        let mut b = sample_report();
        b.throughput = 11.0;
        b.committed = 1_100;
        b.block_ratio = 0.4;
        b.mean_response_s = 0.6;
        b.events = 3;
        let m = SimReport::merge_replications(&[a.clone(), b]);
        assert!((m.throughput - 10.0).abs() < 1e-12); // mean of 9 and 11
        assert_eq!(m.committed, 2_000);
        assert_eq!(m.events, 4);
        assert!((m.block_ratio - 0.3).abs() < 1e-12);
        assert!((m.mean_response_s - 0.5).abs() < 1e-12);
        assert_eq!(m.protocol, a.protocol);
        assert_eq!(m.mpl, a.mpl);
        // CI across the two replications: t(1) * s / sqrt(2), s = sqrt(2)
        let expected = simkernel::stats::t_critical_90(1) * 2.0_f64.sqrt() / 2.0_f64.sqrt();
        assert_eq!(m.throughput_ci.batches, 2);
        assert!((m.throughput_ci.mean - 10.0).abs() < 1e-12);
        assert!((m.throughput_ci.half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn merge_of_identical_replications_has_zero_width() {
        let reports = vec![sample_report(); 5];
        let m = SimReport::merge_replications(&reports);
        assert!((m.throughput - 9.0).abs() < 1e-12);
        assert!(m.throughput_ci.half_width < 1e-9);
        assert_eq!(m.throughput_ci.batches, 5);
        assert_eq!(m.sim_seconds, 500.0);
    }

    #[test]
    fn merge_covers_observability_fields() {
        let a = sample_report();
        let mut b = sample_report();
        b.phase_latencies.voting.p90_s = 0.2;
        b.site_resources[0].cpu.max_queue_depth = 10;
        b.site_resources[0].cpu.mean_queue_depth = 2.5;
        b.overhead_check.checked_commits = 100;
        b.overhead_check.mismatched_commits = 1;
        b.overhead_check.message_delta = 2;
        let m = SimReport::merge_replications(&[a, b]);
        // Phase percentiles average, counts sum.
        assert!((m.phase_latencies.voting.p90_s - 0.15).abs() < 1e-12);
        assert_eq!(m.phase_latencies.voting.count, 1_800);
        // Queue depth means average, max is the max over replications.
        assert!((m.site_resources[0].cpu.mean_queue_depth - 2.0).abs() < 1e-12);
        assert_eq!(m.site_resources[0].cpu.max_queue_depth, 10);
        // The derived average view reflects the merged per-site stats.
        assert!((m.resources().cpu.mean_queue_depth - 2.0).abs() < 1e-12);
        // Overhead checks sum, and any mismatch survives the merge.
        assert_eq!(m.overhead_check.checked_commits, 1_000);
        assert_eq!(m.overhead_check.mismatched_commits, 1);
        assert_eq!(m.overhead_check.message_delta, 2);
        assert!(!m.overhead_check.is_clean());
    }

    #[test]
    fn merge_sums_fault_counts_and_weights_blocked_time() {
        let mut a = sample_report();
        a.faults = FaultCounters {
            master_crashes: 2,
            cohort_crashes: 1,
            messages_lost: 3,
            retransmissions: 4,
            retry_escalations: 1,
            termination_rounds: 2,
            master_crash_trials: 100,
            cohort_crash_trials: 50,
            message_loss_trials: 200,
            blocked_on_crash_cohorts: 1,
            mean_blocked_on_crash_s: 5.0,
        };
        let mut b = sample_report();
        b.faults.blocked_on_crash_cohorts = 3;
        b.faults.mean_blocked_on_crash_s = 1.0;
        b.faults.master_crash_trials = 100;
        let m = SimReport::merge_replications(&[a, b]);
        assert_eq!(m.faults.master_crashes, 2);
        assert_eq!(m.faults.messages_lost, 3);
        assert_eq!(m.faults.retransmissions, 4);
        assert_eq!(m.faults.termination_rounds, 2);
        assert_eq!(m.faults.master_crash_trials, 200);
        assert_eq!(m.faults.blocked_on_crash_cohorts, 4);
        // Weighted: (1*5.0 + 3*1.0) / 4 = 2.0
        assert!((m.faults.mean_blocked_on_crash_s - 2.0).abs() < 1e-12);
        assert!(!m.faults.is_quiet());
    }

    #[test]
    fn quiet_faults_are_quiet_and_stay_out_of_the_summary() {
        let r = sample_report();
        assert!(r.faults.is_quiet());
        assert!(!r.summary().contains("faults:"));
        let mut f = sample_report();
        f.faults.master_crashes = 7;
        f.faults.master_crash_trials = 90;
        assert!(!f.faults.is_quiet());
        assert!(f.summary().contains("master crashes 7"), "{}", f.summary());
    }

    #[test]
    fn summary_renders_abort_breakdown_and_phases() {
        let s = sample_report().summary();
        assert!(s.contains("deadlock 50"), "{s}");
        assert!(s.contains("vote 25"), "{s}");
        assert!(s.contains("cascade 25"), "{s}");
        assert!(s.contains("phase p50/p90/p99"), "{s}");
        assert!(s.contains("exec 280.0/400.0/500.0"), "{s}");
    }

    #[test]
    fn report_format_parses_and_rejects() {
        assert_eq!(
            "table".parse::<ReportFormat>().unwrap(),
            ReportFormat::Table
        );
        assert_eq!("CSV".parse::<ReportFormat>().unwrap(), ReportFormat::Csv);
        assert_eq!("json".parse::<ReportFormat>().unwrap(), ReportFormat::Json);
        let err = "xml".parse::<ReportFormat>().unwrap_err();
        assert!(err.contains("xml"), "{err}");
        assert!(err.contains("table|csv|json"), "{err}");
    }

    #[test]
    fn resource_average_means_stats_and_maxes_depth() {
        let a = ResourceReport {
            cpu: ResourceStats {
                utilization: 0.2,
                mean_queue_depth: 1.0,
                max_queue_depth: 3,
                mean_wait_s: 0.01,
                queue_depth_p50: 1.0,
                queue_depth_p90: 2.0,
                queue_depth_p99: 3.0,
            },
            ..ResourceReport::default()
        };
        let b = ResourceReport {
            cpu: ResourceStats {
                utilization: 0.4,
                mean_queue_depth: 3.0,
                max_queue_depth: 7,
                mean_wait_s: 0.03,
                queue_depth_p50: 3.0,
                queue_depth_p90: 4.0,
                queue_depth_p99: 9.0,
            },
            ..ResourceReport::default()
        };
        let avg = ResourceReport::average(&[a, b]);
        assert!((avg.cpu.utilization - 0.3).abs() < 1e-12);
        assert!((avg.cpu.mean_queue_depth - 2.0).abs() < 1e-12);
        assert_eq!(avg.cpu.max_queue_depth, 7);
        assert!((avg.cpu.mean_wait_s - 0.02).abs() < 1e-12);
        assert!((avg.cpu.queue_depth_p99 - 6.0).abs() < 1e-12);
        // Empty slice degrades to the default rather than NaN.
        assert_eq!(ResourceReport::average(&[]).cpu.max_queue_depth, 0);
    }

    #[test]
    fn render_table_carries_core_lines_and_occupancy() {
        let t = sample_report().render(ReportFormat::Table);
        assert!(t.contains("committed            900"), "{t}");
        assert!(
            t.contains("throughput           9.000 txn/s (90% CI ±5.6%)"),
            "{t}"
        );
        assert!(
            t.contains("messages / commit    4.00 exec + 8.00 commit"),
            "{t}"
        );
        assert!(t.contains("occupancy p50/90/99  cpu 1.0/3.0/5.0"), "{t}");
        assert!(
            t.contains("site 0               util 0.50/0.00/0.00"),
            "{t}"
        );
        assert!(
            t.contains("overhead model       900/900 commits match Tables 3-4"),
            "{t}"
        );
    }

    #[test]
    fn render_csv_is_long_format_with_occupancy_columns() {
        let c = sample_report().render(ReportFormat::Csv);
        assert!(c.starts_with("section,key,value\n"), "{c}");
        assert!(c.contains("run,committed,900\n"), "{c}");
        assert!(c.contains("resources,cpu_occ_p99,5.000000\n"), "{c}");
        assert!(c.contains("site0,cpu_occ_p90,3.000000\n"), "{c}");
        // Every line is exactly three comma-separated fields.
        for line in c.lines() {
            assert_eq!(line.split(',').count(), 3, "{line}");
        }
    }

    #[test]
    fn render_json_is_balanced_and_nulls_non_finite() {
        let mut r = sample_report();
        r.throughput_ci.half_width = f64::INFINITY;
        let j = r.render(ReportFormat::Json);
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces: {j}"
        );
        assert!(j.contains("\"throughput_ci90\":null"), "{j}");
        assert!(j.contains("\"committed\":900"), "{j}");
        assert!(j.contains("\"site_resources\":[{"), "{j}");
        assert!(j.contains("\"queue_depth_p99\":5"), "{j}");
        assert!(!j.contains("inf"), "{j}");
        assert!(j.contains("\"convergence\":{\"samples\":11"), "{j}");

        // The protocol name is a JSON string, so it is escaped.
        r.protocol = "a\"b\\c".into();
        let j = r.render(ReportFormat::Json);
        assert!(j.starts_with("{\"protocol\":\"a\\\"b\\\\c\","), "{j}");
    }

    #[test]
    fn convergence_sampling_survives_warmup_reset() {
        let mut m = Metrics::new(SimTime::ZERO, 100, 10);
        let mut t = 0;
        for i in 0..60 {
            t += 100;
            m.record_commit(
                at(t),
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
            );
            if i == 29 {
                m.reset(at(t));
            }
        }
        // 60 commits at batch size 10 → 6 whole-run samples, even
        // though the warm-up reset wiped the measurement batches.
        let c = m.convergence();
        assert_eq!(c.samples, 6);
        assert!((c.warmup_ended_s - 3.0).abs() < 1e-9);
        assert_eq!(m.committed.get(), 30);
    }

    #[test]
    fn convergence_warnings_surface_in_summary_and_table() {
        let mut r = sample_report();
        r.convergence.converged = false;
        r.convergence.steady_from_s = f64::NAN;
        let s = r.summary();
        assert!(s.contains("NOT CONVERGED"), "{s}");
        let t = r.render(ReportFormat::Table);
        assert!(
            t.contains("convergence          NOT CONVERGED (11 samples)"),
            "{t}"
        );
        let j = r.render(ReportFormat::Json);
        assert!(j.contains("\"converged\":false"), "{j}");
        assert!(j.contains("\"steady_from_s\":null"), "{j}");

        let mut short = sample_report();
        short.convergence.warmup_sufficient = false;
        short.convergence.steady_from_s = 8.0;
        assert!(
            short.summary().contains("warm-up too short"),
            "{}",
            short.summary()
        );
        assert!(
            short
                .render(ReportFormat::Table)
                .contains("WARM-UP TOO SHORT"),
            "{}",
            short.render(ReportFormat::Table)
        );

        // A clean report stays warning-free.
        let clean = sample_report();
        assert!(!clean.summary().contains("WARNING"), "{}", clean.summary());
        assert!(clean.render(ReportFormat::Table).contains(
            "convergence          converged at t=2.00s (11 samples, warm-up ended t=5.00s)"
        ));
    }

    #[test]
    fn merge_convergence_is_conservative() {
        let a = sample_report();
        let mut b = sample_report();
        b.convergence.steady_from_s = 4.0;
        let m = SimReport::merge_replications(&[a.clone(), b.clone()]);
        assert!(m.convergence.converged);
        assert_eq!(m.convergence.samples, 22);
        assert!((m.convergence.steady_from_s - 4.0).abs() < 1e-12);
        assert!(m.convergence.warmup_sufficient);

        b.convergence.converged = false;
        b.convergence.warmup_sufficient = false;
        let m = SimReport::merge_replications(&[a, b]);
        assert!(!m.convergence.converged);
        assert!(!m.convergence.warmup_sufficient);
        assert!(m.convergence.steady_from_s.is_nan());
    }
}
