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

use std::fmt::{self, Write as _};

use simkernel::stats::{
    BatchMeans, ConfidenceInterval, Counter, DurationHistogram, Tally, TimeWeighted,
};
use simkernel::{SimDuration, SimTime};

use crate::json::{Json, Scalar};

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
    /// The fault counters as reported; the engine bumps them in place.
    /// Only `mean_blocked_on_crash_s` stays zero here: the report takes
    /// it from `crash_block_time`.
    pub faults: FaultCounters,
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
            faults: FaultCounters::default(),
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

// The report schema. Each report struct lists its fields once, as the
// rows of one table (`Table`); the JSON and CSV writers and the merge
// of replications walk the tables, while `render_table` and `summary`
// keep their hand layouts.

/// One report value, as the writers see it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value<'a> {
    Int(u64),
    Real(f64),
    Flag(bool),
    Text(&'a str),
}

/// The JSON form: the number forms of the crate's JSON writer.
impl Scalar for Value<'_> {
    fn write(self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => v.write(out),
            Value::Real(v) => v.write(out),
            Value::Flag(v) => v.write(out),
            Value::Text(v) => v.write(out),
        }
    }
}

/// The CSV form: reals with six decimals and flags as 0/1. A NaN or an
/// infinity is written as 0 where the JSON writes `null`; only
/// `throughput_ci90` and `steady_from_s` can be non-finite, and the
/// form is inside recorded digests (DESIGN.md §6).
impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{:.6}", if v.is_finite() { v } else { 0.0 }),
            Value::Flag(v) => write!(f, "{}", u8::from(v)),
            Value::Text(v) => f.write_str(v),
        }
    }
}

/// A report field's type: the [`Value`] it reads as.
trait Cell {
    fn get(&self) -> Value<'_>;
}

macro_rules! cell {
    ($($t:ty: $kind:ident),*) => {$(
        impl Cell for $t {
            fn get(&self) -> Value<'_> {
                Value::$kind((*self).into())
            }
        }
    )*};
}

cell!(u64: Int, u32: Int, f64: Real, bool: Flag);

impl Cell for String {
    fn get(&self) -> Value<'_> {
        Value::Text(self)
    }
}

/// A confidence interval reads as its half-width, the one number both
/// formats write.
impl Cell for ConfidenceInterval {
    fn get(&self) -> Value<'_> {
        Value::Real(self.half_width)
    }
}

// Merge rules: each folds the replications' values of one field, in
// report order, so merged floats are the same bits for the same
// reports. A rule with a second field reads it alongside.

/// The first replication's: what names the cell.
fn first<'a, T: Clone + 'a>(mut values: impl Iterator<Item = &'a T>) -> T {
    values.next().expect("at least one replication").clone()
}

/// The sum: counts, and the total simulated time.
fn sum<'a, T: Copy + std::iter::Sum + 'a>(values: impl Iterator<Item = &'a T>) -> T {
    values.copied().sum()
}

/// `sum / n`, unweighted: every replication runs the same number of
/// measured transactions.
fn mean<'a>(values: impl ExactSizeIterator<Item = &'a f64>) -> f64 {
    let n = values.len() as f64;
    values.copied().sum::<f64>() / n
}

/// The largest value; a flag is set if any replication's is.
fn max<'a, T: Copy + Ord + Default + 'a>(values: impl Iterator<Item = &'a T>) -> T {
    values.copied().max().unwrap_or_default()
}

/// Set only if every replication's is.
fn all<'a>(mut values: impl Iterator<Item = &'a bool>) -> bool {
    values.all(|&v| v)
}

/// The mean weighted by the second field (0 when those weights sum to 0).
fn weighted<'a>(values: impl Iterator<Item = (&'a f64, &'a u64)> + Clone) -> f64 {
    let total: u64 = values.clone().map(|(_, &w)| w).sum();
    if total == 0 {
        return 0.0;
    }
    values.map(|(&v, &w)| v * w as f64).sum::<f64>() / total as f64
}

/// The largest value if the second field is set in every replication,
/// NaN otherwise: the conservative steady-state onset.
fn max_if_all<'a>(values: impl Iterator<Item = (&'a f64, &'a bool)> + Clone) -> f64 {
    if values.clone().all(|(_, &set)| set) {
        values.map(|(&v, _)| v).fold(0.0, f64::max)
    } else {
        f64::NAN
    }
}

/// The independent-replications estimate from the second field: its
/// mean ± `t₀.₉₅(n−1)·s/√n`, which supersedes each run's batch-means
/// interval.
fn interval_of<'a, T: 'a>(values: impl Iterator<Item = (&'a T, &'a f64)>) -> ConfidenceInterval {
    let mut t = Tally::new();
    values.for_each(|(_, &v)| t.record(v));
    let n = t.count();
    let half_width =
        simkernel::stats::t_critical_90(n.saturating_sub(1)) * t.std_dev() / (n as f64).sqrt();
    ConfidenceInterval {
        mean: t.mean(),
        half_width,
        batches: n,
    }
}

/// The mean over replications, accumulated as [`interval_of`]
/// accumulates it: that interval's centre, bit for bit.
fn replicated<'a>(values: impl Iterator<Item = &'a f64>) -> f64 {
    interval_of(values.map(|v| (v, v))).mean
}

/// One report field: its JSON key, its CSV key (`None` when only the
/// JSON has it), its getter, and its merge rule applied to the
/// replications. The setter writes the schema tests' sentinels.
struct Row<T> {
    json: &'static str,
    csv: Option<&'static str>,
    get: for<'a> fn(&'a T) -> Value<'a>,
    merge: fn(&mut T, &[&T]),
    #[cfg(test)]
    set: fn(&mut T, Value<'_>),
}

/// The [`Row`] of `field`, which it names once for the getter, the
/// setter and the merge. `row!(field, rule)` is in the JSON only, under
/// the field's name; `csv` adds it to the CSV under the same key,
/// `csv "key"` under its own, and `as "key"` renames it in both. A
/// rule in parentheses reads another field alongside.
macro_rules! row {
    ($field:ident $(as $key:literal)?, $rule:ident $(($arg:ident))? $(, $csv:ident $($csv_key:literal)?)?) => {
        Row {
            json: row!(@key $field $($key)?),
            csv: row!(@csv row!(@key $field $($key)?) $(, $csv $($csv_key)?)?),
            get: |r| r.$field.get(),
            merge: |out, parts| out.$field = $rule(parts.iter().map(|p| (&p.$field $(, &p.$arg)?))),
            #[cfg(test)]
            set: |r, v| tests::Set::set(&mut r.$field, v),
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@csv $key:expr) => { None };
    (@csv $key:expr, csv) => { Some($key) };
    (@csv $key:expr, csv $csv_key:literal) => { Some($csv_key) };
}

/// A nested report struct: its JSON key, its CSV key prefix (`None`
/// when the CSV writes it elsewhere or not at all), and its writers and
/// merge, through the one place that names the field.
struct Nest<T> {
    json: &'static str,
    csv: Option<&'static str>,
    write_json: fn(&T, &mut Json),
    write_csv: fn(&T, &str, &str, &mut String),
    merge: fn(&mut T, &[&T]),
}

/// The [`Nest`] of `field`, a [`Table`] written under the field's name.
macro_rules! nest {
    ($field:ident, $csv:expr) => {
        Nest {
            json: stringify!($field),
            csv: $csv,
            write_json: |r, j| write_object(j, &r.$field),
            write_csv: |r, section, prefix, out| write_csv(out, section, prefix, &r.$field),
            merge: |out, parts| out.$field = merge_by(parts, |p| &p.$field),
        }
    };
}

/// A report struct whose fields are the rows of one table.
trait Table: Clone + 'static {
    /// Scalars, in both formats' order.
    const ROWS: &'static [Row<Self>] = &[];
    /// Nested structs, after the scalars.
    const NESTED: &'static [Nest<Self>] = &[];
    /// Scalars written after everything else, and only when set, so a
    /// report without them keeps its bytes.
    const TRAILER: &'static [Row<Self>] = &[];
}

/// Write `v` as one JSON object.
fn write_object<T: Table>(j: &mut Json, v: &T) {
    j.begin_object();
    for row in T::ROWS {
        j.field(row.json, (row.get)(v));
    }
    for nest in T::NESTED {
        j.key(nest.json);
        (nest.write_json)(v, j);
    }
    for row in set_rows(T::TRAILER, v) {
        j.field(row.json, (row.get)(v));
    }
    j.end_object();
}

/// Write `v`'s CSV rows and those of each nested struct with a prefix.
fn write_csv<T: Table>(out: &mut String, section: &str, prefix: &str, v: &T) {
    csv_rows(out, section, prefix, T::ROWS, v);
    for nest in T::NESTED {
        if let Some(prefix) = nest.csv {
            (nest.write_csv)(v, section, prefix, out);
        }
    }
}

/// One `section,prefix+key,value` line per CSV row.
fn csv_rows<'r, T: 'r>(
    out: &mut String,
    section: &str,
    prefix: &str,
    rows: impl IntoIterator<Item = &'r Row<T>>,
    v: &T,
) {
    for row in rows {
        if let Some(key) = row.csv {
            let _ = writeln!(out, "{section},{prefix}{key},{}", (row.get)(v));
        }
    }
}

/// The rows whose flag is set in `v`.
fn set_rows<'r, T>(rows: &'r [Row<T>], v: &'r T) -> impl Iterator<Item = &'r Row<T>> {
    rows.iter().filter(|row| (row.get)(v) == Value::Flag(true))
}

/// Merge the `T` that `f` picks out of each replication.
fn merge_by<P, T: Table>(parts: &[&P], f: impl Fn(&P) -> &T) -> T {
    merge(&parts.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// Merge replications (`parts` is never empty), every row by its rule
/// and every nested struct by its own table.
fn merge<T: Table>(parts: &[&T]) -> T {
    let mut out = parts[0].clone();
    for row in T::ROWS.iter().chain(T::TRAILER) {
        (row.merge)(&mut out, parts);
    }
    for nest in T::NESTED {
        (nest.merge)(&mut out, parts);
    }
    out
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

impl Table for Utilizations {
    const ROWS: &'static [Row<Self>] =
        &[row!(cpu, mean), row!(data_disk, mean), row!(log_disk, mean)];
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

impl Table for LatencySummary {
    const ROWS: &'static [Row<Self>] = &[
        row!(count, sum),
        row!(mean_s, mean),
        row!(p50_s, mean, csv),
        row!(p90_s, mean, csv),
        row!(p99_s, mean, csv),
    ];
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

impl Table for PhaseLatencies {
    const NESTED: &'static [Nest<Self>] = &[
        nest!(execution, Some("exec_")),
        nest!(voting, Some("vote_")),
        nest!(decision, Some("ack_")),
    ];
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

impl Table for ResourceStats {
    const ROWS: &'static [Row<Self>] = &[
        row!(utilization, mean, csv "util"),
        row!(mean_queue_depth, mean, csv "queue_mean"),
        row!(max_queue_depth, max, csv "queue_max"),
        row!(mean_wait_s, mean, csv "wait_s"),
        row!(queue_depth_p50, mean, csv "occ_p50"),
        row!(queue_depth_p90, mean, csv "occ_p90"),
        row!(queue_depth_p99, mean, csv "occ_p99"),
    ];
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

impl Table for ResourceReport {
    const NESTED: &'static [Nest<Self>] = &[
        nest!(cpu, Some("cpu_")),
        nest!(data_disk, Some("data_disk_")),
        nest!(log_disk, Some("log_disk_")),
    ];
}

impl ResourceReport {
    /// Average a set of per-site reports into one class-level view by
    /// [`ResourceStats`]' merge rules: the max queue depth is the max
    /// over sites, and every other statistic is averaged. Returns the
    /// default (all-zero) report for an empty slice. Also merges one
    /// site's replications in [`SimReport::merge_replications`].
    pub fn average(sites: &[ResourceReport]) -> ResourceReport {
        if sites.is_empty() {
            return ResourceReport::default();
        }
        merge(&sites.iter().collect::<Vec<_>>())
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

impl Table for OverheadCheck {
    const ROWS: &'static [Row<Self>] = &[
        row!(checked_commits, sum),
        row!(mismatched_commits, sum),
        row!(message_delta, sum),
        row!(forced_write_delta, sum),
    ];
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

impl Table for FaultCounters {
    const ROWS: &'static [Row<Self>] = &[
        row!(master_crashes, sum),
        row!(cohort_crashes, sum),
        row!(messages_lost, sum),
        row!(retransmissions, sum),
        row!(retry_escalations, sum),
        row!(termination_rounds, sum),
        row!(master_crash_trials, sum),
        row!(cohort_crash_trials, sum),
        row!(message_loss_trials, sum),
        row!(blocked_on_crash_cohorts, sum),
        row!(mean_blocked_on_crash_s, weighted(blocked_on_crash_cohorts)),
    ];
}

impl FaultCounters {
    /// True when no fault of any kind fired (the no-failure invariant).
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
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

impl Table for ConvergenceReport {
    const ROWS: &'static [Row<Self>] = &[
        row!(samples, sum, csv),
        row!(converged, all, csv),
        row!(steady_from_s, max_if_all(converged), csv),
        row!(warmup_ended_s, mean, csv),
        row!(warmup_sufficient, all, csv),
    ];
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

/// The scalars are the CSV's `run` section; the CSV writes the nested
/// structs in its own order (`render_csv`).
impl Table for SimReport {
    const ROWS: &'static [Row<Self>] = &[
        row!(protocol, first, csv),
        row!(mpl, first, csv),
        row!(sim_seconds, sum, csv),
        row!(committed, sum, csv),
        row!(aborted_deadlock, sum, csv),
        row!(aborted_surprise, sum, csv),
        row!(aborted_borrower, sum, csv),
        row!(aborted_crash, sum, csv),
        row!(throughput, replicated, csv),
        row!(throughput_ci as "throughput_ci90", interval_of(throughput), csv),
        row!(mean_response_s, mean, csv),
        row!(p50_response_s, mean, csv),
        row!(p95_response_s, mean, csv),
        row!(p99_response_s, mean, csv),
        row!(mean_attempt_response_s, mean),
        row!(block_ratio, mean, csv),
        row!(borrow_ratio, mean, csv),
        row!(exec_messages_per_commit, mean, csv),
        row!(commit_messages_per_commit, mean, csv),
        row!(forced_writes_per_commit, mean, csv),
        row!(mean_shelf_time_s, mean),
        row!(mean_prepared_time_s, mean),
        row!(mean_log_batch, mean, csv),
        row!(events, sum, csv),
    ];
    const NESTED: &'static [Nest<Self>] = &[
        PHASES,
        nest!(utilizations, None),
        RESOURCES,
        SITES,
        nest!(overhead_check, None),
        nest!(faults, None),
        CONVERGENCE,
    ];
    const TRAILER: &'static [Row<Self>] = &[row!(truncated, max, csv)];
}

const PHASES: Nest<SimReport> = nest!(phase_latencies, None);
const CONVERGENCE: Nest<SimReport> = nest!(convergence, None);

/// The site-averaged view: derived, not stored, so the merge passes it
/// by.
const RESOURCES: Nest<SimReport> = Nest {
    json: "resources",
    csv: None,
    write_json: |r, j| write_object(j, &r.resources()),
    write_csv: |r, section, prefix, out| write_csv(out, section, prefix, &r.resources()),
    merge: |_, _| {},
};

/// One resource report per site: a JSON array, CSV sections
/// `{section}{i}`, merged site by site over the sites every replication
/// has.
const SITES: Nest<SimReport> = Nest {
    json: "site_resources",
    csv: None,
    write_json: |r, j| {
        j.begin_array();
        for site in &r.site_resources {
            write_object(j, site);
        }
        j.end_array();
    },
    write_csv: |r, section, _, out| {
        for (i, site) in r.site_resources.iter().enumerate() {
            write_csv(out, &format!("{section}{i}"), "", site);
        }
    },
    merge: |out, parts| {
        let sites = parts.iter().map(|r| r.site_resources.len()).min();
        out.site_resources = (0..sites.unwrap_or(0))
            .map(|i| merge_by(parts, |r| &r.site_resources[i]))
            .collect();
    },
};

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
    /// Each field merges by the rule named in its row of this module's
    /// field tables (`row!(field, rule, ..)`), over the replications in
    /// report order. Per-site resources merge site by site over the
    /// sites every replication has. The throughput confidence interval
    /// is computed *across replications* — mean ± `t₀.₉₅(n−1)·s/√n`
    /// over the per-replication throughputs — which is the textbook
    /// independent-replications estimator and supersedes the per-run
    /// batch-means interval. A single replication is returned
    /// unchanged, so `replications = 1` is bit-identical to a plain
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn merge_replications(reports: &[SimReport]) -> SimReport {
        assert!(!reports.is_empty(), "cannot merge zero replications");
        if reports.len() == 1 {
            return reports[0].clone();
        }
        merge(&reports.iter().collect::<Vec<_>>())
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
        let mut out = String::from("section,key,value\n");
        csv_rows(&mut out, "run", "", Self::ROWS, self);
        for (section, nest) in [
            ("convergence", CONVERGENCE),
            ("phase", PHASES),
            ("resources", RESOURCES),
            ("site", SITES),
        ] {
            (nest.write_csv)(self, section, "", &mut out);
        }
        csv_rows(&mut out, "run", "", set_rows(Self::TRAILER, self), self);
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
        write_object(j, self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The setter half of [`Cell`], which only the schema tests write
    /// through.
    pub(super) trait Set {
        fn set(&mut self, value: Value<'_>);
    }

    macro_rules! set {
        ($($t:ty: $kind:ident),*) => {$(
            impl Set for $t {
                fn set(&mut self, value: Value<'_>) {
                    let Value::$kind(v) = value else { panic!("{value:?} set into a {}", stringify!($t)) };
                    *self = v.try_into().expect("a sentinel of the field's type");
                }
            }
        )*};
    }

    set!(u64: Int, u32: Int, f64: Real, bool: Flag, String: Text);

    impl Set for ConfidenceInterval {
        fn set(&mut self, value: Value<'_>) {
            self.half_width.set(value);
        }
    }

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

    /// Every field of every report struct, by name: a new field fails to
    /// compile here until it is listed, and the test fails until its
    /// struct's table has a row (or a nested struct) under its name.
    #[test]
    fn every_report_field_has_a_row() {
        fn keys<T: Table>() -> Vec<&'static str> {
            let rows = T::ROWS.iter().chain(T::TRAILER).map(|row| row.json);
            let mut keys: Vec<_> = rows.chain(T::NESTED.iter().map(|n| n.json)).collect();
            keys.sort_unstable();
            keys
        }
        /// The field names of `$t`, destructured from `$value` without `..`.
        macro_rules! fields {
            ($value:expr => $t:ident { $($field:ident),* $(,)? }) => {{
                let $t { $($field: _),* } = $value;
                let mut fields = vec![$(stringify!($field)),*];
                fields.sort_unstable();
                fields
            }};
        }
        let r = sample_report();
        let latency = fields!(r.phase_latencies.execution => LatencySummary {
            count, mean_s, p50_s, p90_s, p99_s,
        });
        assert_eq!(latency, keys::<LatencySummary>());
        let phases = fields!(r.phase_latencies => PhaseLatencies { execution, voting, decision });
        assert_eq!(phases, keys::<PhaseLatencies>());
        let utilizations = fields!(r.utilizations => Utilizations { cpu, data_disk, log_disk });
        assert_eq!(utilizations, keys::<Utilizations>());
        let stats = fields!(r.site_resources[0].cpu => ResourceStats {
            utilization, mean_queue_depth, max_queue_depth, mean_wait_s,
            queue_depth_p50, queue_depth_p90, queue_depth_p99,
        });
        assert_eq!(stats, keys::<ResourceStats>());
        let classes = fields!(r.site_resources[0] => ResourceReport { cpu, data_disk, log_disk });
        assert_eq!(classes, keys::<ResourceReport>());
        let overheads = fields!(r.overhead_check => OverheadCheck {
            checked_commits, mismatched_commits, message_delta, forced_write_delta,
        });
        assert_eq!(overheads, keys::<OverheadCheck>());
        let faults = fields!(r.faults => FaultCounters {
            master_crashes, cohort_crashes, messages_lost, retransmissions,
            retry_escalations, termination_rounds, master_crash_trials,
            cohort_crash_trials, message_loss_trials, blocked_on_crash_cohorts,
            mean_blocked_on_crash_s,
        });
        assert_eq!(faults, keys::<FaultCounters>());
        let convergence = fields!(r.convergence => ConvergenceReport {
            samples, converged, steady_from_s, warmup_ended_s, warmup_sufficient,
        });
        assert_eq!(convergence, keys::<ConvergenceReport>());
        let mut report = fields!(r => SimReport {
            protocol, mpl, sim_seconds, committed, aborted_deadlock, aborted_surprise,
            aborted_borrower, aborted_crash, throughput, throughput_ci, mean_response_s,
            p50_response_s, p95_response_s, p99_response_s, mean_attempt_response_s,
            block_ratio, borrow_ratio, exec_messages_per_commit, commit_messages_per_commit,
            forced_writes_per_commit, mean_shelf_time_s, mean_prepared_time_s,
            phase_latencies, utilizations, site_resources, overhead_check, mean_log_batch,
            faults, convergence, events, truncated,
        });
        // The report's table writes `throughput_ci` as `throughput_ci90`,
        // and adds the derived site average.
        for name in &mut report {
            if *name == "throughput_ci" {
                *name = "throughput_ci90";
            }
        }
        report.push("resources");
        report.sort_unstable();
        assert_eq!(report, keys::<SimReport>());
    }

    /// Writes a sentinel through every row's setter and checks that the
    /// JSON changed at that row's key and nowhere else, and the CSV at
    /// that row's CSV key or, for a JSON-only row, not at all. Two rows
    /// bound to one field, a getter and setter of different fields, or
    /// a JSON-only row leaking into the CSV fail here.
    #[test]
    fn every_row_reads_and_writes_its_own_key() {
        fn check<T: Table>(base: &T) {
            let json = |v: &T| {
                let mut j = Json::default();
                write_object(&mut j, v);
                j.finish()
            };
            let csv = |v: &T| {
                let mut out = String::new();
                write_csv(&mut out, "s", "", v);
                out
            };
            let member = |key: &str, value: Value<'_>| {
                let mut j = Json::default();
                j.begin_object().field(key, value).end_object();
                let m = j.finish();
                m[1..m.len() - 1].to_string()
            };
            for row in T::ROWS {
                let key = row.json;
                let old = (row.get)(base);
                let new = match old {
                    Value::Int(_) => Value::Int(4_242_424_242),
                    Value::Real(_) => Value::Real(4242.125),
                    Value::Flag(v) => Value::Flag(!v),
                    Value::Text(_) => Value::Text("sentinel"),
                };
                let mut set = base.clone();
                (row.set)(&mut set, new);
                assert_eq!((row.get)(&set), new, "{key}");
                let before = json(base);
                assert_eq!(before.matches(&format!("\"{key}\":")).count(), 1, "{key}");
                let moved = before.replacen(&member(key, old), &member(key, new), 1);
                assert_eq!(json(&set), moved, "{key}");
                let moved = match row.csv {
                    Some(k) => {
                        csv(base).replacen(&format!("s,{k},{old}\n"), &format!("s,{k},{new}\n"), 1)
                    }
                    None => csv(base),
                };
                assert_eq!(csv(&set), moved, "{key}");
            }
        }
        let mut r = sample_report();
        r.utilizations = Utilizations {
            cpu: 0.25,
            data_disk: 0.5,
            log_disk: 0.75,
        };
        r.faults.master_crashes = 3;
        check(&r);
        check(&r.phase_latencies.voting);
        check(&r.utilizations);
        check(&r.site_resources[0].cpu);
        check(&r.overhead_check);
        check(&r.faults);
        check(&r.convergence);
        // The trailer is written last, and only when set.
        let mut cut = r.clone();
        cut.truncated = true;
        let json = r.render(ReportFormat::Json);
        let cut_json = format!("{},\"truncated\":true}}", &json[..json.len() - 1]);
        assert_eq!(cut.render(ReportFormat::Json), cut_json);
        let cut_csv = r.render(ReportFormat::Csv) + "run,truncated,1\n";
        assert_eq!(cut.render(ReportFormat::Csv), cut_csv);
    }

    /// One two-report case per merge rule, bit for bit.
    #[test]
    fn each_merge_rule_on_two_reports() {
        let a = sample_report();
        let mut b = sample_report();
        b.protocol = "3PC".into(); // first
        b.mpl = 8;
        b.committed = 1_100; // sum
        b.sim_seconds = 0.1;
        b.block_ratio = 0.4; // mean
        b.site_resources[0].cpu.max_queue_depth = 10; // max
        b.truncated = true; // max, of a flag
        b.convergence.warmup_sufficient = false; // all
        b.convergence.steady_from_s = 4.0; // max_if_all
        b.faults.blocked_on_crash_cohorts = 3; // weighted
        b.faults.mean_blocked_on_crash_s = 1.0;
        let mut a_faults = a.clone();
        a_faults.faults.blocked_on_crash_cohorts = 1;
        a_faults.faults.mean_blocked_on_crash_s = 5.0;
        b.throughput = 11.0; // replicated, interval_of
        let m = SimReport::merge_replications(&[a_faults.clone(), b.clone()]);
        assert_eq!((m.protocol.as_str(), m.mpl), ("2PC", 4));
        assert_eq!(m.committed, 2_000);
        assert_eq!(m.sim_seconds.to_bits(), (100.0_f64 + 0.1).to_bits());
        assert_eq!(m.block_ratio.to_bits(), ((0.2_f64 + 0.4) / 2.0).to_bits());
        assert_eq!(m.site_resources[0].cpu.max_queue_depth, 10);
        assert!(m.truncated);
        assert!(!m.convergence.warmup_sufficient && m.convergence.converged);
        assert_eq!(m.convergence.steady_from_s, 4.0);
        assert_eq!(m.faults.mean_blocked_on_crash_s, (5.0 + 3.0) / 4.0);
        let mut t = Tally::new();
        t.record(9.0);
        t.record(11.0);
        assert_eq!(m.throughput.to_bits(), t.mean().to_bits());
        let ci = m.throughput_ci;
        assert_eq!((ci.mean.to_bits(), ci.batches), (t.mean().to_bits(), 2));
        let half = simkernel::stats::t_critical_90(1) * t.std_dev() / 2.0_f64.sqrt();
        assert_eq!(ci.half_width.to_bits(), half.to_bits());
        // No blocked cohorts weigh to 0, and one unconverged
        // replication leaves no steady-state onset.
        b.convergence.converged = false;
        b.faults.blocked_on_crash_cohorts = 0;
        let m = SimReport::merge_replications(&[a, b]);
        assert_eq!(m.faults.mean_blocked_on_crash_s, 0.0);
        assert!(m.convergence.steady_from_s.is_nan() && !m.convergence.converged);
    }
}
