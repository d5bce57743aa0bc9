//! The distributed-DBMS simulation engine.
//!
//! One [`Simulation`] is one run of the closed queueing model of §4 of
//! the paper under a chosen commit protocol: `MPL` transactions per
//! site, master/cohort execution, strict 2PL with immediate global
//! deadlock detection, and the full message/forced-write choreography
//! of the selected protocol (2PC, PA, PC, 3PC, the OPT variants, or
//! the CENT/DPCC baselines).
//!
//! The engine is event-driven and deterministic: given the same
//! configuration, protocol, and seed it reproduces the same metrics
//! bit for bit.
//!
//! [`Simulation::run_observed`] is the one run body: it builds the
//! simulation, lends it the caller's [`Observers`] (a [`TraceSink`] for
//! the first `n` transactions and a windowed [`Series`], buffered or
//! streamed, in any combination), executes it, finishes the observers
//! and builds the report. [`Simulation::run`] is the plain run, and
//! `run_with_sink` and `run_with_series_stream` are one-statement
//! wrappers kept for the benchmark, which calls them.

pub mod chrome;
mod commit;
mod exec;
pub mod fold;
mod glog;
pub mod series;
#[cfg(test)]
mod tests;
pub mod trace;
mod types;

pub use chrome::{chrome_trace_json, ChromeStreamSink, ChromeWriter};
pub use fold::FoldSink;
pub use series::{
    Series, SeriesConfig, SeriesFormat, SeriesMeta, SeriesOut, SeriesWindow, SiteSample,
};
pub use trace::{LogLabel, MsgLabel, Trace, TraceEvent, TraceSink};
pub use types::{CohortId, TxnId};

use crate::config::{ConfigError, ResourceMode, SystemConfig};
use crate::metrics::{
    LatencySummary, Metrics, PhaseLatencies, ResourceReport, ResourceStats, SimReport, Utilizations,
};
use crate::workload::{SiteId, WorkloadGenerator};
use commitproto::{Outcome, ProtocolSpec, Routing, SpecTable};
use distlocks::{Grant, LockManager, OwnerId};
use simkernel::stats::Tally;
use simkernel::{Calendar, JobClass, SimDuration, SimRng, SimTime, Slab, Station};
use types::{
    Cohort, CohortH, CpuJob, DiskJob, Event, LogWork, Message, MsgKind, Restart, RestartH, Retry,
    Txn, TxnH,
};

/// Accumulates per-station observations into one [`ResourceStats`] for
/// a resource class *within one site* (utilizations/queue depths
/// averaged across the class's stations, max depth taken over them,
/// occupancy histograms merged — valid because each is a time
/// integral).
#[derive(Default)]
struct ResourceAcc {
    util: f64,
    queue: f64,
    wait_s: f64,
    max_queue: usize,
    occupancy: simkernel::stats::OccupancyHistogram,
    n: usize,
}

impl ResourceAcc {
    fn push(
        &mut self,
        util: f64,
        queue: f64,
        wait_s: f64,
        max_queue: usize,
        occupancy: &simkernel::stats::OccupancyHistogram,
    ) {
        self.util += util;
        self.queue += queue;
        self.wait_s += wait_s;
        self.max_queue = self.max_queue.max(max_queue);
        self.occupancy.merge(occupancy);
        self.n += 1;
    }

    fn stats(&self) -> ResourceStats {
        let n = self.n.max(1) as f64;
        ResourceStats {
            utilization: self.util / n,
            mean_queue_depth: self.queue / n,
            max_queue_depth: self.max_queue as u64,
            mean_wait_s: self.wait_s / n,
            queue_depth_p50: self.occupancy.p50() as f64,
            queue_depth_p90: self.occupancy.p90() as f64,
            queue_depth_p99: self.occupancy.p99() as f64,
        }
    }
}

/// One site's physical resources and lock table.
pub(crate) struct Site {
    pub cpu: Station<CpuJob>,
    pub data_disks: Vec<Station<DiskJob>>,
    pub log_disks: Vec<Station<LogWork>>,
    /// Group-commit batchers, one per log disk, when the optimization
    /// is enabled (the plain `log_disks` stations sit unused then).
    pub batched_logs: Option<Vec<glog::BatchedLog>>,
    pub locks: LockManager,
    /// Mirror of the lock table's owner registry: owner slot → cohort
    /// handle, maintained in lock-step with `register_owner` calls.
    pub owner_cohorts: Vec<CohortH>,
    next_log_disk: usize,
}

impl Site {
    /// The cohort registered at lock-owner slot `o`. Valid only while
    /// `o` is registered; the engine only resolves owners surfaced by
    /// the lock table (grants, blockers, borrow edges), which are
    /// always live or recently live — a recycled slot yields a stale
    /// cohort handle that safely misses on slab lookup.
    pub(crate) fn cohort_of(&self, o: OwnerId) -> CohortH {
        self.owner_cohorts[o.index()]
    }
}

/// A run of the simulator. Construct and execute with [`Simulation::run_observed`].
pub struct Simulation<'a> {
    pub(crate) cfg: SystemConfig,
    pub(crate) spec: ProtocolSpec,
    /// The declarative behaviour table of `spec.base` — the engine is a
    /// generic interpreter of these columns; no code path matches on
    /// the protocol name.
    pub(crate) table: SpecTable,
    pub(crate) wl: WorkloadGenerator,
    pub(crate) cal: Calendar<Event>,
    pub(crate) rng: SimRng,
    pub(crate) sites: Vec<Site>,
    pub(crate) txns: Slab<TxnH, Txn>,
    pub(crate) cohorts: Slab<CohortH, Cohort>,
    /// Aborted transactions waiting out their restart delay.
    pub(crate) restarts: Slab<RestartH, Restart>,
    /// Retired transactions' buffers, reused by the next submissions.
    pub(crate) spares: exec::Spares,
    next_txn_id: TxnId,
    next_cohort_id: CohortId,
    pub(crate) metrics: Metrics,
    /// All-time committed response times — drives the restart-delay
    /// heuristic ("the length of the delay is equal to the average
    /// transaction response time", §4). Never reset.
    pub(crate) resp_estimate: Tally,
    total_commits: u64,
    commit_target: u64,
    warmup_target: u64,
    done: bool,
    truncated: bool,
    pages_per_site_eff: u64,
    /// Per-site-pair wire latency (flattened row-major `n×n`), built
    /// once from the topology's dedicated RNG stream. `None` without a
    /// topology; zero entries take the classic instantaneous-switch
    /// path, so a degenerate all-zero matrix is byte-identical to no
    /// topology at all.
    wire_latency: Option<Vec<SimDuration>>,
    /// The wait-for graph as lists recorded when a request blocks, by
    /// cohort slab slot: what both deadlock searches read.
    waits: exec::WaitIndex,
    /// Deadlock-detection scratch: the search's stamp arrays and
    /// stacks, the cycle walk's successor buffer and path.
    dl: exec::DeadlockScratch,
    /// The buffer `change_locks` lends each lock-table change for the
    /// grants it releases.
    grants: Vec<Grant>,
    /// A decided lender's borrowers, as owner slots and then as
    /// cohorts (`cohort_finish_decision`'s reused buffers).
    settled: Vec<OwnerId>,
    borrowers: Vec<CohortH>,
    /// Optional trace-event consumer; events are recorded for
    /// transactions with id ≤ `trace_txn_limit`.
    sink: Option<&'a mut dyn TraceSink>,
    trace_txn_limit: TxnId,
    /// Optional windowed-series recorder (the time-series sink family).
    series: Option<Box<series::SeriesRecorder<'a>>>,
    /// Cached copy of the recorder's next window boundary so the event
    /// loop pays one integer compare per event when no recorder is
    /// installed (`SimTime(u64::MAX)` then).
    series_boundary: SimTime,
}

// The experiment runner fans independent runs out over worker threads:
// everything a worker receives (configuration, protocol spec) and
// returns (the report) must cross thread boundaries, and a whole
// `Simulation` must be constructible on a worker. Compile-time
// assertions so a non-thread-safe field can never sneak in unnoticed.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    const fn send<T: Send>() {}
    send_sync::<SystemConfig>();
    send_sync::<ProtocolSpec>();
    send_sync::<SimReport>();
    send::<Simulation<'static>>();
};

/// What one run feeds as it executes, borrowed from the caller: an
/// optional trace sink and an optional windowed series. The default
/// observes nothing, which is a plain run.
#[derive(Default)]
pub struct Observers<'a> {
    /// Trace the first `n` transactions (`u64::MAX`: all) into the sink.
    pub trace: Option<(u64, &'a mut dyn TraceSink)>,
    /// Record a windowed series into a buffer or onto a writer.
    pub series: Option<(SeriesConfig, SeriesOut<'a>)>,
}

/// Why a run failed: a bad configuration, or the series writer failed.
#[derive(Debug)]
pub enum RunError {
    /// Invalid configuration, protocol spec or series window.
    Config(ConfigError),
    /// The series writer failed.
    Io(std::io::Error),
}

impl RunError {
    /// The error of a run with no series writer to fail.
    pub(crate) fn into_config(self) -> ConfigError {
        match self {
            RunError::Config(e) => e,
            RunError::Io(e) => unreachable!("a run without a series writer did I/O: {e}"),
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "{e}"),
            RunError::Io(e) => write!(f, "series output failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

impl Simulation<'_> {
    /// Run `cfg` under `spec` with the given RNG `seed` and return the
    /// measured report.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid or the spec is
    /// meaningless (OPT over a baseline).
    pub fn run(
        cfg: &SystemConfig,
        spec: ProtocolSpec,
        seed: u64,
    ) -> Result<SimReport, ConfigError> {
        Simulation::run_observed(cfg, spec, seed, Observers::default())
            .map_err(RunError::into_config)
    }

    /// [`Simulation::run_observed`] with a trace sink only, handed back
    /// with the report.
    ///
    /// # Errors
    /// As [`Simulation::run`].
    pub fn run_with_sink<S: TraceSink>(
        cfg: &SystemConfig,
        spec: ProtocolSpec,
        seed: u64,
        traced_txns: u64,
        mut sink: S,
    ) -> Result<(SimReport, S), ConfigError> {
        Simulation::run_observed(
            cfg,
            spec,
            seed,
            Observers {
                trace: Some((traced_txns, &mut sink)),
                series: None,
            },
        )
        .map(|r| (r, sink))
        .map_err(RunError::into_config)
    }

    /// [`Simulation::run_observed`] with a streamed series only.
    ///
    /// # Errors
    /// As [`Simulation::run_observed`].
    pub fn run_with_series_stream(
        cfg: &SystemConfig,
        spec: ProtocolSpec,
        seed: u64,
        series_cfg: &SeriesConfig,
        mut writer: Box<dyn std::io::Write + Send>,
        format: SeriesFormat,
    ) -> Result<SimReport, RunError> {
        Simulation::run_observed(
            cfg,
            spec,
            seed,
            Observers {
                trace: None,
                series: Some((*series_cfg, SeriesOut::Stream(&mut *writer, format))),
            },
        )
    }

    /// Like [`Simulation::run`], but feeds `obs` as the run executes;
    /// every other entry point calls this one. The engine buffers no
    /// events, so memory use is whatever the observers retain. Observing
    /// a run does not perturb it: the report is identical to a plain
    /// run's with the same inputs.
    ///
    /// # Errors
    /// [`RunError::Config`] before any event runs, for an invalid
    /// configuration, a meaningless spec (OPT over a baseline) or a zero
    /// series window; [`RunError::Io`] when the series writer fails. A
    /// failed series ends the run at the next window boundary, so the
    /// trace sink, if any, sees the events up to there and is finished.
    pub fn run_observed(
        cfg: &SystemConfig,
        spec: ProtocolSpec,
        seed: u64,
        obs: Observers<'_>,
    ) -> Result<SimReport, RunError> {
        if obs.series.as_ref().is_some_and(|(s, _)| s.window.is_zero()) {
            return Err(ConfigError::Invalid("series window must be positive").into());
        }
        let mut sim = Simulation::new(cfg, spec, seed)?;
        if let Some((traced_txns, sink)) = obs.trace {
            sim.trace_txn_limit = traced_txns;
            sim.sink = Some(sink);
        }
        if let Some((scfg, out)) = obs.series {
            let meta = SeriesMeta {
                protocol: spec.name().to_string(),
                mpl: cfg.mpl,
                seed,
                window_s: scfg.window.as_secs_f64(),
                per_site: scfg.per_site,
            };
            let warmup = sim.warmup_target > 0;
            let rec = series::SeriesRecorder::new(&scfg, meta, sim.sites.len(), warmup, out)?;
            sim.series_boundary = rec.next_boundary();
            sim.series = Some(Box::new(rec));
        }
        sim.execute();
        // Every debug run, test and golden ends by auditing its tables
        // and the wait-for index the deadlock searches read.
        if cfg!(debug_assertions) {
            for (si, site) in sim.sites.iter().enumerate() {
                if let Err(e) = site.locks.audit() {
                    panic!("lock table at site {si} fails its audit: {e}");
                }
            }
            if let Err(e) = sim.audit_wait_index() {
                panic!("wait-for index fails its audit: {e}");
            }
        }
        if let Some(sink) = sim.sink.as_mut() {
            sink.finish();
        }
        if let Some(rec) = sim.series.take() {
            rec.finish(sim.end(), &mut sim.metrics, &sim.sites)?;
        }
        Ok(sim.report())
    }

    /// Record one trace event for `txn`, if tracing is active and the
    /// transaction is within the traced prefix.
    pub(crate) fn trace_event(&mut self, txn: TxnId, make: impl FnOnce(SimTime) -> TraceEvent) {
        if self.trace_txn_limit >= txn {
            let now = self.cal.now();
            if let Some(sink) = self.sink.as_mut() {
                sink.record(&make(now));
            }
        }
    }

    fn new(cfg: &SystemConfig, spec: ProtocolSpec, seed: u64) -> Result<Self, ConfigError> {
        cfg.validate_for(spec)?;
        let table = spec.base.table();
        let wl = WorkloadGenerator::new(cfg, spec.base);
        let num_sites = wl.effective_sites();
        // CENT merges every site's hardware into one station pool
        // ("equivalent in terms of database size and physical
        // resources", §5.1).
        let merge = cfg.num_sites / num_sites;
        let cpus = cfg.num_cpus as usize * merge;
        let data_disks = cfg.num_data_disks as usize * merge;
        let log_disks = cfg.num_log_disks as usize * merge;
        let pages_per_site_eff = cfg.pages_per_site() * merge as u64;

        // Generic over the job type (CPU and disk stations queue
        // different jobs), so a fn rather than a closure.
        fn station<J>(resources: ResourceMode, units: usize) -> Station<J> {
            match resources {
                ResourceMode::Finite => Station::finite(units as u32),
                ResourceMode::Infinite => Station::infinite(),
            }
        }
        let sites = (0..num_sites)
            .map(|_| Site {
                cpu: station(cfg.resources, cpus),
                data_disks: (0..data_disks).map(|_| station(cfg.resources, 1)).collect(),
                log_disks: (0..log_disks).map(|_| station(cfg.resources, 1)).collect(),
                batched_logs: match (cfg.group_commit_batch, cfg.resources) {
                    (Some(k), ResourceMode::Finite) => {
                        Some((0..log_disks).map(|_| glog::BatchedLog::new(k)).collect())
                    }
                    // Nothing queues under infinite resources, so
                    // batching would never group anything.
                    _ => None,
                },
                // Page ids within one effective site are distinct
                // residues modulo `pages_per_site_eff`, so they fold
                // injectively into a dense table of that size.
                locks: LockManager::for_pages(spec.opt, pages_per_site_eff),
                owner_cohorts: Vec::new(),
                next_log_disk: 0,
            })
            .collect();

        let metrics = Metrics::new(
            SimTime::ZERO,
            cfg.run.measured_transactions,
            cfg.run.batches,
        );
        let mut sim = Simulation {
            cfg: cfg.clone(),
            spec,
            table,
            wl,
            cal: Calendar::new(),
            rng: SimRng::new(seed),
            sites,
            txns: Slab::new(),
            cohorts: Slab::new(),
            restarts: Slab::new(),
            spares: exec::Spares::default(),
            next_txn_id: 1,
            next_cohort_id: 1,
            metrics,
            resp_estimate: Tally::new(),
            total_commits: 0,
            commit_target: cfg.run.warmup_transactions + cfg.run.measured_transactions,
            warmup_target: cfg.run.warmup_transactions,
            done: false,
            truncated: false,
            pages_per_site_eff,
            // Keyed by *effective* sites: CENT's merged site pool has
            // no inter-site links, so its matrix is empty/diagonal.
            wire_latency: cfg.topology.map(|t| t.latency_matrix(num_sites, seed)),
            waits: exec::WaitIndex::default(),
            dl: exec::DeadlockScratch::default(),
            grants: Vec::new(),
            settled: Vec::new(),
            borrowers: Vec::new(),
            sink: None,
            trace_txn_limit: 0,
            series: None,
            series_boundary: SimTime(u64::MAX),
        };
        // Closed system: MPL transactions per (effective) site. The
        // merged CENT site carries the whole population.
        let mpl_per_site = cfg.mpl as usize * merge;
        for home in 0..num_sites {
            for _ in 0..mpl_per_site {
                sim.cal.schedule_now(Event::Submit {
                    home,
                    restart: None,
                });
            }
        }
        Ok(sim)
    }

    fn execute(&mut self) {
        while !self.done {
            let Some((now, event)) = self.cal.next() else {
                // A closed system must never drain its calendar: every
                // transaction always has a pending event, a lock wait
                // whose holder has pending events, or a scheduled
                // restart. A drain is an engine bug.
                panic!(
                    "event calendar drained — stuck state:\n{}",
                    self.dump_stuck()
                );
            };
            if let Some(cap) = self.cfg.run.max_sim_time {
                if now > cap {
                    self.truncated = true;
                    break;
                }
            }
            if now >= self.series_boundary {
                self.close_series_windows(now);
                if self.done {
                    break;
                }
            }
            self.dispatch(event);
        }
    }

    /// Close every series window with a boundary at or before `now`
    /// (the recorder is briefly detached to appease the borrow
    /// checker — two pointer moves, only on boundary crossings). A
    /// series stream that has failed ends the run here, before the
    /// event past the boundary runs and off the per-event path: its
    /// result is already [`RunError::Io`].
    fn close_series_windows(&mut self, now: SimTime) {
        if let Some(mut rec) = self.series.take() {
            rec.close_through(now, &mut self.metrics, &self.sites);
            self.series_boundary = rec.next_boundary();
            self.done |= rec.failed();
            self.series = Some(rec);
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Submit { home, restart } => self.submit_txn(home, restart),
            Event::CpuDone { site, job } => {
                let now = self.cal.now();
                if let Some(started) = self.sites[site].cpu.complete(now) {
                    self.cal.schedule_at(
                        started.done_at,
                        Event::CpuDone {
                            site,
                            job: started.job,
                        },
                    );
                }
                self.handle_cpu_done(site, job);
            }
            Event::DataDiskDone { site, disk, job } => {
                let now = self.cal.now();
                if let Some(started) = self.sites[site].data_disks[disk].complete(now) {
                    self.cal.schedule_at(
                        started.done_at,
                        Event::DataDiskDone {
                            site,
                            disk,
                            job: started.job,
                        },
                    );
                }
                self.handle_data_disk_done(job);
            }
            Event::LogDiskDone { site, disk, job } => {
                let now = self.cal.now();
                if let Some(started) = self.sites[site].log_disks[disk].complete(now) {
                    self.cal.schedule_at(
                        started.done_at,
                        Event::LogDiskDone {
                            site,
                            disk,
                            job: started.job,
                        },
                    );
                }
                if let Some(txn) = self.log_txn(&job) {
                    let label = job.label();
                    self.trace_event(txn, |at| TraceEvent::LogDone {
                        at,
                        txn,
                        label,
                        site,
                    });
                }
                self.handle_log_done(job);
            }
            Event::LogBatchDone { site, disk } => {
                let now = self.cal.now();
                let service = self.cfg.page_disk;
                let batcher = &mut self.sites[site]
                    .batched_logs
                    .as_mut()
                    .expect("batch event implies group commit")[disk];
                let (done, next) = batcher.complete(now, service);
                if let Some(done_at) = next {
                    self.cal
                        .schedule_at(done_at, Event::LogBatchDone { site, disk });
                }
                for work in done {
                    if let Some(txn) = self.log_txn(&work) {
                        let label = work.label();
                        self.trace_event(txn, |at| TraceEvent::LogDone {
                            at,
                            txn,
                            label,
                            site,
                        });
                    }
                    self.handle_log_done(work);
                }
            }
            Event::MasterRecovered { txn, commit } => {
                // The recovered master resumes where the crash hit.
                self.decide_now(txn, commit);
            }
            Event::CohortRecovered { cohort } => self.cohort_recovered(cohort),
            Event::MsgRetry { retry, attempt } => self.handle_msg_retry(retry, attempt),
            Event::StartTermination { txn } => self.start_termination(txn),
            Event::LocalMsg { msg } => self.handle_message(msg),
            Event::MsgArrive { msg } => {
                // Wire flight over: the transfer reaches the receiver's
                // CPU queue and pays the usual receive-side MsgCPU.
                self.cpu_arrive(
                    msg.to,
                    CpuJob::MsgRecv { msg },
                    self.cfg.msg_cpu,
                    JobClass::High,
                );
            }
        }
    }

    fn handle_cpu_done(&mut self, _site: SiteId, job: CpuJob) {
        match job {
            CpuJob::Data { cohort } => self.cohort_page_processed(cohort),
            CpuJob::MsgSend { msg } => {
                if msg.lost {
                    // Fault injection dropped this transfer in the
                    // switch: the sender paid its MsgCPU, the receiver
                    // never sees it. The sender's retransmission timer
                    // is already running.
                    return;
                }
                // Without a topology the network is an instantaneous
                // switch (§4): delivery costs only receive-side CPU.
                // Under one, the transfer additionally spends the site
                // pair's wire latency in flight — pure delay, no extra
                // CPU or messages, so the Tables 3–4 overhead counts
                // are unchanged. Zero-latency pairs take the classic
                // path so the event stream (and byte identity with
                // untopologized runs) is preserved.
                let lat = self.pair_latency(msg.from, msg.to);
                if lat.is_zero() {
                    self.cpu_arrive(
                        msg.to,
                        CpuJob::MsgRecv { msg },
                        self.cfg.msg_cpu,
                        JobClass::High,
                    );
                } else {
                    self.cal.schedule_in(lat, Event::MsgArrive { msg });
                }
            }
            CpuJob::MsgRecv { msg } => self.handle_message(msg),
        }
    }

    fn handle_data_disk_done(&mut self, job: DiskJob) {
        match job {
            DiskJob::Read { cohort } => {
                // The page is in memory; charge `PageCPU` of processing.
                let Some(c) = self.cohorts.get(cohort) else {
                    return;
                };
                let site = c.site;
                self.cpu_arrive(
                    site,
                    CpuJob::Data { cohort },
                    self.cfg.page_cpu,
                    JobClass::Low,
                );
            }
            DiskJob::AsyncWrite => {}
        }
    }

    // ------------------------------------------------------------------
    // Resource plumbing
    // ------------------------------------------------------------------

    pub(crate) fn cpu_arrive(
        &mut self,
        site: SiteId,
        job: CpuJob,
        service: SimDuration,
        class: JobClass,
    ) {
        let now = self.cal.now();
        if let Some(started) = self.sites[site].cpu.arrive(now, job, service, class) {
            self.cal.schedule_at(
                started.done_at,
                Event::CpuDone {
                    site,
                    job: started.job,
                },
            );
        }
    }

    /// Wire latency between two sites: a topology matrix lookup, or
    /// zero (the instantaneous switch) when no topology is configured.
    fn pair_latency(&self, from: SiteId, to: SiteId) -> SimDuration {
        match &self.wire_latency {
            Some(m) => m[from * self.sites.len() + to],
            None => SimDuration::ZERO,
        }
    }

    pub(crate) fn disk_for_page(&self, page: u64) -> usize {
        let local = page % self.pages_per_site_eff;
        (local % self.sites[0].data_disks.len() as u64) as usize
    }

    pub(crate) fn data_disk_arrive(&mut self, site: SiteId, page: u64, job: DiskJob) {
        let now = self.cal.now();
        let disk = self.disk_for_page(page);
        if let Some(started) =
            self.sites[site].data_disks[disk].arrive(now, job, self.cfg.page_disk, JobClass::Low)
        {
            self.cal.schedule_at(
                started.done_at,
                Event::DataDiskDone {
                    site,
                    disk,
                    job: started.job,
                },
            );
        }
    }

    /// The transaction a piece of log work belongs to, as a live
    /// handle; `None` when the owning cohort is already gone.
    pub(crate) fn log_txn_handle(&self, work: &LogWork) -> Option<TxnH> {
        match *work {
            LogWork::CohortPrepare { cohort }
            | LogWork::CohortNoVoteAbort { cohort }
            | LogWork::CohortPrecommit { cohort }
            | LogWork::CohortDecision { cohort, .. } => self.cohorts.get(cohort).map(|c| c.txn),
            LogWork::MasterCollecting { txn }
            | LogWork::MasterPrecommit { txn }
            | LogWork::MasterDecision { txn, .. }
            | LogWork::AcceptorBundle { txn, .. }
            | LogWork::ReplicaDecision { txn, .. } => Some(txn),
        }
    }

    /// The external id of the transaction a piece of log work belongs
    /// to (for tracing). Master-side work always carries a live
    /// transaction: the master's map entry outlives its last log write.
    pub(crate) fn log_txn(&self, work: &LogWork) -> Option<TxnId> {
        self.log_txn_handle(work)
            .and_then(|th| self.txns.get(th))
            .map(|t| t.id)
    }

    /// The transaction a message belongs to, as a live handle; `None`
    /// when the target cohort is already gone.
    pub(crate) fn msg_txn_handle(&self, kind: &MsgKind) -> Option<TxnH> {
        match *kind {
            MsgKind::InitCohort { cohort }
            | MsgKind::Prepare { cohort }
            | MsgKind::PreCommit { cohort }
            | MsgKind::Decision { cohort, .. }
            | MsgKind::TermStateReq { cohort }
            | MsgKind::ChainPrepare { cohort }
            | MsgKind::ChainDecision { cohort, .. } => self.cohorts.get(cohort).map(|c| c.txn),
            MsgKind::WorkDone { txn, .. }
            | MsgKind::Vote { txn, .. }
            | MsgKind::PreAck { txn, .. }
            | MsgKind::Ack { txn, .. }
            | MsgKind::TermStateRep { txn }
            | MsgKind::ChainBack { txn, .. }
            | MsgKind::PaxosVote { txn, .. }
            | MsgKind::Accepted { txn, .. }
            | MsgKind::RepDecision { txn, .. }
            | MsgKind::RepAck { txn }
            | MsgKind::AccStateReq { txn, .. }
            | MsgKind::AccStateRep { txn } => Some(txn),
        }
    }

    /// Issue a forced log write; its completion event carries `work`
    /// back into the protocol state machine. Costs one disk page write
    /// (§4.3); log disks are chosen round-robin within the site.
    pub(crate) fn force_log(&mut self, site: SiteId, work: LogWork) {
        if let Some(th) = self.log_txn_handle(&work) {
            if let Some(t) = self.txns.get_mut(th) {
                t.forced += 1;
                let txn = t.id;
                let label = work.label();
                self.trace_event(txn, |at| TraceEvent::ForceLog {
                    at,
                    txn,
                    label,
                    site,
                });
            }
        }
        self.metrics.forced_writes.bump();
        let now = self.cal.now();
        let s = &mut self.sites[site];
        let disk = s.next_log_disk;
        s.next_log_disk = (s.next_log_disk + 1) % s.log_disks.len();
        if let Some(batchers) = s.batched_logs.as_mut() {
            if let Some(done_at) = batchers[disk].arrive(now, work, self.cfg.page_disk) {
                self.cal
                    .schedule_at(done_at, Event::LogBatchDone { site, disk });
            }
            return;
        }
        if let Some(started) =
            s.log_disks[disk].arrive(now, work, self.cfg.page_disk, JobClass::Low)
        {
            self.cal.schedule_at(
                started.done_at,
                Event::LogDiskDone {
                    site,
                    disk,
                    job: started.job,
                },
            );
        }
    }

    /// Send a message. Same-site messages are free and delivered via a
    /// zero-delay event; remote messages cost `MsgCPU` at both ends and
    /// are counted in the execution/commit tallies.
    pub(crate) fn send(&mut self, from: SiteId, to: SiteId, kind: MsgKind) {
        self.send_attempt(from, to, kind, 0);
    }

    /// May fault injection drop this message class? Both directions of
    /// the commit choreography are eligible: the master→cohort requests
    /// *and* the cohort→master replies (WORKDONE, VOTE, PREACK, ACK) —
    /// a lossy network does not spare one direction. `InitCohort` and
    /// the termination-protocol exchange stay exempt: the modeled crash
    /// windows place them outside the loss model, and their loss would
    /// need recovery machinery the paper does not describe. Under
    /// quorum routing the PREPARE/vote round is likewise exempt: a
    /// retransmitted PREPARE would re-fan the vote to every acceptor
    /// and the acceptor tally has no duplicate suppression — the loss
    /// model covers the decision/ack round, where Paxos Commit's
    /// fault tolerance actually lives.
    fn loss_eligible(&self, kind: &MsgKind) -> bool {
        match *kind {
            MsgKind::Prepare { .. } => !matches!(self.table.routing, Routing::Quorum),
            MsgKind::PreCommit { .. }
            | MsgKind::Decision { .. }
            | MsgKind::WorkDone { .. }
            | MsgKind::Vote { .. }
            | MsgKind::PreAck { .. }
            | MsgKind::Ack { .. } => true,
            _ => false,
        }
    }

    /// The retransmission handle for the loss-eligible classes that
    /// carry their *own* timer: the master→cohort requests, plus
    /// WORKDONE — the one reply nothing re-solicits (the master
    /// passively collects during execution). The other replies (VOTE,
    /// PREACK, ACK) are re-elicited by the requester's timer: a
    /// repeated request is answered again, so a second timer on the
    /// reply would be redundant.
    fn loss_retry(kind: &MsgKind) -> Option<Retry> {
        match *kind {
            MsgKind::Prepare { cohort } => Some(Retry::Prepare { cohort }),
            MsgKind::PreCommit { cohort } => Some(Retry::PreCommit { cohort }),
            MsgKind::Decision { cohort, commit } => Some(Retry::Decision { cohort, commit }),
            MsgKind::WorkDone { cohort, .. } => Some(Retry::WorkDone { cohort }),
            _ => None,
        }
    }

    /// [`Simulation::send`] with an attempt count for the message-loss
    /// machinery. Attempts `0..max_retransmits` of a loss-eligible
    /// remote message may be dropped (each is watched by a `MsgRetry`
    /// timer); attempt `max_retransmits` is the escalated transfer and
    /// is delivered reliably, so the protocol always terminates.
    fn send_attempt(&mut self, from: SiteId, to: SiteId, kind: MsgKind, attempt: u32) {
        let owner = self.msg_txn_handle(&kind);
        let owner_id = owner.and_then(|th| self.txns.get(th)).map(|t| t.id);
        if let Some(txn) = owner_id {
            let label = kind.label();
            let local = from == to;
            self.trace_event(txn, |at| TraceEvent::Send {
                at,
                txn,
                label,
                from,
                to,
                local,
            });
        }
        let mut lost = false;
        if from != to {
            if let Some(f) = self.cfg.failures {
                if f.msg_loss_prob > 0.0 && attempt < f.max_retransmits && self.loss_eligible(&kind)
                {
                    self.metrics.faults.message_loss_trials += 1;
                    if self.rng.chance(f.msg_loss_prob) {
                        lost = true;
                        self.metrics.faults.messages_lost += 1;
                        if let Some(t) = owner.and_then(|th| self.txns.get_mut(th)) {
                            // Loss traffic is outside the analytic
                            // overhead model of Tables 3–4.
                            t.crashed = true;
                            let txn = t.id;
                            let label = kind.label();
                            self.trace_event(txn, |at| TraceEvent::MsgLost { at, txn, label });
                        }
                    }
                    // Watch timer-carrying transfers either way: the
                    // timer inspects the receiver's recorded progress
                    // and dies if the message evidently arrived. The
                    // timerless replies are re-elicited by their
                    // requester's timer instead.
                    if let Some(retry) = Self::loss_retry(&kind) {
                        self.cal
                            .schedule_in(f.msg_timeout, Event::MsgRetry { retry, attempt });
                    }
                }
            }
        }
        let msg = Message {
            from,
            to,
            kind,
            lost,
            attempt,
        };
        if from == to {
            self.cal.schedule_now(Event::LocalMsg { msg });
            return;
        }
        if kind.is_execution() {
            self.metrics.exec_messages.bump();
        } else {
            self.metrics.commit_messages.bump();
        }
        if let Some(t) = owner.and_then(|th| self.txns.get_mut(th)) {
            if kind.is_execution() {
                t.msg_exec += 1;
            } else {
                t.msg_commit += 1;
            }
        }
        self.cpu_arrive(
            from,
            CpuJob::MsgSend { msg },
            self.cfg.msg_cpu,
            JobClass::High,
        );
    }

    /// A retransmission timer fired. If the receiver's phase shows the
    /// watched transfer never arrived, repeat it (the repeat is itself
    /// loss-eligible until the retry budget runs out, after which the
    /// escalated transfer is reliable).
    fn handle_msg_retry(&mut self, retry: Retry, attempt: u32) {
        let Some(f) = self.cfg.failures else {
            return;
        };
        let cohort = match retry {
            Retry::Prepare { cohort }
            | Retry::PreCommit { cohort }
            | Retry::Decision { cohort, .. }
            | Retry::WorkDone { cohort } => cohort,
        };
        let Some(c) = self.cohorts.get(cohort) else {
            // The cohort finished: the transfer (or a duplicate of it)
            // arrived, or an abort tore the cohort down. Timer dies.
            return;
        };
        let th = c.txn;
        let kind = match retry {
            Retry::Prepare { cohort } => MsgKind::Prepare { cohort },
            Retry::PreCommit { cohort } => MsgKind::PreCommit { cohort },
            Retry::Decision { cohort, commit } => MsgKind::Decision { cohort, commit },
            Retry::WorkDone { cohort } => MsgKind::WorkDone { txn: th, cohort },
        };
        // Has the *whole round trip* evidently completed? The timer
        // watches end-to-end: it keeps firing until the master has the
        // reply, because either leg may have been the lost one — a
        // repeated request re-elicits a lost reply from a cohort that
        // already acted on the first copy. For the decision, slab
        // presence is the receipt test: the ACK's arrival (or the
        // cohort's ack-free completion) removes the entry, which the
        // miss above already caught.
        let awaited = match retry {
            Retry::Prepare { .. } => !c.vote_seen,
            Retry::PreCommit { .. } => !c.preack_seen,
            Retry::Decision { .. } => true,
            Retry::WorkDone { .. } => !c.wd_seen,
        };
        if !awaited {
            return;
        }
        // Requests travel control→cohort; the WORKDONE reply travels
        // cohort→control.
        let (from, to) = match retry {
            Retry::WorkDone { .. } => (c.site, self.txns[th].control_site()),
            _ => (self.txns[th].control_site(), c.site),
        };
        self.metrics.faults.retransmissions += 1;
        if attempt + 1 >= f.max_retransmits {
            // Out of retries: this repeat goes over the reliable
            // out-of-band path (cooperative termination / operator
            // action in a real system).
            self.metrics.faults.retry_escalations += 1;
        }
        let t = self.txns.get_mut(th).expect("live txn");
        // A retransmission — even a spurious one fired while the
        // original sat in a queue — puts the incarnation outside the
        // analytic overhead model.
        t.crashed = true;
        let txn_id = t.id;
        let label = kind.label();
        self.trace_event(txn_id, |at| TraceEvent::Retransmitted {
            at,
            txn: txn_id,
            label,
            attempt: attempt + 1,
        });
        self.send_attempt(from, to, kind, attempt + 1);
    }

    // ------------------------------------------------------------------
    // Identity & bookkeeping
    // ------------------------------------------------------------------

    /// Replication degree F in effect: the configured degree for the
    /// replicated protocol family, zero for the classic single-copy
    /// protocols (whose table rows never consult it).
    pub(crate) fn rep_f(&self) -> u32 {
        if self.spec.is_replicated() {
            self.cfg.replication
        } else {
            0
        }
    }

    /// Site of replica `k` (0-based, `k < 2F+1`) of the group anchored
    /// at `home`: consecutive sites wrapping around the ring, so
    /// replica 0 — the Paxos leader / the replicated coordinator's
    /// primary — is co-located with the master.
    pub(crate) fn acceptor_site(&self, home: SiteId, k: u32) -> SiteId {
        (home + k as usize) % self.sites.len()
    }

    pub(crate) fn alloc_txn_id(&mut self) -> TxnId {
        let id = self.next_txn_id;
        self.next_txn_id += 1;
        id
    }

    pub(crate) fn alloc_cohort_id(&mut self) -> CohortId {
        let id = self.next_cohort_id;
        self.next_cohort_id += 1;
        id
    }

    /// The delay before a restart. Under the paper's adaptive policy
    /// (§4) it is the running average response time of committed
    /// transactions (a service-demand estimate before any commit
    /// exists); the alternatives exist for ablation studies.
    pub(crate) fn restart_delay(&self) -> SimDuration {
        match self.cfg.restart_policy {
            crate::config::RestartPolicy::AdaptiveResponseTime => {
                if self.resp_estimate.count() > 0 {
                    SimDuration::from_millis_f64(self.resp_estimate.mean() * 1_000.0)
                } else {
                    let pages = (self.cfg.dist_degree * self.cfg.cohort_size) as u64;
                    (self.cfg.page_disk + self.cfg.page_cpu) * pages
                }
            }
            crate::config::RestartPolicy::Fixed(d) => d,
            crate::config::RestartPolicy::Immediate => SimDuration::ZERO,
        }
    }

    /// Series hook at the commit decision: attribute one commit to the
    /// transaction's home site.
    pub(crate) fn series_note_commit(&mut self, home: SiteId) {
        if let Some(rec) = self.series.as_mut() {
            rec.note_commit(home);
        }
    }

    /// Called at every commit point: advances warm-up/measurement
    /// bookkeeping and stops the run at the target.
    pub(crate) fn note_commit_for_run_control(&mut self) {
        self.total_commits += 1;
        if self.total_commits == self.warmup_target {
            let now = self.cal.now();
            // Force-close the series' partial warm-up window *before*
            // the counters reset, so measured windows tile exactly over
            // the measurement interval and their deltas sum to the
            // report aggregates.
            if let Some(mut rec) = self.series.take() {
                rec.close_warmup(now, &mut self.metrics, &self.sites);
                self.series_boundary = rec.next_boundary();
                self.series = Some(rec);
            }
            self.metrics.reset(now);
            for site in &mut self.sites {
                site.cpu.reset_stats(now);
                for d in &mut site.data_disks {
                    d.reset_stats(now);
                }
                for d in &mut site.log_disks {
                    d.reset_stats(now);
                }
                if let Some(batchers) = site.batched_logs.as_mut() {
                    for b in batchers {
                        b.reset_stats(now);
                    }
                }
            }
        }
        if self.total_commits >= self.commit_target {
            self.done = true;
        }
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Cross-check a cleanly committed transaction's measured message
    /// and forced-write counts against the analytic model of Tables 3–4
    /// (`ProtocolSpec::overheads`). The counters are
    /// per-incarnation, every send/force is issued before the
    /// transaction is forgotten, and the master/local-cohort messages
    /// are free in both model and engine — so for a commit with no
    /// master crash the two must agree *exactly*. A divergence is a
    /// simulator bug: debug builds assert, release builds report it via
    /// [`crate::metrics::OverheadCheck`].
    pub(crate) fn check_commit_overheads(&mut self, t: &Txn) {
        if t.crashed {
            // Recovery/termination traffic is outside the analytic model.
            return;
        }
        // One pass over the cohorts. Under the Read-Only optimization a
        // cohort that updates nothing votes READ and leaves after phase
        // one; under Paxos Commit a remote cohort on one of the 2F
        // non-home acceptor sites (acceptor 0 shares the home) sends
        // that vote for free.
        let f = self.rep_f();
        let read_only = self.cfg.read_only_optimization && self.table.voting;
        let quorum = matches!(self.table.routing, Routing::Quorum);
        let mut o = Outcome {
            f,
            ..Outcome::commit(t.template.sites.len() as u32)
        };
        for (i, &site) in t.template.sites.iter().enumerate() {
            let local = site == t.home;
            if read_only && t.template.accesses[i].iter().all(|a| !a.update) {
                if local {
                    o.local_out = true;
                } else {
                    o.remote_out += 1;
                }
            }
            if quorum && !local && (1..=2 * f).any(|k| site == self.acceptor_site(t.home, k)) {
                o.colocated += 1;
            }
        }
        let predicted = self.spec.overheads(o);
        let message_delta = t.msg_exec.abs_diff(predicted.exec_messages)
            + t.msg_commit.abs_diff(predicted.commit_messages);
        let forced_write_delta = t.forced.abs_diff(predicted.forced_writes);
        debug_assert!(
            message_delta == 0 && forced_write_delta == 0,
            "overhead model mismatch for txn {} ({}, d={}): measured exec {} / commit {} / \
             forced {}, predicted exec {} / commit {} / forced {}",
            t.id,
            self.spec.name(),
            o.dist_degree,
            t.msg_exec,
            t.msg_commit,
            t.forced,
            predicted.exec_messages,
            predicted.commit_messages,
            predicted.forced_writes,
        );
        self.metrics
            .overhead_check
            .record(message_delta, forced_write_delta);
    }

    /// The instant the run ended: the clock, or for a truncated run the
    /// cap it hit (the event that crossed the cap never ran).
    fn end(&self) -> SimTime {
        match self.cfg.run.max_sim_time {
            Some(cap) if self.truncated => cap,
            _ => self.cal.now(),
        }
    }

    fn report(&mut self) -> SimReport {
        let now = self.end();
        let window = now.since(self.metrics.start).as_secs_f64();
        let committed = self.metrics.committed.get();
        let throughput = if window > 0.0 {
            committed as f64 / window
        } else {
            0.0
        };

        let mut site_resources = Vec::with_capacity(self.sites.len());
        for site in &mut self.sites {
            let mut cpu_acc = ResourceAcc::default();
            let mut dd_acc = ResourceAcc::default();
            let mut ld_acc = ResourceAcc::default();
            cpu_acc.push(
                site.cpu.utilization(now),
                site.cpu.mean_queue_depth(now),
                site.cpu.mean_wait().as_secs_f64(),
                site.cpu.max_queue_depth(),
                site.cpu.occupancy(now),
            );
            for d in &mut site.data_disks {
                dd_acc.push(
                    d.utilization(now),
                    d.mean_queue_depth(now),
                    d.mean_wait().as_secs_f64(),
                    d.max_queue_depth(),
                    d.occupancy(now),
                );
            }
            match site.batched_logs.as_mut() {
                Some(batchers) => {
                    for b in batchers {
                        // Per-record waits are not tracked under group
                        // commit; the queue-depth integral still is.
                        let util = b.utilization(now);
                        let queue = b.mean_queue_depth(now);
                        let max = b.max_queue_depth();
                        ld_acc.push(util, queue, 0.0, max, b.occupancy(now));
                    }
                }
                None => {
                    for d in &mut site.log_disks {
                        ld_acc.push(
                            d.utilization(now),
                            d.mean_queue_depth(now),
                            d.mean_wait().as_secs_f64(),
                            d.max_queue_depth(),
                            d.occupancy(now),
                        );
                    }
                }
            }
            site_resources.push(ResourceReport {
                cpu: cpu_acc.stats(),
                data_disk: dd_acc.stats(),
                log_disk: ld_acc.stats(),
            });
        }
        let averaged = ResourceReport::average(&site_resources);
        let utilizations = Utilizations {
            cpu: averaged.cpu.utilization,
            data_disk: averaged.data_disk.utilization,
            log_disk: averaged.log_disk.utilization,
        };

        let mut batches = 0u64;
        let mut batched_writes = 0u64;
        for site in &self.sites {
            match site.batched_logs.as_ref() {
                Some(bs) => {
                    for b in bs {
                        batches += b.batches_served();
                        batched_writes += b.writes_served();
                    }
                }
                None => {
                    for d in &site.log_disks {
                        batches += d.served();
                        batched_writes += d.served();
                    }
                }
            }
        }
        let mean_log_batch = if batches == 0 {
            0.0
        } else {
            batched_writes as f64 / batches as f64
        };

        let blocked_avg = self.metrics.blocked_txns.time_average(now);
        let live_avg = self.metrics.live_txns.time_average(now);
        let block_ratio = if live_avg > 0.0 {
            blocked_avg / live_avg
        } else {
            0.0
        };

        SimReport {
            protocol: self.spec.name().to_string(),
            mpl: self.cfg.mpl,
            sim_seconds: window,
            committed,
            aborted_deadlock: self.metrics.aborted_deadlock.get(),
            aborted_surprise: self.metrics.aborted_surprise.get(),
            aborted_borrower: self.metrics.aborted_borrower.get(),
            aborted_crash: self.metrics.aborted_crash.get(),
            throughput,
            throughput_ci: self.metrics.throughput_batches.confidence_interval(),
            mean_response_s: self.metrics.response.mean(),
            p50_response_s: self.metrics.response_hist.p50().as_secs_f64(),
            p95_response_s: self.metrics.response_hist.p95().as_secs_f64(),
            p99_response_s: self.metrics.response_hist.p99().as_secs_f64(),
            mean_attempt_response_s: self.metrics.attempt_response.mean(),
            block_ratio,
            borrow_ratio: self.metrics.borrowed_pages.per(committed),
            exec_messages_per_commit: self.metrics.exec_messages.per(committed),
            commit_messages_per_commit: self.metrics.commit_messages.per(committed),
            forced_writes_per_commit: self.metrics.forced_writes.per(committed),
            mean_shelf_time_s: self.metrics.shelf_time.mean(),
            mean_prepared_time_s: self.metrics.prepared_time.mean(),
            phase_latencies: PhaseLatencies {
                execution: LatencySummary::from_histogram(&self.metrics.phase_execution),
                voting: LatencySummary::from_histogram(&self.metrics.phase_voting),
                decision: LatencySummary::from_histogram(&self.metrics.phase_decision),
            },
            utilizations,
            site_resources,
            overhead_check: self.metrics.overhead_check,
            mean_log_batch,
            faults: crate::metrics::FaultCounters {
                mean_blocked_on_crash_s: self.metrics.crash_block_time.mean(),
                ..self.metrics.faults
            },
            convergence: self.metrics.convergence(),
            events: self.cal.dispatched_count(),
            truncated: self.truncated,
        }
    }

    /// Render every in-flight transaction and cohort — the post-mortem
    /// attached to the calendar-drain panic.
    fn dump_stuck(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut txns: Vec<_> = self.txns.values().collect();
        txns.sort_by_key(|t| t.id);
        for t in txns {
            let _ = writeln!(
                out,
                "txn {} phase {:?} wd={} votes={} acks={} open={}",
                t.id, t.phase, t.pending_workdone, t.pending_votes, t.pending_acks, t.open_cohorts
            );
            for &ch in &t.cohorts {
                if let Some(c) = self.cohorts.get(ch) {
                    let lm = &self.sites[c.site].locks;
                    let _ = writeln!(
                        out,
                        "  cohort {} site {} phase {:?} access {}/{} wait={} shelf={} borrows={:?} blockers={:?}",
                        c.id,
                        c.site,
                        c.phase,
                        c.next_access,
                        c.n_accesses,
                        c.waiting_lock,
                        c.shelf_since.is_some(),
                        lm.lenders_of(c.lock_owner)
                            .filter_map(|o| lm.owner_seq(o))
                            .collect::<Vec<_>>(),
                        lm.blockers_of(c.lock_owner)
                            .iter()
                            .filter_map(|&o| lm.owner_seq(o))
                            .collect::<Vec<_>>(),
                    );
                }
            }
        }
        out
    }
}
