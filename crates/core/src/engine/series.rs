//! Windowed time-series telemetry: the fourth streaming sink family.
//!
//! A [`SeriesRecorder`] tiles simulated time into fixed-width windows
//! and, at each boundary, emits the *delta* of the run's counters over
//! the window — committed/aborted throughput, abort-reason mix, block
//! ratio, lock-wait time, per-class message and retransmit counts —
//! plus, optionally, a per-site breakdown (per-site commits and
//! instantaneous resource queue depths) so skewed runs show where load
//! concentrates.
//!
//! Two properties make the series trustworthy rather than merely
//! decorative:
//!
//! 1. **Exact aggregation.** A partial window is force-closed at the
//!    warm-up reset instant, so measured windows (`measured: true`)
//!    tile exactly over the measurement interval. Counter deltas then
//!    sum to the `SimReport` totals *by construction*, and the
//!    blocked/live time integrals telescope, so the weighted window
//!    block ratios reproduce the report's block ratio bit for bit (see
//!    the cross-check test in `tests/series.rs`).
//! 2. **Bounded memory.** Like the Chrome/fold sinks, the recorder can
//!    stream each closed window straight to a writer (CSV or JSON)
//!    instead of buffering. The streamed bytes are identical to the
//!    buffered render by construction: [`Series::render`] runs the
//!    recorder's own streaming serializer over memory, so header,
//!    separators, rows and footer are written in one place.
//!
//! A run records a series when its [`super::Observers`] hold one: a
//! [`SeriesConfig`] and a [`SeriesOut`] that borrows the caller's
//! [`Series`] or writer, beside a trace sink or alone. A zero window is
//! a configuration error before the run starts.
//!
//! Observation does not perturb the run: the recorder reads counters
//! that the engine maintains anyway, and its per-site commit tallies
//! are bumped outside any RNG-consuming path, so a run with the
//! recorder installed reports bit-identical metrics to one without.

use std::fmt::Write as _;
use std::io::{self, Write as IoWrite};

use simkernel::{SimDuration, SimTime};

use super::Site;
use crate::json::{Fixed6, Json};
use crate::metrics::Metrics;

/// Configuration for windowed series collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Window width in simulated time.
    pub window: SimDuration,
    /// Record a per-site breakdown in every window.
    pub per_site: bool,
}

impl Default for SeriesConfig {
    fn default() -> Self {
        SeriesConfig {
            window: SeriesConfig::DEFAULT_WINDOW,
            per_site: false,
        }
    }
}

impl SeriesConfig {
    /// Default window width: 5 simulated seconds — coarse enough that
    /// a default-length run yields a handful of windows, fine enough
    /// to see ramp-up and fault bursts.
    pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(5);
}

/// Serialization format for series output (the `table` report format
/// has no meaningful series rendering, so this is narrower than
/// [`crate::metrics::ReportFormat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesFormat {
    /// One row per window (plus one per site in per-site mode).
    Csv,
    /// A single JSON document with a `windows` array.
    Json,
}

/// Per-site observations inside one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSample {
    /// Effective site index.
    pub site: usize,
    /// Transactions with this home site committed inside the window.
    pub committed: u64,
    /// Jobs waiting (not in service) at the site CPU when the window
    /// closed — an instantaneous sample, not a time average.
    pub cpu_queued: u64,
    /// Jobs waiting across the site's data disks at window close.
    pub data_disk_queued: u64,
    /// Writes waiting across the site's log disks (or group-commit
    /// batchers) at window close.
    pub log_queued: u64,
}

/// One closed window of the series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindow {
    /// Window ordinal, starting at 0.
    pub index: u64,
    /// Window start (inclusive), simulated time.
    pub start: SimTime,
    /// Window end (exclusive), simulated time.
    pub end: SimTime,
    /// True for windows after the warm-up reset: exactly these windows
    /// tile the measurement interval and sum to the report aggregates.
    pub measured: bool,
    /// Commits inside the window.
    pub committed: u64,
    /// Deadlock-victim aborts inside the window.
    pub aborted_deadlock: u64,
    /// Surprise-vote aborts inside the window.
    pub aborted_surprise: u64,
    /// Borrower-cascade aborts inside the window.
    pub aborted_borrower: u64,
    /// Execution-phase messages sent inside the window.
    pub exec_messages: u64,
    /// Commit-phase messages sent inside the window.
    pub commit_messages: u64,
    /// Retransmissions inside the window.
    pub retransmissions: u64,
    /// Messages lost inside the window.
    pub messages_lost: u64,
    /// Blocked-transaction integral over the window, in
    /// transaction-seconds — the lock-wait time spent inside the
    /// window summed over all transactions.
    pub lock_wait_s: f64,
    /// Live-transaction integral over the window, transaction-seconds.
    pub live_s: f64,
    /// `lock_wait_s / live_s` — the window's block ratio (0 when no
    /// live time was accumulated).
    pub block_ratio: f64,
    /// Per-site breakdown; empty unless per-site mode is on.
    pub per_site: Vec<SiteSample>,
}

impl SeriesWindow {
    /// Window width in seconds.
    pub fn width_s(&self) -> f64 {
        self.end.since(self.start).as_secs_f64()
    }

    /// Committed transactions per second inside the window.
    pub fn throughput(&self) -> f64 {
        let w = self.width_s();
        if w > 0.0 {
            self.committed as f64 / w
        } else {
            0.0
        }
    }
}

/// Counter values at the last window boundary; deltas against these
/// yield per-window figures.
#[derive(Debug, Clone, Default)]
struct Baselines {
    committed: u64,
    aborted_deadlock: u64,
    aborted_surprise: u64,
    aborted_borrower: u64,
    exec_messages: u64,
    commit_messages: u64,
    retransmissions: u64,
    messages_lost: u64,
    blocked_area: f64,
    live_area: f64,
    site_commits: Vec<u64>,
}

/// The window boundary `window` after `t`. Saturates at the end of the
/// clock, so a window longer than the rest of the run only closes at
/// the run's final partial close.
fn boundary_after(t: SimTime, window: SimDuration) -> SimTime {
    SimTime(t.as_micros().saturating_add(window.as_micros()))
}

/// Identity of the run a series belongs to, carried into the output
/// header.
#[derive(Debug, Clone, Default)]
pub struct SeriesMeta {
    /// Protocol name (paper spelling).
    pub protocol: String,
    /// Per-site multiprogramming level.
    pub mpl: u32,
    /// RNG seed of the run.
    pub seed: u64,
    /// Configured window width, seconds.
    pub window_s: f64,
    /// Whether per-site samples were recorded.
    pub per_site: bool,
}

/// Where a run's series goes: windows pushed into the caller's
/// [`Series`], or each closed window written straight to the caller's
/// writer in a format (bounded memory).
pub enum SeriesOut<'a> {
    /// Buffer the windows; the run replaces the series' contents.
    Buffer(&'a mut Series),
    /// Stream the windows: the bytes of the buffered series' render.
    Stream(&'a mut (dyn IoWrite + Send), SeriesFormat),
}

enum Output<'a> {
    Buffer(&'a mut Vec<SeriesWindow>),
    Stream {
        writer: SeriesWriter<&'a mut (dyn IoWrite + Send)>,
        /// First write error; the stream goes quiet once it is set and
        /// `finish` returns it.
        error: Option<io::Error>,
    },
}

/// The engine-side recorder, installed by
/// [`super::Simulation::run_observed`]; windows close lazily as events
/// cross boundaries, plus one forced partial close at the warm-up reset
/// so measured windows tile the measurement interval exactly.
pub struct SeriesRecorder<'a> {
    window: SimDuration,
    per_site: bool,
    measured: bool,
    window_start: SimTime,
    next_boundary: SimTime,
    index: u64,
    base: Baselines,
    /// Cumulative per-home-site commit counts, bumped by the engine at
    /// each commit decision; zeroed at the warm-up reset.
    site_commits: Vec<u64>,
    out: Output<'a>,
}

impl<'a> SeriesRecorder<'a> {
    /// A recorder over `sites` effective sites, starting in warm-up when
    /// `warmup` is set; a stream gets its header here. The window must
    /// be positive: a zero one would close windows forever.
    pub(crate) fn new(
        cfg: &SeriesConfig,
        meta: SeriesMeta,
        sites: usize,
        warmup: bool,
        out: SeriesOut<'a>,
    ) -> io::Result<Self> {
        let out = match out {
            SeriesOut::Buffer(series) => {
                *series = Series {
                    meta,
                    windows: Vec::new(),
                };
                Output::Buffer(&mut series.windows)
            }
            SeriesOut::Stream(writer, format) => Output::Stream {
                writer: SeriesWriter::new(writer, format, &meta)?,
                error: None,
            },
        };
        Ok(SeriesRecorder {
            window: cfg.window,
            per_site: cfg.per_site,
            // Runs with no warm-up measure from t = 0; `close_warmup`
            // flips this for warmed-up runs.
            measured: !warmup,
            window_start: SimTime::ZERO,
            next_boundary: SimTime(cfg.window.as_micros()),
            index: 0,
            base: Baselines {
                site_commits: vec![0; sites],
                ..Baselines::default()
            },
            site_commits: vec![0; sites],
            out,
        })
    }

    /// First event time at or after which a window must close.
    pub(crate) fn next_boundary(&self) -> SimTime {
        self.next_boundary
    }

    /// Engine hook: transaction with home site `site` committed.
    pub(crate) fn note_commit(&mut self, site: usize) {
        if let Some(c) = self.site_commits.get_mut(site) {
            *c += 1;
        }
    }

    /// Close every window whose boundary is at or before `now`. Called
    /// lazily from the event loop just before dispatching the first
    /// event past a boundary, so a window's deltas never include
    /// effects from beyond its end.
    pub(crate) fn close_through(&mut self, now: SimTime, metrics: &mut Metrics, sites: &[Site]) {
        while now >= self.next_boundary {
            let end = self.next_boundary;
            self.close_at(end, metrics, sites);
            self.next_boundary = boundary_after(end, self.window);
        }
    }

    /// Force-close the current partial window at the warm-up reset
    /// instant. Must run *before* `Metrics::reset`: the window deltas
    /// are taken against the pre-reset counters, then every baseline is
    /// zeroed to match the freshly reset counters, and window tiling
    /// restarts at `now` so measured windows align with the
    /// measurement interval.
    pub(crate) fn close_warmup(&mut self, now: SimTime, metrics: &mut Metrics, sites: &[Site]) {
        if now > self.window_start {
            self.close_at(now, metrics, sites);
        }
        self.measured = true;
        self.window_start = now;
        self.next_boundary = boundary_after(now, self.window);
        self.base = Baselines {
            site_commits: vec![0; self.site_commits.len()],
            ..Baselines::default()
        };
        for c in &mut self.site_commits {
            *c = 0;
        }
    }

    /// Close the final partial window at end of run (flushing the writer
    /// in streaming mode), or return the first error the streaming
    /// writer returned during the run or at the final flush.
    pub(crate) fn finish(
        mut self,
        now: SimTime,
        metrics: &mut Metrics,
        sites: &[Site],
    ) -> io::Result<()> {
        self.close_through(now, metrics, sites);
        if now > self.window_start {
            self.close_at(now, metrics, sites);
        }
        match self.out {
            Output::Buffer(_) => Ok(()),
            Output::Stream { error: Some(e), .. } => Err(e),
            Output::Stream { writer, .. } => writer.finish()?.flush(),
        }
    }

    fn close_at(&mut self, end: SimTime, metrics: &mut Metrics, sites: &[Site]) {
        let blocked_area = metrics.blocked_txns.integral_seconds(end);
        let live_area = metrics.live_txns.integral_seconds(end);
        let lock_wait_s = blocked_area - self.base.blocked_area;
        let live_s = live_area - self.base.live_area;
        let delta = |cur: u64, base: &mut u64| {
            let d = cur - *base;
            *base = cur;
            d
        };
        let per_site = if self.per_site {
            sites
                .iter()
                .enumerate()
                .map(|(i, site)| SiteSample {
                    site: i,
                    committed: delta(self.site_commits[i], &mut self.base.site_commits[i]),
                    cpu_queued: site.cpu.queued() as u64,
                    data_disk_queued: site.data_disks.iter().map(|d| d.queued() as u64).sum(),
                    log_queued: match site.batched_logs.as_ref() {
                        Some(bs) => bs.iter().map(|b| b.queued() as u64).sum(),
                        None => site.log_disks.iter().map(|d| d.queued() as u64).sum(),
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        let w = SeriesWindow {
            index: self.index,
            start: self.window_start,
            end,
            measured: self.measured,
            committed: delta(metrics.committed.get(), &mut self.base.committed),
            aborted_deadlock: delta(
                metrics.aborted_deadlock.get(),
                &mut self.base.aborted_deadlock,
            ),
            aborted_surprise: delta(
                metrics.aborted_surprise.get(),
                &mut self.base.aborted_surprise,
            ),
            aborted_borrower: delta(
                metrics.aborted_borrower.get(),
                &mut self.base.aborted_borrower,
            ),
            exec_messages: delta(metrics.exec_messages.get(), &mut self.base.exec_messages),
            commit_messages: delta(
                metrics.commit_messages.get(),
                &mut self.base.commit_messages,
            ),
            retransmissions: delta(
                metrics.faults.retransmissions,
                &mut self.base.retransmissions,
            ),
            messages_lost: delta(metrics.faults.messages_lost, &mut self.base.messages_lost),
            lock_wait_s,
            live_s,
            block_ratio: if live_s > 0.0 {
                lock_wait_s / live_s
            } else {
                0.0
            },
            per_site,
        };
        self.base.blocked_area = blocked_area;
        self.base.live_area = live_area;
        self.window_start = end;
        self.index += 1;
        self.emit(w);
    }

    fn emit(&mut self, w: SeriesWindow) {
        match &mut self.out {
            Output::Buffer(v) => v.push(w),
            Output::Stream { writer, error } => {
                // The recorder cannot unwind the event loop: latch the
                // first failure, which `failed` reports to the engine
                // and `finish` returns.
                if error.is_none() {
                    *error = writer.window(&w).err();
                }
            }
        }
    }

    /// Whether the stream has failed. The run's result is then an I/O
    /// error whatever happens next, so the engine stops simulating.
    pub(crate) fn failed(&self) -> bool {
        matches!(self.out, Output::Stream { error: Some(_), .. })
    }
}

/// A finished, buffered series: the run identity plus every closed
/// window in order. [`SeriesOut::Buffer`] fills one; the default is an
/// empty one to hand it.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Run identity (protocol, MPL, seed, window width).
    pub meta: SeriesMeta,
    /// Closed windows in time order.
    pub windows: Vec<SeriesWindow>,
}

impl Series {
    /// Render the whole series in `format` — byte-identical to what
    /// streaming mode writes, because it is the same serializer.
    pub fn render(&self, format: SeriesFormat) -> String {
        const IN_MEMORY: &str = "writing to a Vec cannot fail";
        let mut w = SeriesWriter::new(Vec::new(), format, &self.meta).expect(IN_MEMORY);
        for window in &self.windows {
            w.window(window).expect(IN_MEMORY);
        }
        String::from_utf8(w.finish().expect(IN_MEMORY)).expect("the serializer emits UTF-8")
    }
}

/// The one series serializer: a streaming run drives it over the
/// caller's writer window by window, and [`Series::render`] drives it
/// over memory. Every window leaves in one write.
struct SeriesWriter<W: IoWrite> {
    out: W,
    /// JSON mode: the document, its `windows` array open between windows.
    json: Option<Json>,
}

impl<W: IoWrite> SeriesWriter<W> {
    /// Start the document on `out`: the CSV header, or the JSON run
    /// identity and the opening of its `windows` array.
    fn new(mut out: W, format: SeriesFormat, meta: &SeriesMeta) -> io::Result<Self> {
        let json = match format {
            SeriesFormat::Csv => {
                out.write_all(
                    b"window,start_s,end_s,measured,site,committed,aborted_deadlock,\
                      aborted_surprise,aborted_borrower,throughput,block_ratio,lock_wait_s,live_s,\
                      exec_msgs,commit_msgs,retransmits,lost,cpu_q,data_q,log_q\n",
                )?;
                None
            }
            SeriesFormat::Json => {
                let mut j = Json::default();
                j.begin_object()
                    .field("protocol", meta.protocol.as_str())
                    .field("mpl", meta.mpl)
                    .field("seed", meta.seed)
                    .field("window_s", Fixed6(meta.window_s))
                    .field("per_site", meta.per_site)
                    .key("windows")
                    .begin_array();
                j.flush_to(&mut out)?;
                Some(j)
            }
        };
        Ok(SeriesWriter { out, json })
    }

    /// Write one closed window.
    fn window(&mut self, w: &SeriesWindow) -> io::Result<()> {
        match &mut self.json {
            None => self.out.write_all(csv_rows(w).as_bytes()),
            Some(j) => {
                json_window(j, w);
                j.flush_to(&mut self.out)
            }
        }
    }

    /// Close the document and hand back the writer.
    fn finish(mut self) -> io::Result<W> {
        if let Some(j) = &mut self.json {
            j.end_array().end_object();
            j.flush_to(&mut self.out)?;
        }
        Ok(self.out)
    }
}

fn csv_rows(w: &SeriesWindow) -> String {
    let mut out = String::new();
    let (cpu_q, data_q, log_q) = w.per_site.iter().fold((0, 0, 0), |(c, d, l), s| {
        (c + s.cpu_queued, d + s.data_disk_queued, l + s.log_queued)
    });
    let (start, end) = (w.start.as_secs_f64(), w.end.as_secs_f64());
    let _ = writeln!(
        out,
        "{},{start:.6},{end:.6},{},all,{},{},{},{},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{},{},{}",
        w.index,
        w.measured as u8,
        w.committed,
        w.aborted_deadlock,
        w.aborted_surprise,
        w.aborted_borrower,
        w.throughput(),
        w.block_ratio,
        w.lock_wait_s,
        w.live_s,
        w.exec_messages,
        w.commit_messages,
        w.retransmissions,
        w.messages_lost,
        cpu_q,
        data_q,
        log_q,
    );
    for s in &w.per_site {
        // Metrics not tracked per site stay empty rather than
        // rendering misleading zeroes.
        let _ = writeln!(
            out,
            "{},{start:.6},{end:.6},{},{},{},,,,,,,,,,,,{},{},{}",
            w.index,
            w.measured as u8,
            s.site,
            s.committed,
            s.cpu_queued,
            s.data_disk_queued,
            s.log_queued,
        );
    }
    out
}

fn json_window(j: &mut Json, w: &SeriesWindow) {
    j.begin_object()
        .field("window", w.index)
        .field("start_s", Fixed6(w.start.as_secs_f64()))
        .field("end_s", Fixed6(w.end.as_secs_f64()))
        .field("measured", w.measured)
        .field("committed", w.committed)
        .field("aborted_deadlock", w.aborted_deadlock)
        .field("aborted_surprise", w.aborted_surprise)
        .field("aborted_borrower", w.aborted_borrower)
        .field("throughput", Fixed6(w.throughput()))
        .field("block_ratio", Fixed6(w.block_ratio))
        .field("lock_wait_s", Fixed6(w.lock_wait_s))
        .field("live_s", Fixed6(w.live_s))
        .field("exec_msgs", w.exec_messages)
        .field("commit_msgs", w.commit_messages)
        .field("retransmits", w.retransmissions)
        .field("lost", w.messages_lost);
    if !w.per_site.is_empty() {
        j.key("sites").begin_array();
        for s in &w.per_site {
            j.begin_object()
                .field("site", s.site)
                .field("committed", s.committed)
                .field("cpu_q", s.cpu_queued)
                .field("data_q", s.data_disk_queued)
                .field("log_q", s.log_queued)
                .end_object();
        }
        j.end_array();
    }
    j.end_object();
}
