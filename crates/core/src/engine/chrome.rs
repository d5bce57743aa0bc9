//! Chrome trace-event export: serializes trace events into the JSON
//! Array Format understood by `chrome://tracing` and Perfetto.
//!
//! Mapping (see the Trace Event Format spec):
//! - `pid` = transaction id (one "process" lane per transaction),
//! - `tid` = site id (one "thread" row per site within the lane),
//! - `ts`  = simulation time in microseconds (`SimTime` is already
//!   microsecond-granular, so the conversion is the identity),
//! - forced-write issue/durable pairs become `ph:"X"` complete events
//!   with a duration (FIFO-matched per txn/label/site, mirroring the
//!   per-station FIFO log-disk queue),
//! - everything else becomes a thread-scoped instant event (`ph:"i"`,
//!   `s:"t"`),
//! - `ph:"M"` metadata events name each transaction lane, emitted the
//!   first time a transaction appears.
//!
//! The heart of the module is [`ChromeWriter`], an *incremental*
//! serializer: it emits each record as the corresponding event arrives,
//! holding back only forced writes still waiting for their durable
//! notification. That makes it usable both after the fact over a
//! buffered [`Trace`] ([`chrome_trace_json`]) and *during* a run as a
//! [`TraceSink`] ([`ChromeStreamSink`]) with memory bounded by the
//! number of in-flight forces — not the run length. Both paths share
//! every byte of serialization code, so they produce identical output
//! for the same event sequence by construction.
//!
//! Records appear in event order (a complete event is written when its
//! durable notification arrives, stamped with its issue `ts`), not
//! sorted by timestamp; the Chrome/Perfetto importers do not require
//! sorted input.
//!
//! Serialization goes through the crate's one JSON writer — no serde,
//! because the repo is dependency-free by charter — which keeps the
//! `traceEvents` array open between records and escapes every name as
//! it is formatted, without building it as a `String` first.

use super::trace::{LogLabel, Trace, TraceEvent, TraceSink};
use super::types::TxnId;
use crate::json::Json;
use crate::workload::SiteId;
use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::Path;

/// A forced write whose durable notification has not arrived yet.
struct OpenForce {
    txn: TxnId,
    label: LogLabel,
    site: SiteId,
    ts: u64,
}

/// Incremental Chrome trace-event JSON serializer.
///
/// Feed it events with [`ChromeWriter::event`] and close the stream
/// with [`ChromeWriter::finish`]. State kept between events is bounded
/// by the simulation, not the run length: the list of forced writes
/// still awaiting their durable notification (at most the number of
/// in-flight log records, ~MPL per site) plus one id per transaction
/// seen (for lane-naming metadata).
pub struct ChromeWriter<W: io::Write> {
    out: W,
    /// The document, its `traceEvents` array open between events; each
    /// event's records leave through its reused buffer.
    json: Json,
    open_forces: Vec<OpenForce>,
    max_open_forces: usize,
    seen_txns: HashSet<TxnId>,
}

impl<W: io::Write> ChromeWriter<W> {
    /// Start a trace stream on `out`, writing the JSON preamble.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut out: W) -> io::Result<Self> {
        let mut json = Json::default();
        json.begin_object()
            .field("displayTimeUnit", "ms")
            .key("traceEvents")
            .begin_array();
        json.flush_to(&mut out)?;
        Ok(ChromeWriter {
            out,
            json,
            open_forces: Vec::new(),
            max_open_forces: 0,
            seen_txns: HashSet::new(),
        })
    }

    /// High-water mark of forced writes held awaiting their durable
    /// notification — the only event-derived buffering the writer does.
    pub fn max_open_forces(&self) -> usize {
        self.max_open_forces
    }

    /// Open a timed record with the members every one carries; an
    /// instant is thread-scoped, rendering as a tick on its row.
    fn begin(&mut self, ph: &str, ts: u64, pid: TxnId, tid: SiteId, name: fmt::Arguments<'_>) {
        self.json
            .begin_object()
            .field("name", name)
            .field("ph", ph)
            .field("ts", ts)
            .field("pid", pid)
            .field("tid", tid);
        if ph == "i" {
            self.json.field("s", "t");
        }
    }

    fn instant(&mut self, ts: u64, pid: TxnId, tid: SiteId, name: fmt::Arguments<'_>) {
        self.begin("i", ts, pid, tid, name);
        self.json.end_object();
    }

    /// A forced write from issue to durable, on its site's row.
    fn complete(&mut self, ts: u64, dur: u64, pid: TxnId, site: SiteId, name: fmt::Arguments<'_>) {
        self.begin("X", ts, pid, site, name);
        self.json
            .field("dur", dur)
            .key("args")
            .begin_object()
            .field("site", site)
            .end_object()
            .end_object();
    }

    /// Serialize one trace event, naming the transaction's lane first
    /// the first time it appears.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn event(&mut self, e: &TraceEvent) -> io::Result<()> {
        let txn = e.txn();
        if self.seen_txns.insert(txn) {
            self.json
                .begin_object()
                .field("name", "process_name")
                .field("ph", "M")
                .field("pid", txn)
                .field("tid", 0usize)
                .key("args")
                .begin_object()
                .field("name", format_args!("txn {txn}"))
                .end_object()
                .end_object();
        }
        self.record(e);
        self.json.flush_to(&mut self.out)
    }

    fn record(&mut self, e: &TraceEvent) {
        let (ts, txn) = (e.at().0, e.txn());
        match e {
            TraceEvent::Send {
                label,
                from,
                to,
                local,
                ..
            } => {
                if *local {
                    self.begin("i", ts, txn, *from, format_args!("{label:?} (local)"));
                } else {
                    let name = format_args!("{label:?} {from}\u{2192}{to}");
                    self.begin("i", ts, txn, *from, name);
                }
                self.json
                    .key("args")
                    .begin_object()
                    .field("from", *from)
                    .field("to", *to)
                    .field("local", *local)
                    .end_object()
                    .end_object();
            }
            TraceEvent::ForceLog { label, site, .. } => {
                // FIFO-match issue with the durable notification per
                // (txn, label, site): the log disk at each site serves
                // records in order, so the first unmatched issue is
                // always the one completing.
                self.open_forces.push(OpenForce {
                    txn,
                    label: *label,
                    site: *site,
                    ts,
                });
                self.max_open_forces = self.max_open_forces.max(self.open_forces.len());
            }
            TraceEvent::LogDone { label, site, .. } => {
                let matched = self
                    .open_forces
                    .iter()
                    .position(|o| o.txn == txn && o.label == *label && o.site == *site);
                if let Some(p) = matched {
                    let issued = self.open_forces.remove(p).ts;
                    let dur = ts.saturating_sub(issued);
                    self.complete(issued, dur, txn, *site, format_args!("force {label:?}"));
                } else {
                    // Durable record with no traced issue (the issue
                    // predated the trace window): keep it as an instant
                    // so the event is not silently dropped.
                    self.instant(ts, txn, *site, format_args!("force {label:?} durable"));
                }
            }
            TraceEvent::Prepared { cohort, site, .. } => {
                self.instant(ts, txn, *site, format_args!("cohort {cohort} PREPARED"))
            }
            TraceEvent::Borrowed {
                cohort, lenders, ..
            } => {
                let name = format_args!("cohort {cohort} borrowed ({lenders} lenders)");
                self.instant(ts, txn, 0, name)
            }
            TraceEvent::Shelved { cohort, .. } => {
                self.instant(ts, txn, 0, format_args!("cohort {cohort} shelved"))
            }
            TraceEvent::Unshelved { cohort, .. } => {
                self.instant(ts, txn, 0, format_args!("cohort {cohort} unshelved"))
            }
            TraceEvent::Decided { commit, .. } => {
                let decision = if *commit { "COMMIT" } else { "ABORT" };
                self.instant(ts, txn, 0, format_args!("GLOBAL {decision}"))
            }
            TraceEvent::Aborted { .. } => self.instant(ts, txn, 0, format_args!("aborted")),
            TraceEvent::MasterCrashed { .. } => {
                self.instant(ts, txn, 0, format_args!("MASTER CRASH"))
            }
            TraceEvent::CohortCrashed { cohort, .. } => {
                self.instant(ts, txn, 0, format_args!("COHORT {cohort} CRASH"))
            }
            TraceEvent::CohortRecovered { cohort, .. } => {
                self.instant(ts, txn, 0, format_args!("cohort {cohort} recovered"))
            }
            TraceEvent::MsgLost { label, .. } => {
                self.instant(ts, txn, 0, format_args!("{label:?} lost"))
            }
            TraceEvent::Retransmitted { label, attempt, .. } => {
                self.instant(ts, txn, 0, format_args!("retransmit {label:?} #{attempt}"))
            }
            TraceEvent::TerminationStarted { coordinator, .. } => {
                let name = format_args!("termination (coordinator cohort {coordinator})");
                self.instant(ts, txn, 0, name)
            }
            TraceEvent::FailoverStarted { leader, .. } => {
                let name = format_args!("leader failover (new leader site {leader})");
                self.instant(ts, txn, *leader, name)
            }
        }
    }

    /// Close the stream: an unmatched issue at trace end (force still
    /// in the log queue) becomes a zero-length complete event at its
    /// issue time, then the JSON footer is written. Returns the
    /// underlying writer.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        for o in std::mem::take(&mut self.open_forces) {
            let name = format_args!("force {:?} (incomplete)", o.label);
            self.complete(o.ts, 0, o.txn, o.site, name);
        }
        self.json.end_array().end_object();
        self.json.flush_to(&mut self.out)?;
        Ok(self.out)
    }
}

/// Serialize a buffered trace to Chrome trace-event JSON (object form,
/// with a `traceEvents` array), loadable in `chrome://tracing` or
/// Perfetto. Delegates to [`ChromeWriter`], so the output is
/// byte-identical to what [`ChromeStreamSink`] writes for the same
/// event sequence.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut w = ChromeWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    for e in &trace.events {
        w.event(e).expect("writing to a Vec cannot fail");
    }
    let bytes = w.finish().expect("writing to a Vec cannot fail");
    String::from_utf8(bytes).expect("the writer emits UTF-8")
}

/// A [`TraceSink`] that streams Chrome trace-event JSON to a file as
/// the run progresses, with memory bounded by the number of in-flight
/// forced writes rather than the run length.
///
/// I/O errors are latched on first occurrence (the sink goes quiet) and
/// surfaced by [`ChromeStreamSink::into_result`]; a sink cannot return
/// errors from inside the engine's event loop without perturbing the
/// simulation it is observing.
pub struct ChromeStreamSink {
    writer: Option<ChromeWriter<io::BufWriter<std::fs::File>>>,
    events: u64,
    max_open_forces: usize,
    error: Option<io::Error>,
}

impl ChromeStreamSink {
    /// Create (truncating) `path` and write the JSON preamble.
    ///
    /// # Errors
    /// Returns the error if the file cannot be created or written.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let writer = ChromeWriter::new(io::BufWriter::new(file))?;
        Ok(ChromeStreamSink {
            writer: Some(writer),
            events: 0,
            max_open_forces: 0,
            error: None,
        })
    }

    /// Events successfully serialized so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Consume the sink: the number of events written, or the first
    /// I/O error encountered.
    ///
    /// # Errors
    /// Returns the first write error hit during the run, if any.
    pub fn into_result(self) -> io::Result<u64> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.events),
        }
    }
}

impl TraceSink for ChromeStreamSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            match w.event(event) {
                Ok(()) => {
                    self.events += 1;
                    self.max_open_forces = self.max_open_forces.max(w.max_open_forces());
                }
                Err(e) => self.error = Some(e),
            }
        }
    }

    fn finish(&mut self) {
        if let Some(w) = self.writer.take() {
            self.max_open_forces = self.max_open_forces.max(w.max_open_forces());
            let flushed = w.finish().and_then(|mut out| io::Write::flush(&mut out));
            if let (Err(e), None) = (flushed, self.error.as_ref()) {
                self.error = Some(e);
            }
        }
    }
}

impl ChromeStreamSink {
    /// High-water mark of forced writes buffered while streaming — the
    /// sink's only event-derived memory (see [`ChromeWriter`]).
    pub fn max_open_forces(&self) -> usize {
        self.max_open_forces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::trace::{LogLabel, MsgLabel};
    use simkernel::SimTime;

    #[test]
    fn force_pairs_become_complete_events() {
        let tr = Trace {
            events: vec![
                TraceEvent::ForceLog {
                    at: SimTime(100),
                    txn: 1,
                    label: LogLabel::Prepare,
                    site: 2,
                },
                TraceEvent::LogDone {
                    at: SimTime(350),
                    txn: 1,
                    label: LogLabel::Prepare,
                    site: 2,
                },
            ],
        };
        let json = chrome_trace_json(&tr);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("\"dur\":250"));
    }

    #[test]
    fn unmatched_force_is_kept() {
        let tr = Trace {
            events: vec![TraceEvent::ForceLog {
                at: SimTime(7),
                txn: 4,
                label: LogLabel::MasterCommit,
                site: 0,
            }],
        };
        let json = chrome_trace_json(&tr);
        assert!(json.contains("incomplete"));
        assert!(json.contains("\"dur\":0"));
    }

    #[test]
    fn sends_map_txn_to_pid_and_site_to_tid() {
        let tr = Trace {
            events: vec![TraceEvent::Send {
                at: SimTime(42),
                txn: 9,
                label: MsgLabel::Prepare,
                from: 3,
                to: 5,
                local: false,
            }],
        };
        let json = chrome_trace_json(&tr);
        assert!(json.contains("\"pid\":9"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"ts\":42"));
        assert!(json.contains("\"s\":\"t\""));
        // Metadata names the transaction lane.
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("txn 9"));
    }

    #[test]
    fn metadata_is_emitted_once_per_txn_at_first_sight() {
        let send = |ts: u64, txn: TxnId| TraceEvent::Send {
            at: SimTime(ts),
            txn,
            label: MsgLabel::Prepare,
            from: 0,
            to: 1,
            local: false,
        };
        let tr = Trace {
            events: vec![send(1, 7), send(2, 3), send(3, 7)],
        };
        let json = chrome_trace_json(&tr);
        assert_eq!(json.matches("\"txn 7\"").count(), 1);
        assert_eq!(json.matches("\"txn 3\"").count(), 1);
        // First sight order: txn 7's lane is named before txn 3's.
        assert!(json.find("\"txn 7\"").unwrap() < json.find("\"txn 3\"").unwrap());
    }

    #[test]
    fn incremental_writer_matches_batch_function() {
        let tr = Trace {
            events: vec![
                TraceEvent::ForceLog {
                    at: SimTime(10),
                    txn: 1,
                    label: LogLabel::Prepare,
                    site: 0,
                },
                TraceEvent::Send {
                    at: SimTime(15),
                    txn: 2,
                    label: MsgLabel::VoteYes,
                    from: 1,
                    to: 0,
                    local: false,
                },
                TraceEvent::LogDone {
                    at: SimTime(20),
                    txn: 1,
                    label: LogLabel::Prepare,
                    site: 0,
                },
                TraceEvent::Decided {
                    at: SimTime(25),
                    txn: 1,
                    commit: true,
                },
            ],
        };
        let mut w = ChromeWriter::new(Vec::new()).unwrap();
        for e in &tr.events {
            w.event(e).unwrap();
        }
        let incremental = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(incremental, chrome_trace_json(&tr));
        // The X record for the force is stamped with its issue time
        // even though it is written at durable time.
        assert!(incremental.contains("\"ts\":10"));
        assert!(incremental.contains("\"dur\":10"));
    }

    #[test]
    fn open_force_high_water_mark_is_tracked() {
        let mut w = ChromeWriter::new(Vec::new()).unwrap();
        for site in 0..4 {
            w.event(&TraceEvent::ForceLog {
                at: SimTime(site as u64),
                txn: 1,
                label: LogLabel::Prepare,
                site,
            })
            .unwrap();
        }
        for site in 0..4 {
            w.event(&TraceEvent::LogDone {
                at: SimTime(10 + site as u64),
                txn: 1,
                label: LogLabel::Prepare,
                site,
            })
            .unwrap();
        }
        assert_eq!(w.max_open_forces(), 4);
        w.finish().unwrap();
    }
}
