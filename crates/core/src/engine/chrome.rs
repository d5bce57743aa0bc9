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
//! Every record has one of four fixed shapes (lane metadata, instant,
//! message instant, complete), so each is appended straight from
//! pre-quoted fragments, the labels' [`MsgLabel::name`] and
//! [`LogLabel::name`] tables and the crate's fmt-free integers: no key
//! is quoted, no name formatted and no text escaped per event. The
//! document around the records — preamble, the comma between records,
//! footer — is the crate's one JSON writer's, and a unit test checks
//! that every name needs no escaping.
//!
//! [`MsgLabel::name`]: super::MsgLabel::name

use super::trace::{IdHash, LogLabel, Trace, TraceEvent, TraceSink};
use super::types::TxnId;
use crate::json::{push_u64, Json};
use crate::workload::SiteId;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// A forced write whose durable notification has not arrived yet.
struct OpenForce {
    txn: TxnId,
    label: LogLabel,
    site: SiteId,
    ts: u64,
}

/// One piece of a record's name: text that needs no JSON escaping, or
/// an integer.
#[derive(Clone, Copy)]
enum Part {
    Text(&'static str),
    Int(u64),
}

use Part::{Int, Text};

/// The fixed text of the records, keys and punctuation pre-quoted.
/// Every record opens with [`NAME`], its name and one of the `ph`
/// fragments, then carries `pid` and `tid`.
const NAME: &str = "{\"name\":\"";
const INSTANT: &str = "\",\"ph\":\"i\",\"ts\":";
const COMPLETE: &str = "\",\"ph\":\"X\",\"ts\":";
const PID: &str = ",\"pid\":";
const TID: &str = ",\"tid\":";
/// Closes an instant: thread-scoped, a tick on its row.
const THREAD_SCOPED: &str = ",\"s\":\"t\"}";
/// A message instant's `args`, between its thread scope and the end.
const SEND_ARGS: &str = ",\"s\":\"t\",\"args\":{\"from\":";
const SEND_TO: &str = ",\"to\":";
const SEND_LOCAL: &str = ",\"local\":true}}";
const SEND_REMOTE: &str = ",\"local\":false}}";
const DUR: &str = ",\"dur\":";
const SITE_ARGS: &str = ",\"args\":{\"site\":";
const END_COMPLETE: &str = "}}";
/// Lane metadata: `pid`, then its `txn <id>` name.
const LANE: &str = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
const LANE_NAME: &str = ",\"tid\":0,\"args\":{\"name\":\"txn ";
const END_LANE: &str = "\"}}";

fn text(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
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
    seen_txns: HashSet<TxnId, IdHash>,
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
            seen_txns: HashSet::default(),
        })
    }

    /// High-water mark of forced writes held awaiting their durable
    /// notification — the only event-derived buffering the writer does.
    pub fn max_open_forces(&self) -> usize {
        self.max_open_forces
    }

    /// Start a timed record: its name, its phase fragment and `ts`,
    /// `pid` and `tid`. The caller closes it.
    fn begin(&mut self, ph: &str, ts: u64, pid: TxnId, tid: SiteId, name: &[Part]) -> &mut Vec<u8> {
        let out = self.json.element();
        text(out, NAME);
        for part in name {
            match *part {
                Text(s) => text(out, s),
                Int(v) => push_u64(out, v),
            }
        }
        text(out, ph);
        push_u64(out, ts);
        text(out, PID);
        push_u64(out, pid);
        text(out, TID);
        push_u64(out, tid as u64);
        out
    }

    fn instant(&mut self, ts: u64, pid: TxnId, tid: SiteId, name: &[Part]) {
        let out = self.begin(INSTANT, ts, pid, tid, name);
        text(out, THREAD_SCOPED);
    }

    /// A forced write from issue to durable, on its site's row.
    fn complete(&mut self, ts: u64, dur: u64, pid: TxnId, site: SiteId, name: &[Part]) {
        let out = self.begin(COMPLETE, ts, pid, site, name);
        text(out, DUR);
        push_u64(out, dur);
        text(out, SITE_ARGS);
        push_u64(out, site as u64);
        text(out, END_COMPLETE);
    }

    /// Serialize one trace event, naming the transaction's lane first
    /// the first time it appears.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying writer.
    pub fn event(&mut self, e: &TraceEvent) -> io::Result<()> {
        let txn = e.txn();
        if self.seen_txns.insert(txn) {
            let out = self.json.element();
            text(out, LANE);
            push_u64(out, txn);
            text(out, LANE_NAME);
            push_u64(out, txn);
            text(out, END_LANE);
        }
        self.record(e);
        self.json.flush_to(&mut self.out)
    }

    fn record(&mut self, e: &TraceEvent) {
        let (ts, txn) = (e.at().0, e.txn());
        match *e {
            TraceEvent::Send {
                label,
                from,
                to,
                local,
                ..
            } => {
                let (from64, to64) = (from as u64, to as u64);
                let out = if local {
                    let name = [Text(label.name()), Text(" (local)")];
                    self.begin(INSTANT, ts, txn, from, &name)
                } else {
                    let name = [
                        Text(label.name()),
                        Text(" "),
                        Int(from64),
                        Text("\u{2192}"),
                        Int(to64),
                    ];
                    self.begin(INSTANT, ts, txn, from, &name)
                };
                text(out, SEND_ARGS);
                push_u64(out, from64);
                text(out, SEND_TO);
                push_u64(out, to64);
                text(out, if local { SEND_LOCAL } else { SEND_REMOTE });
            }
            TraceEvent::ForceLog { label, site, .. } => {
                // FIFO-match issue with the durable notification per
                // (txn, label, site): the log disk at each site serves
                // records in order, so the first unmatched issue is
                // always the one completing.
                self.open_forces.push(OpenForce {
                    txn,
                    label,
                    site,
                    ts,
                });
                self.max_open_forces = self.max_open_forces.max(self.open_forces.len());
            }
            TraceEvent::LogDone { label, site, .. } => {
                let matched = self
                    .open_forces
                    .iter()
                    .position(|o| o.txn == txn && o.label == label && o.site == site);
                if let Some(p) = matched {
                    let issued = self.open_forces.remove(p).ts;
                    let dur = ts.saturating_sub(issued);
                    let name = [Text("force "), Text(label.name())];
                    self.complete(issued, dur, txn, site, &name);
                } else {
                    // Durable record with no traced issue (the issue
                    // predated the trace window): keep it as an instant
                    // so the event is not silently dropped.
                    let name = [Text("force "), Text(label.name()), Text(" durable")];
                    self.instant(ts, txn, site, &name);
                }
            }
            TraceEvent::Prepared { cohort, site, .. } => {
                let name = [Text("cohort "), Int(cohort), Text(" PREPARED")];
                self.instant(ts, txn, site, &name)
            }
            TraceEvent::Borrowed {
                cohort, lenders, ..
            } => {
                let name = [
                    Text("cohort "),
                    Int(cohort),
                    Text(" borrowed ("),
                    Int(lenders as u64),
                    Text(" lenders)"),
                ];
                self.instant(ts, txn, 0, &name)
            }
            TraceEvent::Shelved { cohort, .. } => {
                let name = [Text("cohort "), Int(cohort), Text(" shelved")];
                self.instant(ts, txn, 0, &name)
            }
            TraceEvent::Unshelved { cohort, .. } => {
                let name = [Text("cohort "), Int(cohort), Text(" unshelved")];
                self.instant(ts, txn, 0, &name)
            }
            TraceEvent::Decided { commit: true, .. } => {
                self.instant(ts, txn, 0, &[Text("GLOBAL COMMIT")])
            }
            TraceEvent::Decided { commit: false, .. } => {
                self.instant(ts, txn, 0, &[Text("GLOBAL ABORT")])
            }
            TraceEvent::Aborted { .. } => self.instant(ts, txn, 0, &[Text("aborted")]),
            TraceEvent::MasterCrashed { .. } => self.instant(ts, txn, 0, &[Text("MASTER CRASH")]),
            TraceEvent::CohortCrashed { cohort, .. } => {
                self.instant(ts, txn, 0, &[Text("COHORT "), Int(cohort), Text(" CRASH")])
            }
            TraceEvent::CohortRecovered { cohort, .. } => {
                let name = [Text("cohort "), Int(cohort), Text(" recovered")];
                self.instant(ts, txn, 0, &name)
            }
            TraceEvent::MsgLost { label, .. } => {
                self.instant(ts, txn, 0, &[Text(label.name()), Text(" lost")])
            }
            TraceEvent::Retransmitted { label, attempt, .. } => {
                let name = [
                    Text("retransmit "),
                    Text(label.name()),
                    Text(" #"),
                    Int(u64::from(attempt)),
                ];
                self.instant(ts, txn, 0, &name)
            }
            TraceEvent::TerminationStarted { coordinator, .. } => {
                let name = [
                    Text("termination (coordinator cohort "),
                    Int(coordinator),
                    Text(")"),
                ];
                self.instant(ts, txn, 0, &name)
            }
            TraceEvent::FailoverStarted { leader, .. } => {
                let name = [
                    Text("leader failover (new leader site "),
                    Int(leader as u64),
                    Text(")"),
                ];
                self.instant(ts, txn, leader, &name)
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
            let name = [Text("force "), Text(o.label.name()), Text(" (incomplete)")];
            self.complete(o.ts, 0, o.txn, o.site, &name);
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
/// I/O errors are latched on first occurrence (the sink drops its
/// writer and goes quiet) and surfaced by
/// [`ChromeStreamSink::into_result`]; a sink cannot return errors from
/// inside the engine's event loop without perturbing the simulation it
/// is observing.
pub struct ChromeStreamSink {
    writer: Option<ChromeWriter<io::BufWriter<std::fs::File>>>,
    events: u64,
    /// The writer's open-force high-water mark, kept once it is gone.
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

    /// High-water mark of forced writes buffered while streaming — the
    /// sink's only event-derived memory (see [`ChromeWriter`]).
    pub fn max_open_forces(&self) -> usize {
        self.writer
            .as_ref()
            .map_or(self.max_open_forces, ChromeWriter::max_open_forces)
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

    /// Detach the writer, keeping its high-water mark.
    fn take_writer(&mut self) -> Option<ChromeWriter<io::BufWriter<std::fs::File>>> {
        let w = self.writer.take()?;
        self.max_open_forces = w.max_open_forces();
        Some(w)
    }
}

impl TraceSink for ChromeStreamSink {
    fn record(&mut self, event: &TraceEvent) {
        if let Some(w) = self.writer.as_mut() {
            match w.event(event) {
                Ok(()) => self.events += 1,
                Err(e) => {
                    self.error = Some(e);
                    self.take_writer();
                }
            }
        }
    }

    fn finish(&mut self) {
        if let Some(w) = self.take_writer() {
            let flushed = w.finish().and_then(|mut out| io::Write::flush(&mut out));
            if let Err(e) = flushed {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::trace::MsgLabel;
    use crate::json::escape_into;
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

    /// One event of every variant, plus a local send, a durable record
    /// with no traced issue, a force still open at the end, extreme
    /// integers and `txn = u64::MAX`: every record shape and every name
    /// the writer can build.
    fn every_shape() -> Vec<TraceEvent> {
        let at = SimTime;
        vec![
            TraceEvent::Send {
                at: at(0),
                txn: 1,
                label: MsgLabel::Prepare,
                from: 0,
                to: 2,
                local: false,
            },
            TraceEvent::Send {
                at: at(2),
                txn: 1,
                label: MsgLabel::VoteYes,
                from: 2,
                to: 2,
                local: true,
            },
            TraceEvent::ForceLog {
                at: at(3),
                txn: 1,
                label: LogLabel::Prepare,
                site: 2,
            },
            TraceEvent::LogDone {
                at: at(10),
                txn: 1,
                label: LogLabel::Prepare,
                site: 2,
            },
            TraceEvent::LogDone {
                at: at(11),
                txn: 2,
                label: LogLabel::CohortCommit,
                site: 1,
            },
            TraceEvent::Prepared {
                at: at(12),
                txn: 1,
                cohort: 3,
                site: 2,
            },
            TraceEvent::Borrowed {
                at: at(13),
                txn: 2,
                cohort: 4,
                lenders: usize::MAX,
            },
            TraceEvent::Shelved {
                at: at(14),
                txn: 2,
                cohort: 4,
            },
            TraceEvent::Unshelved {
                at: at(15),
                txn: 2,
                cohort: 4,
            },
            TraceEvent::Decided {
                at: at(16),
                txn: 1,
                commit: true,
            },
            TraceEvent::Decided {
                at: at(17),
                txn: 2,
                commit: false,
            },
            TraceEvent::Aborted { at: at(18), txn: 2 },
            TraceEvent::MasterCrashed { at: at(19), txn: 3 },
            TraceEvent::CohortCrashed {
                at: at(20),
                txn: 3,
                cohort: 5,
                site: 1,
            },
            TraceEvent::CohortRecovered {
                at: at(21),
                txn: 3,
                cohort: 5,
            },
            TraceEvent::MsgLost {
                at: at(22),
                txn: 3,
                label: MsgLabel::DecisionCommit,
            },
            TraceEvent::Retransmitted {
                at: at(23),
                txn: 3,
                label: MsgLabel::DecisionCommit,
                attempt: u32::MAX,
            },
            TraceEvent::TerminationStarted {
                at: at(24),
                txn: 3,
                coordinator: u64::MAX,
            },
            TraceEvent::FailoverStarted {
                at: at(25),
                txn: u64::MAX,
                leader: 4,
            },
            TraceEvent::ForceLog {
                at: at(u64::MAX),
                txn: u64::MAX,
                label: LogLabel::AcceptorBundle,
                site: 4,
            },
        ]
    }

    /// The whole record vocabulary, byte for byte.
    #[test]
    fn every_record_shape_is_pinned_byte_for_byte() {
        let expected = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"txn 1\"}},",
            "{\"name\":\"Prepare 0\u{2192}2\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"from\":0,\"to\":2,\"local\":false}},",
            "{\"name\":\"VoteYes (local)\",\"ph\":\"i\",\"ts\":2,\"pid\":1,\"tid\":2,\"s\":\"t\",\"args\":{\"from\":2,\"to\":2,\"local\":true}},",
            "{\"name\":\"force Prepare\",\"ph\":\"X\",\"ts\":3,\"pid\":1,\"tid\":2,\"dur\":7,\"args\":{\"site\":2}},",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"txn 2\"}},",
            "{\"name\":\"force CohortCommit durable\",\"ph\":\"i\",\"ts\":11,\"pid\":2,\"tid\":1,\"s\":\"t\"},",
            "{\"name\":\"cohort 3 PREPARED\",\"ph\":\"i\",\"ts\":12,\"pid\":1,\"tid\":2,\"s\":\"t\"},",
            "{\"name\":\"cohort 4 borrowed (18446744073709551615 lenders)\",\"ph\":\"i\",\"ts\":13,\"pid\":2,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"cohort 4 shelved\",\"ph\":\"i\",\"ts\":14,\"pid\":2,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"cohort 4 unshelved\",\"ph\":\"i\",\"ts\":15,\"pid\":2,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"GLOBAL COMMIT\",\"ph\":\"i\",\"ts\":16,\"pid\":1,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"GLOBAL ABORT\",\"ph\":\"i\",\"ts\":17,\"pid\":2,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"aborted\",\"ph\":\"i\",\"ts\":18,\"pid\":2,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,\"args\":{\"name\":\"txn 3\"}},",
            "{\"name\":\"MASTER CRASH\",\"ph\":\"i\",\"ts\":19,\"pid\":3,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"COHORT 5 CRASH\",\"ph\":\"i\",\"ts\":20,\"pid\":3,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"cohort 5 recovered\",\"ph\":\"i\",\"ts\":21,\"pid\":3,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"DecisionCommit lost\",\"ph\":\"i\",\"ts\":22,\"pid\":3,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"retransmit DecisionCommit #4294967295\",\"ph\":\"i\",\"ts\":23,\"pid\":3,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"termination (coordinator cohort 18446744073709551615)\",\"ph\":\"i\",\"ts\":24,\"pid\":3,\"tid\":0,\"s\":\"t\"},",
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":18446744073709551615,\"tid\":0,\"args\":{\"name\":\"txn 18446744073709551615\"}},",
            "{\"name\":\"leader failover (new leader site 4)\",\"ph\":\"i\",\"ts\":25,\"pid\":18446744073709551615,\"tid\":4,\"s\":\"t\"},",
            "{\"name\":\"force AcceptorBundle (incomplete)\",\"ph\":\"X\",\"ts\":18446744073709551615,\"pid\":18446744073709551615,\"tid\":4,\"dur\":0,\"args\":{\"site\":4}}",
            "]}"
        );
        let events = every_shape();
        assert_eq!(chrome_trace_json(&Trace { events }), expected);
    }

    /// Records are written without escaping their names, so every name
    /// the writer builds, and every label name in them, must be text
    /// that escaping leaves unchanged.
    #[test]
    fn every_name_and_label_needs_no_escaping() {
        let unchanged = |s: &str| {
            let mut out = Vec::new();
            escape_into(&mut out, s);
            out == s.as_bytes()
        };
        for label in MsgLabel::ALL {
            assert!(unchanged(label.name()), "{label:?}");
        }
        for label in LogLabel::ALL {
            assert!(unchanged(label.name()), "{label:?}");
        }
        let json = chrome_trace_json(&Trace {
            events: every_shape(),
        });
        // A name runs from `{"name":"` to the `","ph":"` that follows
        // it (a lane's `txn <id>` to its `"}}`), so a stray quote in one
        // is caught rather than cut off.
        let names: Vec<&str> = json
            .split(NAME)
            .skip(1)
            .map(|rec| {
                let end = ["\",\"ph\":\"", END_LANE].map(|d| rec.find(d).unwrap_or(rec.len()));
                &rec[..end[0].min(end[1])]
            })
            .collect();
        assert_eq!(names.len(), 23 + 4, "a name per record, and each lane's");
        for name in names {
            assert!(unchanged(name), "{name:?}");
        }
    }
}
