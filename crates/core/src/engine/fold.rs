//! Flamegraph folding: aggregate per-transaction timelines into a
//! weighted phase → station → activity call-tree, rendered in the
//! collapsed-stack format (`frame;frame;frame weight`) consumed by
//! `flamegraph.pl`, inferno, speedscope and friends.
//!
//! [`FoldSink`] is a [`TraceSink`]: instead of buffering events it
//! attributes the interval between each pair of consecutive events of a
//! transaction to the *earlier* event — the activity the transaction
//! was engaged in during that interval — and accumulates the µs into a
//! stack of the form
//!
//! ```text
//! <root>;<phase>;<station>;<activity>
//! ```
//!
//! where `<phase>` is the commit-processing phase the transaction was
//! in (`exec` until its first commit-protocol event, `vote` until the
//! global decision, `ack` afterwards, resetting to `exec` when an abort
//! restarts the transaction) and `<station>` is the site the opening
//! event ran at (`global` for events without a site, such as the
//! decision milestone). Aggregated over thousands of transactions this
//! shows at a glance where commit latency goes — e.g. 3PC's extra
//! forced write and round trip show up as wide `vote` frames that 2PC
//! simply does not have.
//!
//! Per event the sink does two lookups keyed by `Copy` ids — the open
//! interval by transaction, the stack by (phase, station, activity) —
//! and builds no string: frame names are spelled, and stacks sorted,
//! only when the fold is read ([`FoldSink::stacks`], [`FoldSink::render`]).
//!
//! Memory is bounded by the number of live traced transactions (one
//! open interval each) plus one counter per distinct stack — not the
//! run length.

use super::trace::{IdHash, LogLabel, MsgLabel, TraceEvent, TraceSink};
use super::types::TxnId;
use crate::workload::SiteId;
use simkernel::SimTime;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};

/// Commit-processing phase of one transaction, in trace order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Exec,
    Vote,
    Ack,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Exec => "exec",
            Phase::Vote => "vote",
            Phase::Ack => "ack",
        }
    }
}

/// Where an event ran: a site, or `global` for events without one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Station {
    Site(SiteId),
    Global,
}

impl fmt::Display for Station {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Station::Site(site) => write!(f, "site {site}"),
            Station::Global => f.write_str("global"),
        }
    }
}

/// What a transaction was doing from an event until its next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Activity {
    Send(MsgLabel),
    Force(LogLabel),
    Forced(LogLabel),
    Prepared,
    Borrowed,
    Shelved,
    Unshelved,
    Decided { commit: bool },
    Aborted,
    MasterCrashed,
    CohortCrashed,
    CohortRecovered,
    Lost(MsgLabel),
    Retransmit(MsgLabel),
    Termination,
    Failover,
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Activity::Send(label) => write!(f, "send {}", label.name()),
            Activity::Force(label) => write!(f, "force {}", label.name()),
            Activity::Forced(label) => write!(f, "forced {}", label.name()),
            Activity::Lost(label) => write!(f, "{} lost", label.name()),
            Activity::Retransmit(label) => write!(f, "retransmit {}", label.name()),
            Activity::Prepared => f.write_str("prepared"),
            Activity::Borrowed => f.write_str("borrowed"),
            Activity::Shelved => f.write_str("shelved"),
            Activity::Unshelved => f.write_str("unshelved"),
            Activity::Decided { commit: true } => f.write_str("decided commit"),
            Activity::Decided { commit: false } => f.write_str("decided abort"),
            Activity::Aborted => f.write_str("aborted"),
            Activity::MasterCrashed => f.write_str("master crashed"),
            Activity::CohortCrashed => f.write_str("cohort crashed"),
            Activity::CohortRecovered => f.write_str("cohort recovered"),
            Activity::Termination => f.write_str("termination"),
            Activity::Failover => f.write_str("leader failover"),
        }
    }
}

/// One stack below the root, as ids.
type Frames = (Phase, Station, Activity);

/// The open interval of one transaction: the stack its time is
/// accruing to and when that interval began.
struct OpenInterval {
    since: SimTime,
    frames: Frames,
}

/// A [`TraceSink`] that folds per-transaction timelines into weighted
/// collapsed stacks. See the module docs for the stack shape.
pub struct FoldSink {
    root: String,
    /// Stack → accumulated µs, in no order; [`FoldSink::stacks`] names
    /// and sorts them.
    stacks: HashMap<Frames, u64, IdHash>,
    open: HashMap<TxnId, OpenInterval, IdHash>,
}

impl FoldSink {
    /// A fold rooted at `root` (conventionally the protocol label, so
    /// folds from different runs can be diffed frame by frame).
    pub fn new(root: impl Into<String>) -> Self {
        FoldSink {
            root: root.into(),
            stacks: HashMap::default(),
            open: HashMap::default(),
        }
    }

    /// True when an event belongs to transaction execution rather than
    /// commit processing: cohort setup and the work-done report.
    fn is_exec_event(e: &TraceEvent) -> bool {
        matches!(
            e,
            TraceEvent::Send {
                label: MsgLabel::InitCohort | MsgLabel::WorkDone,
                ..
            }
        )
    }

    /// The station and activity frames an event opens.
    fn frames(e: &TraceEvent) -> (Station, Activity) {
        match *e {
            TraceEvent::Send { label, from, .. } => (Station::Site(from), Activity::Send(label)),
            TraceEvent::ForceLog { label, site, .. } => {
                (Station::Site(site), Activity::Force(label))
            }
            TraceEvent::LogDone { label, site, .. } => {
                (Station::Site(site), Activity::Forced(label))
            }
            TraceEvent::Prepared { site, .. } => (Station::Site(site), Activity::Prepared),
            TraceEvent::Borrowed { .. } => (Station::Global, Activity::Borrowed),
            TraceEvent::Shelved { .. } => (Station::Global, Activity::Shelved),
            TraceEvent::Unshelved { .. } => (Station::Global, Activity::Unshelved),
            TraceEvent::Decided { commit, .. } => (Station::Global, Activity::Decided { commit }),
            TraceEvent::Aborted { .. } => (Station::Global, Activity::Aborted),
            TraceEvent::MasterCrashed { .. } => (Station::Global, Activity::MasterCrashed),
            TraceEvent::CohortCrashed { .. } => (Station::Global, Activity::CohortCrashed),
            TraceEvent::CohortRecovered { .. } => (Station::Global, Activity::CohortRecovered),
            TraceEvent::MsgLost { label, .. } => (Station::Global, Activity::Lost(label)),
            TraceEvent::Retransmitted { label, .. } => {
                (Station::Global, Activity::Retransmit(label))
            }
            TraceEvent::TerminationStarted { .. } => (Station::Global, Activity::Termination),
            TraceEvent::FailoverStarted { .. } => (Station::Global, Activity::Failover),
        }
    }

    /// The phase an event opens, given the phase of the interval it
    /// closes (`None` for a transaction's first event).
    fn phase(e: &TraceEvent, prev: Option<Phase>) -> Phase {
        match e {
            // The restart that follows an abort begins a fresh
            // execution phase.
            TraceEvent::Aborted { .. } => Phase::Exec,
            TraceEvent::Decided { .. } => Phase::Ack,
            e => {
                let prev = prev.unwrap_or(Phase::Exec);
                if prev == Phase::Exec && !Self::is_exec_event(e) {
                    Phase::Vote
                } else {
                    prev
                }
            }
        }
    }

    /// Accumulated stacks (stack → µs), named and sorted by stack.
    pub fn stacks(&self) -> BTreeMap<String, u64> {
        let mut named = BTreeMap::new();
        for (&(phase, station, activity), &weight) in &self.stacks {
            let stack = format!("{};{};{station};{activity}", self.root, phase.name());
            *named.entry(stack).or_insert(0) += weight;
        }
        named
    }

    /// Render the fold in collapsed-stack format: one
    /// `frame;frame;frame weight` line per stack, sorted by stack,
    /// weights in µs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (stack, weight) in self.stacks() {
            let _ = writeln!(out, "{stack} {weight}");
        }
        out
    }
}

impl TraceSink for FoldSink {
    fn record(&mut self, event: &TraceEvent) {
        let at = event.at();
        let (station, activity) = Self::frames(event);
        match self.open.entry(event.txn()) {
            Entry::Occupied(mut slot) => {
                let open = slot.get_mut();
                let weight = at.since(open.since).as_micros();
                if weight > 0 {
                    *self.stacks.entry(open.frames).or_insert(0) += weight;
                }
                let phase = Self::phase(event, Some(open.frames.0));
                *open = OpenInterval {
                    since: at,
                    frames: (phase, station, activity),
                };
            }
            Entry::Vacant(slot) => {
                slot.insert(OpenInterval {
                    since: at,
                    frames: (Self::phase(event, None), station, activity),
                });
            }
        }
    }

    fn finish(&mut self) {
        // Open tails have no end point; drop them so the fold only
        // contains fully-delimited intervals.
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::trace::LogLabel;

    fn send(ts: u64, txn: TxnId, label: MsgLabel) -> TraceEvent {
        TraceEvent::Send {
            at: SimTime(ts),
            txn,
            label,
            from: 0,
            to: 1,
            local: false,
        }
    }

    #[test]
    fn intervals_attribute_to_the_earlier_event() {
        let mut f = FoldSink::new("2PC");
        f.record(&send(0, 1, MsgLabel::InitCohort));
        f.record(&send(100, 1, MsgLabel::WorkDone));
        f.finish();
        // [0,100) belongs to the InitCohort send, in the exec phase;
        // the WorkDone tail is open and dropped.
        let rendered = f.render();
        assert_eq!(rendered, "2PC;exec;site 0;send InitCohort 100\n");
    }

    #[test]
    fn phases_progress_exec_vote_ack() {
        let mut f = FoldSink::new("p");
        f.record(&send(0, 1, MsgLabel::WorkDone)); // exec
        f.record(&send(10, 1, MsgLabel::Prepare)); // vote starts
        f.record(&TraceEvent::Decided {
            at: SimTime(30),
            txn: 1,
            commit: true,
        }); // ack starts
        f.record(&send(60, 1, MsgLabel::Ack));
        f.record(&send(100, 1, MsgLabel::Ack));
        f.finish();
        let stacks = f.stacks();
        assert_eq!(stacks["p;exec;site 0;send WorkDone"], 10);
        assert_eq!(stacks["p;vote;site 0;send Prepare"], 20);
        assert_eq!(stacks["p;ack;global;decided commit"], 30);
        assert_eq!(stacks["p;ack;site 0;send Ack"], 40);
    }

    #[test]
    fn abort_resets_to_exec_phase() {
        let mut f = FoldSink::new("p");
        f.record(&send(0, 1, MsgLabel::Prepare)); // vote (first commit event)
        f.record(&TraceEvent::Aborted {
            at: SimTime(10),
            txn: 1,
        });
        f.record(&send(30, 1, MsgLabel::InitCohort)); // restart: exec again
        f.record(&send(70, 1, MsgLabel::WorkDone));
        f.finish();
        let stacks = f.stacks();
        assert_eq!(stacks["p;vote;site 0;send Prepare"], 10);
        assert_eq!(stacks["p;exec;global;aborted"], 20);
        assert_eq!(stacks["p;exec;site 0;send InitCohort"], 40);
    }

    #[test]
    fn forced_writes_fold_under_their_site() {
        let mut f = FoldSink::new("p");
        f.record(&TraceEvent::ForceLog {
            at: SimTime(0),
            txn: 1,
            label: LogLabel::Prepare,
            site: 3,
        });
        f.record(&TraceEvent::LogDone {
            at: SimTime(25),
            txn: 1,
            label: LogLabel::Prepare,
            site: 3,
        });
        f.record(&TraceEvent::Decided {
            at: SimTime(40),
            txn: 1,
            commit: true,
        });
        f.finish();
        let stacks = f.stacks();
        assert_eq!(stacks["p;vote;site 3;force Prepare"], 25);
        assert_eq!(stacks["p;vote;site 3;forced Prepare"], 15);
    }

    #[test]
    fn zero_width_intervals_add_no_stack() {
        let mut f = FoldSink::new("p");
        f.record(&send(5, 1, MsgLabel::Prepare));
        f.record(&send(5, 1, MsgLabel::VoteYes));
        f.record(&send(9, 1, MsgLabel::DecisionCommit));
        f.finish();
        // The Prepare interval is zero-width and must not appear.
        assert!(!f.render().contains("send Prepare"));
        assert_eq!(f.stacks()["p;vote;site 0;send VoteYes"], 4);
    }

    #[test]
    fn render_is_sorted_and_parseable() {
        let mut f = FoldSink::new("p");
        f.record(&send(0, 2, MsgLabel::WorkDone));
        f.record(&send(7, 2, MsgLabel::Prepare));
        f.record(&send(9, 2, MsgLabel::VoteYes));
        f.finish();
        let rendered = f.render();
        let lines: Vec<&str> = rendered.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        for line in lines {
            let (stack, weight) = line.rsplit_once(' ').expect("stack <weight>");
            assert!(stack.split(';').count() >= 3, "stack {stack}");
            weight.parse::<u64>().expect("numeric weight");
        }
    }
}
