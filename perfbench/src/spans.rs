//! An in-memory span recorder for the benchmark's traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a simulator layer; nothing inside the simulator reads a
//! clock. Each span holds its name, start, end, parent and cell id, and
//! the recording thread, so spans from the runner's worker threads can
//! be told apart. Spans stay in memory and are written once, as JSON,
//! when the run ends.

use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its [`Recorder`].
pub type SpanId = usize;

/// One timed interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch (equal to `start` while open).
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Simulation cell the span belongs to (grid index or run index).
    pub cell: Option<u32>,
    /// Small dense id of the thread that recorded the span.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.ns() as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, cell: Option<u32>) -> SpanId {
        let thread = THREAD.with(|t| *t);
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let start = self.now();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            cell,
            thread,
        });
        spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.lock().expect("span recorder poisoned")[id].end = end;
    }

    /// Run `f` inside a span named `name`, passing it the span's id so
    /// `f` can parent further spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: Option<u32>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent, cell);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far, in opening order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by at least one direct child. Children running concurrently
/// on several threads cover their union once, never their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.ns() - covered
        })
        .collect()
}

/// Write `spans` (with their self times) as one JSON document.
pub fn write_json(spans: &[Span], out: &mut impl io::Write) -> io::Result<()> {
    let selfs = self_times(spans);
    writeln!(out, "{{\"unit\":\"ns\",\"spans\":[")?;
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{self_ns},\"parent\":{},\"cell\":{},\"thread\":{}}}{}",
            s.name,
            s.start,
            s.end,
            opt(s.parent.map(|p| p as u64)),
            opt(s.cell.map(u64::from)),
            s.thread,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, thread: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: None,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A grid span [0, 100) on thread 0; worker thread 1 runs cells
        // [10, 40) and [45, 70); worker thread 2 runs [20, 60) and
        // [65, 90). The children cover [10, 90) once: 80 ns, although
        // their durations sum to 120 ns.
        let spans = vec![
            span("runner.grid", 0, 100, None, 0),
            span("engine.run", 10, 40, Some(0), 1),
            span("engine.run", 45, 70, Some(0), 1),
            span("engine.run", 20, 60, Some(0), 2),
            span("engine.run", 65, 90, Some(0), 2),
            // A grandchild inside the first cell: it reduces that
            // cell's self time, never the grid's.
            span("render.json", 15, 25, Some(1), 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 20);
        assert_eq!(selfs[1], 20);
        assert_eq!(&selfs[2..], &[25, 40, 25, 10]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("p", 10, 20, None, 0),
            span("c", 5, 15, Some(0), 1),
            span("d", 18, 30, Some(0), 2),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn recorder_tags_threads_and_nests() {
        let rec = Recorder::new();
        let outer = rec.open("outer", None, None);
        std::thread::scope(|s| {
            s.spawn(|| rec.span("inner", Some(outer), Some(7), |_| ()));
        });
        rec.close(outer);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].cell, Some(7));
        assert_ne!(spans[0].thread, spans[1].thread);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let mut json = Vec::new();
        write_json(&spans, &mut json).unwrap();
        assert!(String::from_utf8(json)
            .unwrap()
            .contains("\"name\":\"inner\""));
    }
}
