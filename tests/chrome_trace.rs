//! The Chrome trace-event exporter produces JSON that external viewers
//! (chrome://tracing, Perfetto) must be able to load. These tests parse
//! the export with a small hand-rolled JSON parser — the repository is
//! dependency-free, and round-tripping through an *independent* parser
//! is exactly the well-formedness guarantee the viewers need — and then
//! check the field mapping back against the recorded [`TraceEvent`]s.

use distcommit::db::config::{FailureConfig, SystemConfig};
use distcommit::db::engine::{
    chrome_trace_json, ChromeStreamSink, Observers, Simulation, Trace, TraceEvent,
};
use distcommit::db::metrics::SimReport;
use distcommit::proto::ProtocolSpec;

/// Run with the first `txns` transactions traced into a buffer.
fn trace_run(cfg: &SystemConfig, spec: ProtocolSpec, seed: u64, txns: u64) -> (SimReport, Trace) {
    let mut trace = Trace::default();
    let obs = Observers {
        trace: Some((txns, &mut trace)),
        series: None,
    };
    let report = Simulation::run_observed(cfg, spec, seed, obs).expect("valid config");
    (report, trace)
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser (test-only).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("truncated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    // Decode only the next scalar (at most 4 bytes):
                    // validating the whole rest of the document for every
                    // character makes parsing quadratic.
                    let head = &self.bytes[self.pos..self.bytes.len().min(self.pos + 4)];
                    let head = match std::str::from_utf8(head) {
                        Ok(s) => s,
                        Err(e) => std::str::from_utf8(&head[..e.valid_up_to()]).unwrap_or_default(),
                    };
                    let c = head.chars().next().ok_or("invalid UTF-8")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] , found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected , or }} , found {other:?}")),
            }
        }
    }
}

fn parse_json(s: &str) -> Json {
    let mut p = Parser::new(s);
    let v = p.value().expect("export must be well-formed JSON");
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
    v
}

// ---------------------------------------------------------------------
// The actual exporter tests.
// ---------------------------------------------------------------------

fn traced_run() -> (distcommit::db::engine::Trace, String) {
    let cfg = SystemConfig::paper_baseline().with_run_length(10, 60);
    let (_, trace) = trace_run(&cfg, ProtocolSpec::TWO_PC, 0xC0FFEE, 3);
    let json = chrome_trace_json(&trace);
    (trace, json)
}

/// Events carrying a timestamp, i.e. everything except `ph:"M"`.
fn timed_events(doc: &Json) -> Vec<&Json> {
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("missing traceEvents array");
    };
    events
        .iter()
        .filter(|e| e.get("ph").map(Json::as_str) != Some("M"))
        .collect()
}

#[test]
fn export_round_trips_through_an_independent_parser() {
    let (trace, json) = traced_run();
    let doc = parse_json(&json);
    assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), "ms");
    let timed = timed_events(&doc);
    assert!(
        timed.len() >= trace.events.len() / 2,
        "export dropped events: {} timed records from {} trace events",
        timed.len(),
        trace.events.len()
    );
    // Every record has the mandatory fields with the right types.
    for e in &timed {
        let ph = e.get("ph").expect("ph").as_str();
        assert!(matches!(ph, "i" | "X"), "unexpected phase {ph:?}");
        assert!(e.get("ts").expect("ts").as_num() >= 0.0);
        assert!(e.get("pid").expect("pid").as_num() >= 0.0);
        assert!(e.get("tid").expect("tid").as_num() >= 0.0);
        assert!(!e.get("name").expect("name").as_str().is_empty());
        if ph == "X" {
            assert!(e.get("dur").expect("complete events carry dur").as_num() >= 0.0);
        } else {
            assert_eq!(e.get("s").expect("instant scope").as_str(), "t");
        }
    }
}

#[test]
fn events_are_emitted_in_completion_order() {
    // The exporter streams records as events complete: instants at
    // their own timestamp, X records when their LogDone arrives (ts
    // holds the earlier *issue* time, so X records may sort before
    // instants already written). The invariant that makes single-pass
    // streaming possible — and that Chrome/Perfetto rely on not at
    // all, since they sort on load — is that each record's *end* time
    // (ts, or ts+dur for X) never decreases.
    let (_, json) = traced_run();
    let doc = parse_json(&json);
    let ends: Vec<f64> = timed_events(&doc)
        .iter()
        .map(|e| e.get("ts").unwrap().as_num() + e.get("dur").map(Json::as_num).unwrap_or(0.0))
        .collect();
    assert!(!ends.is_empty());
    assert!(
        ends.windows(2).all(|w| w[0] <= w[1]),
        "completion times not ascending"
    );
}

#[test]
fn fields_map_from_trace_events() {
    let (trace, json) = traced_run();
    let doc = parse_json(&json);
    let timed = timed_events(&doc);

    // pid = transaction id: the set of pids equals the traced txn set.
    let mut pids: Vec<u64> = timed
        .iter()
        .map(|e| e.get("pid").unwrap().as_num() as u64)
        .collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids, trace.txns(), "pid set != traced transaction ids");

    // Each Send maps to an instant with tid = sending site and ts = at.
    for ev in &trace.events {
        if let TraceEvent::Send { at, txn, from, .. } = ev {
            assert!(
                timed.iter().any(|e| e.get("ph").unwrap().as_str() == "i"
                    && e.get("ts").unwrap().as_num() as u64 == at.0
                    && e.get("pid").unwrap().as_num() as u64 == *txn
                    && e.get("tid").unwrap().as_num() as u64 == *from as u64),
                "no instant record for send {ev:?}"
            );
        }
    }

    // Each ForceLog/LogDone pair maps to one complete event whose ts is
    // the issue time and whose duration spans to the durable time.
    let (mut forces, mut completes) = (0, 0);
    for ev in &trace.events {
        if matches!(ev, TraceEvent::ForceLog { .. }) {
            forces += 1;
        }
    }
    for e in &timed {
        if e.get("ph").unwrap().as_str() == "X" {
            completes += 1;
        }
    }
    assert_eq!(completes, forces, "every forced write becomes one X event");

    // Metadata names every transaction lane.
    let Some(Json::Arr(all)) = doc.get("traceEvents") else {
        unreachable!()
    };
    for txn in trace.txns() {
        assert!(
            all.iter()
                .any(|e| e.get("ph").map(Json::as_str) == Some("M")
                    && e.get("pid").unwrap().as_num() as u64 == txn
                    && e.get("args").and_then(|a| a.get("name")).map(Json::as_str)
                        == Some(&format!("txn {txn}"))),
            "missing process_name metadata for txn {txn}"
        );
    }
}

/// A scratch file in the target-adjacent temp dir, removed on drop so
/// failed assertions don't leak files between runs.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("distcommit-{}-{name}", std::process::id()));
        TempFile(p)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn streaming_sink_matches_buffered_export_byte_for_byte() {
    let cfg = SystemConfig::paper_baseline().with_run_length(10, 60);

    let (_, trace) = trace_run(&cfg, ProtocolSpec::TWO_PC, 0xC0FFEE, 3);
    let buffered = chrome_trace_json(&trace);

    let tmp = TempFile::new("stream-identity.json");
    let mut sink = ChromeStreamSink::create(&tmp.0).expect("create temp file");
    let obs = Observers {
        trace: Some((3, &mut sink)),
        series: None,
    };
    Simulation::run_observed(&cfg, ProtocolSpec::TWO_PC, 0xC0FFEE, obs).expect("valid config");
    sink.into_result().expect("no I/O errors");
    let streamed = std::fs::read_to_string(&tmp.0).expect("read streamed trace");

    assert_eq!(
        buffered, streamed,
        "streaming and buffered exports must be byte-identical for the same seed"
    );
}

#[test]
fn long_faulty_streaming_run_stays_bounded_and_valid() {
    // 10× the length of the buffered-trace tests above, with every
    // fault class enabled — crashes and retransmissions leave forced
    // writes in flight, which is exactly what the open-force list must
    // keep bounded.
    let cfg = SystemConfig::paper_baseline()
        .with_run_length(0, 600)
        .with_failures(
            "mc=0.02,cc=0.01,loss=0.02"
                .parse::<FailureConfig>()
                .expect("valid fault spec"),
        );

    let tmp = TempFile::new("stream-long.json");
    let mut sink = ChromeStreamSink::create(&tmp.0).expect("create temp file");
    let obs = Observers {
        trace: Some((u64::MAX, &mut sink)),
        series: None,
    };
    let report =
        Simulation::run_observed(&cfg, ProtocolSpec::THREE_PC, 7, obs).expect("valid config");
    assert!(report.committed >= 600);

    // Memory boundedness: the only state the streamer holds per event
    // is the open-force list, whose high-water mark is a small multiple
    // of the in-flight transactions (MPL × sites) — not the run length.
    let high_water = sink.max_open_forces();
    let events = sink.into_result().expect("no I/O errors");
    assert!(events > 1_000, "long run produced only {events} events");
    let in_flight = (cfg.mpl as usize) * cfg.num_sites;
    assert!(
        high_water <= 4 * in_flight,
        "open-force high water {high_water} not bounded by in-flight txns ({in_flight})"
    );

    // The streamed file is still well-formed Chrome JSON end to end.
    let streamed = std::fs::read_to_string(&tmp.0).expect("read streamed trace");
    let doc = parse_json(&streamed);
    assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), "ms");
    assert!(timed_events(&doc).len() > 1_000);
}

#[test]
fn parser_rejects_malformed_json() {
    // Sanity-check the checker itself: these must NOT parse.
    for bad in [
        "{\"a\":1,}",
        "{\"a\" 1}",
        "[1,2",
        "{\"a\":}",
        "\"unterminated",
        "{\"traceEvents\":[]} trailing",
    ] {
        let mut p = Parser::new(bad);
        let ok = p.value().is_ok() && {
            p.skip_ws();
            p.pos == p.bytes.len()
        };
        assert!(!ok, "parser accepted malformed input {bad:?}");
    }
}
