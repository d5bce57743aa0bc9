//! Tests of the benchmark's own code: metric names, the output-digest
//! check, agreement with BENCHMARK.json, and a full pass of every
//! workload at a second seed.

use distdb::config::SystemConfig;
use distdb::engine::Simulation;
use distdb::metrics::ReportFormat;
use distdb::protocol::ProtocolSpec;
use perfbench::bench::{self, check_digest, Args, END_TO_END, PER_LAYER};
use perfbench::digest;
use perfbench::workloads::{Outcome, Workload};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn every_metric_name_matches_the_allowed_pattern() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "metric name {name:?}");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "workload name {:?}", w.name());
    }
    assert!(!valid_name("engine.ns per event"));
    assert!(!valid_name("ns/event"));
}

/// The `"name"` values inside the JSON array that follows `key`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names_in(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}

#[test]
fn flipping_one_output_byte_trips_the_digest_check() {
    let cfg = SystemConfig::paper_baseline().with_run_length(20, 200);
    let report = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 42).unwrap();
    let rendered = report.render(ReportFormat::Json).into_bytes();
    let good = digest::of(&rendered);
    let outcome = |d: u64| Outcome {
        runs: 1,
        digest: d,
        ..Outcome::default()
    };

    let mut same = outcome(good);
    check_digest(&mut same, good, Some(good), "unchanged");
    assert_eq!(same.failed, 0);

    for at in [0, rendered.len() / 2, rendered.len() - 1] {
        let mut flipped = rendered.clone();
        flipped[at] ^= 0x01;
        let mut out = outcome(digest::of(&flipped));
        check_digest(&mut out, good, None, "flipped");
        assert_eq!(out.failed, 1, "flip at byte {at} went unnoticed");
        // Against a matching first execution the recorded digest still
        // catches it.
        let bad = digest::of(&flipped);
        let mut out = outcome(bad);
        check_digest(&mut out, bad, Some(good), "flipped");
        assert_eq!(
            out.failed, 1,
            "flip at byte {at} passed the recorded digest"
        );
    }
}

#[test]
fn every_workload_passes_at_a_second_seed() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload,
                seed: 43,
                seconds: 0.01,
                trace,
            };
            let r = bench::run(&args).expect("set-up succeeds");
            assert!(
                r.correct && r.failed == 0 && r.attempted > 0,
                "{} trace {trace}: {} of {} failed: {:?}",
                workload.name(),
                r.failed,
                r.attempted,
                r.failures
            );
            let catalogue = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let emitted: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = catalogue.iter().map(|m| m.0).collect();
            assert_eq!(emitted, expected, "{} trace {trace}", workload.name());
            assert!(r.metrics.iter().all(|m| m.2.is_finite()));
            let json = r.json();
            assert!(json.starts_with("{\"correct\":true,"), "{json}");
        }
    }
}
