//! Windowed time-series telemetry: exact aggregation against the
//! report, non-perturbation of the observed run, determinism, and the
//! buffered/streaming equivalence of the renderers.

use std::io::Write;
use std::sync::{Arc, Mutex};

use distcommit::db::config::{FailureConfig, SystemConfig};
use distcommit::db::engine::{
    Observers, RunError, Series, SeriesConfig, SeriesFormat, SeriesOut, Simulation, Trace,
};
use distcommit::db::experiments::{sweep_with_series, Scale};
use distcommit::db::metrics::{ReportFormat, SimReport};
use distcommit::proto::ProtocolSpec;
use simkernel::SimDuration;

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.mpl = 4;
    cfg.run.warmup_transactions = 100;
    cfg.run.measured_transactions = 800;
    cfg
}

fn lossy_cfg() -> SystemConfig {
    let mut cfg = small_cfg();
    cfg.failures = Some(FailureConfig {
        msg_loss_prob: 0.05,
        ..FailureConfig::default()
    });
    cfg
}

fn series_cfg(window_s: u64, per_site: bool) -> SeriesConfig {
    SeriesConfig {
        window: SimDuration::from_secs(window_s),
        per_site,
    }
}

/// A run's buffered series.
fn buffered(
    cfg: &SystemConfig,
    spec: ProtocolSpec,
    seed: u64,
    series_cfg: &SeriesConfig,
) -> (SimReport, Series) {
    let mut series = Series::default();
    let obs = Observers {
        trace: None,
        series: Some((*series_cfg, SeriesOut::Buffer(&mut series))),
    };
    let report = Simulation::run_observed(cfg, spec, seed, obs).expect("valid config");
    (report, series)
}

/// A run's series streamed in `format`, as bytes.
fn streamed(
    cfg: &SystemConfig,
    spec: ProtocolSpec,
    seed: u64,
    series_cfg: &SeriesConfig,
    format: SeriesFormat,
) -> (SimReport, Vec<u8>) {
    let mut bytes = Vec::new();
    let obs = Observers {
        trace: None,
        series: Some((*series_cfg, SeriesOut::Stream(&mut bytes, format))),
    };
    let report = Simulation::run_observed(cfg, spec, seed, obs).expect("valid config");
    (report, bytes)
}

fn fingerprint(r: &SimReport) -> (u64, u64, u64, u64, String) {
    (
        r.committed,
        r.aborted_deadlock,
        r.aborted_surprise,
        r.events,
        format!(
            "{:.12}|{:.12}|{:.12}|{:.12}",
            r.throughput, r.mean_response_s, r.block_ratio, r.sim_seconds
        ),
    )
}

/// Measured windows must tile the measurement interval exactly, so
/// their counter deltas sum to the report aggregates with no slack at
/// all — the acceptance criterion of the telemetry layer.
#[test]
fn measured_windows_sum_exactly_to_report_aggregates() {
    for (cfg, spec) in [
        (small_cfg(), ProtocolSpec::TWO_PC),
        (small_cfg(), ProtocolSpec::OPT_3PC),
        (lossy_cfg(), ProtocolSpec::TWO_PC),
    ] {
        let scfg = series_cfg(2, false);
        let (report, series) = buffered(&cfg, spec, 42, &scfg);
        let measured: Vec<_> = series.windows.iter().filter(|w| w.measured).collect();
        assert!(
            measured.len() >= 2,
            "{}: expected several measured windows, got {}",
            spec.name(),
            measured.len()
        );

        macro_rules! sum {
            ($field:ident) => {
                measured.iter().map(|w| w.$field).sum::<u64>()
            };
        }
        assert_eq!(sum!(committed), report.committed, "{}", spec.name());
        assert_eq!(sum!(aborted_deadlock), report.aborted_deadlock);
        assert_eq!(sum!(aborted_surprise), report.aborted_surprise);
        assert_eq!(sum!(aborted_borrower), report.aborted_borrower);
        assert_eq!(sum!(retransmissions), report.faults.retransmissions);
        assert_eq!(sum!(messages_lost), report.faults.messages_lost);

        // Message counters reconstruct the per-commit ratios.
        let exec: u64 = sum!(exec_messages);
        let commit: u64 = sum!(commit_messages);
        let c = report.committed as f64;
        assert!((exec as f64 - report.exec_messages_per_commit * c).abs() < 1e-6 * c + 1e-6);
        assert!((commit as f64 - report.commit_messages_per_commit * c).abs() < 1e-6 * c + 1e-6);

        // Integrals telescope: the summed lock-wait and live areas
        // reproduce the report's block ratio to floating-point noise.
        let lock_wait: f64 = measured.iter().map(|w| w.lock_wait_s).sum();
        let live: f64 = measured.iter().map(|w| w.live_s).sum();
        assert!(live > 0.0);
        let ratio = lock_wait / live;
        assert!(
            (ratio - report.block_ratio).abs() < 1e-9,
            "{}: series block ratio {ratio} vs report {}",
            spec.name(),
            report.block_ratio
        );

        // The width-weighted window throughput is the report throughput.
        let width: f64 = measured.iter().map(|w| w.width_s()).sum();
        assert!((width - report.sim_seconds).abs() < 1e-9);
        let thr = report.committed as f64 / width;
        assert!((thr - report.throughput).abs() < 1e-9 * report.throughput.max(1.0));
    }
}

#[test]
fn windows_tile_without_gaps_and_timestamps_are_monotone() {
    let (_, series) = buffered(&small_cfg(), ProtocolSpec::TWO_PC, 7, &series_cfg(2, false));
    assert!(!series.windows.is_empty());
    for pair in series.windows.windows(2) {
        assert!(pair[0].start < pair[0].end);
        assert_eq!(
            pair[0].end, pair[1].start,
            "windows must tile with no gap or overlap"
        );
        assert_eq!(pair[0].index + 1, pair[1].index);
    }
    // Warm-up windows precede measured windows, never the reverse.
    let first_measured = series.windows.iter().position(|w| w.measured).unwrap();
    assert!(series.windows[..first_measured].iter().all(|w| !w.measured));
    assert!(series.windows[first_measured..].iter().all(|w| w.measured));
}

/// A window as long as the whole clock must not overflow the boundary
/// arithmetic after the warm-up reset: the run ends with one warm-up
/// window closed at the reset and one measured window closed at the end.
#[test]
fn window_spanning_the_clock_closes_at_warmup_and_end() {
    let cfg = SeriesConfig {
        window: SimDuration::from_micros(u64::MAX),
        per_site: false,
    };
    let (report, series) = buffered(&small_cfg(), ProtocolSpec::TWO_PC, 7, &cfg);
    let measured: Vec<bool> = series.windows.iter().map(|w| w.measured).collect();
    assert_eq!(measured, [false, true]);
    assert_eq!(series.windows[1].committed, report.committed);
}

/// Observing a run must not perturb it: the report from a series run
/// is identical to a plain run with the same inputs.
#[test]
fn series_recording_does_not_perturb_the_run() {
    for cfg in [small_cfg(), lossy_cfg()] {
        let plain = Simulation::run(&cfg, ProtocolSpec::THREE_PC, 11).unwrap();
        let (with_series, _) = buffered(&cfg, ProtocolSpec::THREE_PC, 11, &series_cfg(1, true));
        assert_eq!(fingerprint(&plain), fingerprint(&with_series));
    }
}

#[test]
fn per_site_commits_sum_to_window_commits() {
    let (_, series) = buffered(&small_cfg(), ProtocolSpec::TWO_PC, 5, &series_cfg(2, true));
    let mut some_site_committed = false;
    for w in &series.windows {
        assert!(!w.per_site.is_empty(), "per-site mode records every site");
        let site_sum: u64 = w.per_site.iter().map(|s| s.committed).sum();
        assert_eq!(site_sum, w.committed, "window {} site split", w.index);
        some_site_committed |= site_sum > 0;
    }
    assert!(some_site_committed);
}

#[test]
fn series_render_is_deterministic() {
    let run = || -> (Series, Series) {
        let (_, a) = buffered(&lossy_cfg(), ProtocolSpec::TWO_PC, 99, &series_cfg(2, true));
        let (_, b) = buffered(&lossy_cfg(), ProtocolSpec::TWO_PC, 99, &series_cfg(2, true));
        (a, b)
    };
    let (a, b) = run();
    assert_eq!(a.render(SeriesFormat::Csv), b.render(SeriesFormat::Csv));
    assert_eq!(a.render(SeriesFormat::Json), b.render(SeriesFormat::Json));
}

#[test]
fn streaming_output_is_byte_identical_to_buffered_render() {
    for format in [SeriesFormat::Csv, SeriesFormat::Json] {
        let scfg = series_cfg(2, true);
        let (_, series) = buffered(&lossy_cfg(), ProtocolSpec::OPT_2PC, 3, &scfg);
        let (report, bytes) = streamed(&lossy_cfg(), ProtocolSpec::OPT_2PC, 3, &scfg, format);
        assert!(report.committed > 0);
        assert_eq!(series.render(format).as_bytes(), bytes);
    }
}

/// A writer that takes the header, then fails every write; `flush`
/// succeeds, like an unbuffered `File` whose disk filled up mid-run.
#[derive(Default)]
struct FailsAfterHeader {
    writes: u32,
}

impl Write for FailsAfterHeader {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.writes == 1 {
            Ok(buf.len())
        } else {
            Err(std::io::Error::other("disk full"))
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A window write that fails mid-run must fail the run with the I/O
/// error instead of reporting success over a truncated stream, and the
/// stream goes quiet after the first failure.
#[test]
fn streaming_write_error_fails_the_run() {
    let mut cfg = small_cfg();
    cfg.run.measured_transactions = 2_000;
    for format in [SeriesFormat::Csv, SeriesFormat::Json] {
        let mut writer = FailsAfterHeader::default();
        let obs = Observers {
            trace: None,
            series: Some((series_cfg(2, false), SeriesOut::Stream(&mut writer, format))),
        };
        match Simulation::run_observed(&cfg, ProtocolSpec::TWO_PC, 5, obs) {
            Err(RunError::Io(e)) => assert_eq!(e.to_string(), "disk full"),
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert_eq!(writer.writes, 2, "header + first failed window");
    }
}

/// A zero-width window is a typed configuration error returned before
/// any event runs, whether the series is buffered or streamed (the
/// stream gets no header), and for every cell of a sweep.
#[test]
fn zero_window_is_a_config_error_before_the_run() {
    let zero = SeriesConfig {
        window: SimDuration::ZERO,
        per_site: false,
    };
    let mut series = Series::default();
    let mut bytes = Vec::new();
    for out in [
        SeriesOut::Buffer(&mut series),
        SeriesOut::Stream(&mut bytes, SeriesFormat::Csv),
    ] {
        let obs = Observers {
            trace: None,
            series: Some((zero, out)),
        };
        match Simulation::run_observed(&small_cfg(), ProtocolSpec::TWO_PC, 1, obs) {
            Err(RunError::Config(e)) => {
                assert!(
                    e.to_string().contains("series window must be positive"),
                    "{e}"
                )
            }
            other => panic!("expected a configuration error, got {other:?}"),
        }
    }
    assert!(bytes.is_empty(), "the stream must receive no bytes");
    assert!(series.windows.is_empty());
    let specs = [("2PC".to_string(), ProtocolSpec::TWO_PC, small_cfg())];
    let scale = Scale::quick().with_mpls(vec![1, 2]).with_jobs(Some(1));
    assert!(sweep_with_series(&specs, &scale, &zero).is_err());
}

/// One run observed by a trace of every transaction and a streamed
/// per-site series gives the plain run's report, the trace-only run's
/// events and the series-only run's bytes: observers neither perturb
/// the run nor each other.
#[test]
fn one_run_streams_a_trace_and_a_series_together() {
    let (cfg, spec, seed) = (lossy_cfg(), ProtocolSpec::THREE_PC, 7);
    let scfg = series_cfg(2, true);
    let mut trace = Trace::default();
    let mut bytes = Vec::new();
    let obs = Observers {
        trace: Some((u64::MAX, &mut trace)),
        series: Some((scfg, SeriesOut::Stream(&mut bytes, SeriesFormat::Csv))),
    };
    let report = Simulation::run_observed(&cfg, spec, seed, obs).unwrap();
    assert!(report.faults.messages_lost > 0);

    let plain = Simulation::run(&cfg, spec, seed).unwrap();
    assert_eq!(
        report.render(ReportFormat::Json),
        plain.render(ReportFormat::Json)
    );
    let mut trace_only = Trace::default();
    let obs = Observers {
        trace: Some((u64::MAX, &mut trace_only)),
        series: None,
    };
    Simulation::run_observed(&cfg, spec, seed, obs).unwrap();
    assert!(trace.events.len() > 1_000);
    assert_eq!(trace.events, trace_only.events);
    let (_, series_only) = streamed(&cfg, spec, seed, &scfg, SeriesFormat::Csv);
    assert_eq!(bytes, series_only);
    let (_, series) = buffered(&cfg, spec, seed, &scfg);
    assert_eq!(bytes, series.render(SeriesFormat::Csv).as_bytes());
}

/// [`Simulation::run_with_sink`] is a wrapper over
/// [`Simulation::run_observed`]: same report, same events.
#[test]
fn run_with_sink_equals_run_observed() {
    let (cfg, spec, seed) = (lossy_cfg(), ProtocolSpec::TWO_PC, 9);
    let (wrapped, wrapped_trace) =
        Simulation::run_with_sink(&cfg, spec, seed, 50, Trace::default()).unwrap();
    let mut trace = Trace::default();
    let obs = Observers {
        trace: Some((50, &mut trace)),
        series: None,
    };
    let report = Simulation::run_observed(&cfg, spec, seed, obs).unwrap();
    assert_eq!(
        wrapped.render(ReportFormat::Json),
        report.render(ReportFormat::Json)
    );
    assert!(!trace.events.is_empty());
    assert_eq!(wrapped_trace.events, trace.events);
}

/// A `Write` handle whose bytes stay reachable after
/// [`Simulation::run_with_series_stream`] takes ownership of the boxed
/// writer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// [`Simulation::run_with_series_stream`] is a wrapper over
/// [`Simulation::run_observed`]: same report, same bytes.
#[test]
fn run_with_series_stream_equals_run_observed() {
    let (cfg, spec, seed) = (lossy_cfg(), ProtocolSpec::OPT_2PC, 3);
    let scfg = series_cfg(2, true);
    let buf = SharedBuf::default();
    let wrapped = Simulation::run_with_series_stream(
        &cfg,
        spec,
        seed,
        &scfg,
        Box::new(buf.clone()),
        SeriesFormat::Json,
    )
    .unwrap();
    let (report, bytes) = streamed(&cfg, spec, seed, &scfg, SeriesFormat::Json);
    assert_eq!(
        wrapped.render(ReportFormat::Json),
        report.render(ReportFormat::Json)
    );
    assert_eq!(*buf.0.lock().unwrap(), bytes);
}

#[test]
fn json_series_is_structurally_sound() {
    let (_, series) = buffered(&lossy_cfg(), ProtocolSpec::TWO_PC, 21, &series_cfg(2, true));
    let json = series.render(SeriesFormat::Json);
    let balance = json.chars().fold(0i64, |acc, c| match c {
        '{' | '[' => acc + 1,
        '}' | ']' => acc - 1,
        _ => acc,
    });
    assert_eq!(balance, 0, "unbalanced braces/brackets");
    assert!(json.contains("\"windows\":["));
    assert!(json.contains("\"sites\":["));
    assert!(!json.contains("inf") && !json.contains("NaN"));

    // The protocol name is a JSON string, so it is escaped.
    let mut series = series;
    series.meta.protocol = "a\"b\\c".into();
    let json = series.render(SeriesFormat::Json);
    assert!(json.starts_with("{\"protocol\":\"a\\\"b\\\\c\","), "{json}");
}

#[test]
fn csv_rows_all_have_the_header_field_count() {
    let (_, series) = buffered(&small_cfg(), ProtocolSpec::TWO_PC, 8, &series_cfg(2, true));
    let csv = series.render(SeriesFormat::Csv);
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    let fields = header.split(',').count();
    for line in lines {
        assert_eq!(
            line.split(',').count(),
            fields,
            "row field count diverges from header: {line:?}"
        );
    }
}

/// Steady-state detection must flag a deliberately too-short run: with
/// fewer throughput samples than the MSER minimum, `converged` is
/// structurally false regardless of seed.
#[test]
fn too_short_run_is_flagged_not_converged() {
    let mut cfg = small_cfg();
    cfg.run.warmup_transactions = 0;
    cfg.run.measured_transactions = 50;
    // 5 batches of 10 commits → 5 throughput samples, below the MSER
    // minimum of 8, so the verdict is structural (seed-independent).
    cfg.run.batches = 5;
    let report = Simulation::run(&cfg, ProtocolSpec::TWO_PC, 1).unwrap();
    assert!(!report.convergence.converged);
    assert!(report.convergence.steady_from_s.is_nan());
    assert!(report.summary().contains("NOT CONVERGED"));
}

/// A default-length run yields enough batches for the detector to
/// find a steady state.
#[test]
fn default_length_run_converges() {
    let report = Simulation::run(&small_cfg(), ProtocolSpec::TWO_PC, 1).unwrap();
    assert!(
        report.convergence.samples >= 8,
        "expected enough samples, got {}",
        report.convergence.samples
    );
    assert!(report.convergence.converged);
    assert!(report.convergence.steady_from_s.is_finite());
}
