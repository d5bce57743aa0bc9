//! Deterministic parallel execution of independent simulation jobs.
//!
//! Every cell of an experiment grid — one (protocol, MPL, replication)
//! triple — is an independent [`crate::engine::Simulation::run`] with
//! its own derived seed, so the grid is embarrassingly parallel. This
//! module fans a job list out over `std::thread::scope` workers (the
//! repository is std-only by design) and reassembles the results **in
//! input order**, so the output of a sweep is byte-identical for any
//! worker count: parallelism changes wall-clock time, never results.
//!
//! The worker count is an explicit request (the `--jobs` CLI flag) or
//! else [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted by [`progress_enabled`]: `0` (or
/// empty) forces progress lines off, any other value forces them on.
pub const PROGRESS_ENV: &str = "DISTCOMMIT_PROGRESS";

/// Whether grid progress lines should be emitted on stderr. Defaults
/// to "stderr is a terminal", so redirected/piped and CI runs stay
/// quiet; `DISTCOMMIT_PROGRESS` overrides in either direction.
///
/// Progress goes to *stderr* only — stdout carries the sweep results
/// and must stay byte-identical for any worker count.
pub fn progress_enabled() -> bool {
    use std::io::IsTerminal as _;
    match std::env::var(PROGRESS_ENV) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => std::io::stderr().is_terminal(),
    }
}

/// A thread-safe progress reporter for a grid of cells: each completed
/// cell logs `done/total`, the aggregate cell rate, and the cell's own
/// wall time to stderr (when [`progress_enabled`]).
pub struct Progress {
    enabled: bool,
    label: String,
    total: usize,
    done: AtomicUsize,
    start: std::time::Instant,
}

impl Progress {
    /// A reporter for `total` cells, labelled (e.g. `"sweep"`).
    pub fn new(label: impl Into<String>, total: usize) -> Self {
        Progress {
            enabled: progress_enabled(),
            label: label.into(),
            total,
            done: AtomicUsize::new(0),
            start: std::time::Instant::now(),
        }
    }

    /// Record one finished cell; `desc` identifies it (protocol, MPL,
    /// seed) and `cell_secs` is its individual wall time.
    pub fn cell_done(&self, desc: &str, cell_secs: f64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        eprintln!(
            "{}",
            Self::line(&self.label, done, self.total, elapsed, desc, cell_secs)
        );
    }

    /// Render one progress line (pure; unit-tested separately from the
    /// stderr side effect).
    fn line(
        label: &str,
        done: usize,
        total: usize,
        elapsed_secs: f64,
        desc: &str,
        cell_secs: f64,
    ) -> String {
        let rate = if elapsed_secs > 0.0 {
            done as f64 / elapsed_secs
        } else {
            0.0
        };
        format!("[{label}] {done}/{total} cells, {rate:.2} cells/s — {desc} in {cell_secs:.2}s")
    }
}

/// The worker count used when the caller does not specify one: the
/// machine's available parallelism, else 1.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve an optional explicit request against [`default_jobs`].
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => default_jobs(),
    }
}

/// Map `f` over `inputs` on up to `jobs` worker threads, returning the
/// outputs **in input order** regardless of completion order.
///
/// Work is distributed dynamically (an atomic cursor), so stragglers —
/// e.g. high-MPL cells that simulate more events — do not serialize the
/// grid the way fixed chunking would. With `jobs <= 1` (or a single
/// input) this degenerates to a plain sequential map on the calling
/// thread, with no thread machinery at all.
pub fn run_ordered<I, O, F>(inputs: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return inputs.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<O>>> = Vec::with_capacity(n);
    slots.resize_with(n, || Mutex::new(None));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(&inputs[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every input index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn progress_line_reports_count_rate_and_cell_time() {
        let line = Progress::line("sweep", 3, 40, 2.0, "2PC mpl 4 seed 42", 0.8125);
        assert_eq!(
            line,
            "[sweep] 3/40 cells, 1.50 cells/s — 2PC mpl 4 seed 42 in 0.81s"
        );
        // Zero elapsed time must not divide by zero.
        let line = Progress::line("x", 1, 1, 0.0, "d", 0.0);
        assert!(line.contains("0.00 cells/s"));
    }

    #[test]
    fn resolve_jobs_clamps_explicit_zero() {
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert_eq!(resolve_jobs(Some(7)), 7);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn ordered_output_for_any_worker_count() {
        let inputs: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = inputs.iter().map(|x| x * x + 1).collect();
        for jobs in [1, 2, 3, 4, 8, 200] {
            let got = run_ordered(&inputs, jobs, |&x| x * x + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn uneven_work_still_reassembles_in_order() {
        // Make late indices cheap and early ones expensive so threads
        // finish far out of submission order.
        let inputs: Vec<usize> = (0..32).collect();
        let got = run_ordered(&inputs, 4, |&i| {
            let spins = (32 - i) * 2_000;
            let mut acc = i as u64;
            for k in 0..spins as u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i
        });
        assert_eq!(got, inputs);
    }

    #[test]
    fn every_input_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let inputs: Vec<usize> = (0..50).collect();
        run_ordered(&inputs, 6, |&i| counters[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "input {i}");
        }
    }

    #[test]
    fn sequential_path_used_for_single_job() {
        // With jobs=1 the closure runs on the calling thread.
        let caller = std::thread::current().id();
        let ids = run_ordered(&[1, 2, 3], 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn errors_propagate_as_values() {
        let inputs = [1i32, -2, 3];
        let got: Result<Vec<i32>, String> = run_ordered(&inputs, 2, |&x| {
            if x < 0 {
                Err(format!("negative: {x}"))
            } else {
                Ok(x)
            }
        })
        .into_iter()
        .collect();
        assert_eq!(got, Err("negative: -2".to_string()));
    }
}
