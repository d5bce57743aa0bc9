//! Allocation budget of the steady-state transaction lifecycle.
//!
//! The model is a closed system: MPL transactions per site are always
//! in flight, and each one's template, cohort list and lock-owner
//! records are recycled when it finishes, as are the lock table's page
//! records and the engine's grant and borrower buffers. So once the
//! buffers have grown to the workload's largest transaction, running
//! longer should cost (almost) no heap traffic. A counting global
//! allocator measures allocations plus reallocations per extra commit
//! as the difference between a 2 000- and a 4 000-commit run of the
//! paper baseline (MPL 5, warm-up 400, seed 42); fixed set-up and
//! reporting costs cancel. A ceiling on a whole 2 000-commit run
//! catches per-run costs too, such as a lock table that allocated for
//! every page it ever locked.
//!
//! The counter is thread-local, so tests running in parallel on other
//! threads do not disturb it. Debug builds add their own allocating
//! checks (mostly the deadlock cross-check against `find_cycle`: 10 to
//! 14 more allocations per commit), so the budget holds for optimized
//! builds only: `cargo test --release --test alloc_budget`.

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::Simulation;
use distcommit::proto::ProtocolSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations plus reallocations made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also serves thread teardown.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are passed through unchanged;
// the counter is a const-initialized thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations plus reallocations of one plain run of `commits`
/// measured commits.
fn calls(spec: ProtocolSpec, commits: u64) -> u64 {
    let mut cfg = SystemConfig::paper_baseline();
    cfg.mpl = 5;
    cfg.run.warmup_transactions = 400;
    cfg.run.measured_transactions = commits;
    let before = CALLS.with(Cell::get);
    let report = Simulation::run(&cfg, spec, 42).expect("the paper baseline is valid");
    let after = CALLS.with(Cell::get);
    assert_eq!(report.committed, commits, "{}", spec.name());
    after - before
}

/// Allocations plus reallocations per commit beyond the first 2 000.
fn per_extra_commit(spec: ProtocolSpec) -> f64 {
    let short = calls(spec, 2_000);
    let long = calls(spec, 4_000);
    long.saturating_sub(short) as f64 / 2_000.0
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug-only checks allocate; run with --release"
)]
fn a_whole_run_stays_within_its_allocation_ceiling() {
    // About 3 300: set-up, reporting, and buffers growing to their
    // largest. Each page's lock lists, made on its first lock, added
    // about 10 000 more.
    let total = calls(ProtocolSpec::TWO_PC, 2_000);
    println!(" 2PC: {total} allocations in a 2 000-commit run");
    assert!(total <= 4_000, "{total} allocations > 4 000");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug-only checks allocate; run with --release"
)]
fn steady_state_commits_stay_within_the_allocation_budget() {
    // What is left per commit (0.02 to 0.07) is buffers growing to a
    // new largest size: more pages locked at once, a longer queue, more
    // events pending. A longer run meets those ever more rarely: 2PC
    // pays 0.067 per commit from 2 000 to 4 000 commits, and 0.008
    // from 8 000 to 16 000.
    let budgets = [
        (ProtocolSpec::CENT, 0.2),
        (ProtocolSpec::DPCC, 0.2),
        (ProtocolSpec::TWO_PC, 0.2),
        (ProtocolSpec::PA, 0.2),
        (ProtocolSpec::PC, 0.2),
        (ProtocolSpec::THREE_PC, 0.2),
        (ProtocolSpec::OPT_2PC, 0.2),
    ];
    let mut over = Vec::new();
    for (spec, budget) in budgets {
        let per = per_extra_commit(spec);
        println!("{:>4}: {per:.2} allocations per extra commit", spec.name());
        if per > budget {
            over.push(format!("{} {per:.2} > {budget}", spec.name()));
        }
    }
    assert!(over.is_empty(), "over budget: {}", over.join(", "));
}
