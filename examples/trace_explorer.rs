//! Trace explorer: watch one transaction move through a commit
//! protocol, step by step — every message, every forced log write,
//! every state change, with simulated timestamps.
//!
//! ```sh
//! cargo run --release --example trace_explorer            # 2PC
//! cargo run --release --example trace_explorer -- OPT-3PC
//! cargo run --release --example trace_explorer -- L2PC
//! ```

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{Simulation, Trace};
use distcommit::proto::ProtocolSpec;

fn main() {
    let spec: ProtocolSpec = std::env::args()
        .nth(1)
        .as_deref()
        .unwrap_or("2PC")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });

    // A conflict-free single-transaction-per-site setup so the timeline
    // shows pure protocol behaviour.
    let cfg = SystemConfig::paper_baseline()
        .with_db_size(80_000)
        .with_mpl(1)
        .with_run_length(0, 30);

    println!("protocol: {spec}   (2 remote cohorts + 1 local, conflict-free)\n");
    let (report, trace) =
        Simulation::run_with_sink(&cfg, spec, 7, 1, Trace::default()).expect("valid configuration");
    print!("{}", trace.render_txn(1));

    println!();
    println!(
        "per-commit accounting over {} committed txns: {:.2} exec + {:.2} commit messages, \
         {:.2} forced writes",
        report.committed,
        report.exec_messages_per_commit,
        report.commit_messages_per_commit,
        report.forced_writes_per_commit
    );
    let o = spec.committed_overheads(cfg.dist_degree);
    println!(
        "analytic model (Tables 3/4 formulas):              {} exec + {} commit messages, {} forced writes",
        o.exec_messages, o.commit_messages, o.forced_writes
    );

    // Under contention, the same protocol grows OPT shelf/lending
    // events — show a second transaction from a contended run.
    if spec.opt {
        let hot = SystemConfig::pure_data_contention()
            .with_mpl(6)
            .with_run_length(0, 300);
        let (_, tr) = Simulation::run_with_sink(&hot, spec, 11, 100_000, Trace::default())
            .expect("valid config");
        if let Some(txn) = tr.txns().into_iter().find(|&t| {
            tr.of_txn(t)
                .iter()
                .any(|e| matches!(e, distcommit::db::engine::TraceEvent::Shelved { .. }))
        }) {
            println!("\n--- a borrowing transaction under contention (pure DC, MPL 6) ---\n");
            print!("{}", tr.render_txn(txn));
        }
    }
}
