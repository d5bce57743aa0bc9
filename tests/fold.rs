//! The flamegraph fold (`distcommit fold`): collapsed-stack output
//! must be deterministic — byte-identical across repeated runs and
//! across worker-thread counts — and must surface the protocol
//! differences the paper talks about (3PC's extra round and forced
//! write show up as vote-phase frames 2PC does not have).

use distcommit::db::config::SystemConfig;
use distcommit::db::engine::{FoldSink, Observers, Simulation};
use distcommit::db::runner::run_ordered;
use distcommit::proto::ProtocolSpec;

fn fold_run(protocol: ProtocolSpec, seed: u64) -> String {
    let cfg = SystemConfig::paper_baseline().with_run_length(10, 80);
    let mut fold = FoldSink::new(protocol.name());
    let obs = Observers {
        trace: Some((u64::MAX, &mut fold)),
        series: None,
    };
    Simulation::run_observed(&cfg, protocol, seed, obs).expect("valid config");
    fold.render()
}

#[test]
fn fold_output_is_byte_identical_across_worker_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let serial = run_ordered(&seeds, 1, |&s| fold_run(ProtocolSpec::TWO_PC, s));
    let parallel = run_ordered(&seeds, 4, |&s| fold_run(ProtocolSpec::TWO_PC, s));
    assert_eq!(serial, parallel);
    // And repeated runs of the same seed agree with themselves.
    assert_eq!(serial[0], fold_run(ProtocolSpec::TWO_PC, 0));
}

#[test]
fn fold_lines_are_parseable_collapsed_stacks() {
    let rendered = fold_run(ProtocolSpec::TWO_PC, 42);
    assert!(!rendered.is_empty());
    let lines: Vec<&str> = rendered.lines().collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted, "stacks must render sorted");
    for line in &lines {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` shape");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames[0], "2PC", "root frame is the protocol");
        assert!(
            matches!(frames[1], "exec" | "vote" | "ack"),
            "phase frame, got {}",
            frames[1]
        );
        assert!(weight.parse::<u64>().unwrap() > 0);
    }
}

#[test]
fn three_pc_fold_has_precommit_frames_two_pc_lacks() {
    let two = fold_run(ProtocolSpec::TWO_PC, 42);
    let three = fold_run(ProtocolSpec::THREE_PC, 42);
    // 3PC's extra phase: the precommit forced writes and PRECOMMIT
    // acks appear as distinct vote-phase frames. (The PRECOMMIT sends
    // themselves are back-to-back instants, so their intervals are
    // zero-width and fold away.)
    assert!(three.contains("force CohortPrecommit"), "{three}");
    assert!(three.contains("force MasterPrecommit"), "{three}");
    assert!(three.contains("send PreAck"), "{three}");
    assert!(!two.contains("Precommit"), "{two}");
    assert!(!two.contains("PreAck"), "{two}");
    // Both protocols spend time in all three phases.
    for phase in [";exec;", ";vote;", ";ack;"] {
        assert!(two.contains(phase), "2PC missing {phase}");
        assert!(three.contains(phase), "3PC missing {phase}");
    }
}
