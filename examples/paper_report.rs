//! The whole reproduction in one command: runs a compact version of
//! every experiment in the paper's evaluation section and prints a
//! pass/fail report against the paper's qualitative claims.
//!
//! ```sh
//! cargo run --release --example paper_report
//! ```
//!
//! (`distcommit experiment <id>` and `distcommit tables` regenerate the
//! full tables and figures; this example is the five-minute "does the
//! reproduction hold?" check.)

use distcommit::db::experiments::{preset, Experiment, Scale};

struct Claim {
    text: &'static str,
    holds: bool,
    evidence: String,
}

fn main() {
    // MPL 4 *and* 5 matter: the classical protocols peak at 4, OPT at 5
    // (the paper's own observation in §5.3).
    let scale = Scale {
        warmup: 200,
        measured: 2_500,
        mpls: vec![1, 2, 4, 5, 6, 8, 10],
        seed: 42,
        replications: 1,
        jobs: None,
    };
    println!("running compact versions of Experiments 1, 2, 5 and 6 ...\n");

    // The `plan`-th experiment of preset `id`.
    let run = |id: &str, plan: usize| {
        let preset = preset(id).expect("a preset id");
        preset.plans[plan].run(&scale).expect("valid config")
    };
    let e1 = run("fig1", 0);
    let e2 = run("fig2", 0);
    let (e4_rc, e4_dc) = (run("fig4", 0), run("fig4", 1));
    let e5_rc = run("fig5", 0);

    let peak = |e: &Experiment, label: &str| {
        e.series(label)
            .map(|s| s.peak_throughput())
            .unwrap_or(f64::NAN)
    };

    let mut claims = Vec::new();

    // §5.2: commit processing costs more than data distribution.
    let (cent, dpcc, two_pc) = (peak(&e1, "CENT"), peak(&e1, "DPCC"), peak(&e1, "2PC"));
    claims.push(Claim {
        text: "Expt 1: distributed commit costs more than distributed data (DPCC−2PC > CENT−DPCC)",
        holds: (dpcc - two_pc) > (cent - dpcc),
        evidence: format!("CENT {cent:.1}, DPCC {dpcc:.1}, 2PC {two_pc:.1} txn/s at peak"),
    });

    // §5.2: 3PC trails 2PC; OPT leads the classical protocols.
    let (three_pc, opt) = (peak(&e1, "3PC"), peak(&e1, "OPT"));
    claims.push(Claim {
        text: "Expt 1: OPT > 2PC > 3PC at peak",
        holds: opt > two_pc && two_pc > three_pc,
        evidence: format!("OPT {opt:.1}, 2PC {two_pc:.1}, 3PC {three_pc:.1}"),
    });

    // §5.3: the gaps widen under pure DC and OPT approaches DPCC.
    let (dpcc2, two2, opt2) = (peak(&e2, "DPCC"), peak(&e2, "2PC"), peak(&e2, "OPT"));
    claims.push(Claim {
        text: "Expt 2 (pure DC): OPT recovers most of the DPCC−2PC gap",
        holds: (opt2 - two2) > 0.5 * (dpcc2 - two2),
        evidence: format!("DPCC {dpcc2:.1}, OPT {opt2:.1}, 2PC {two2:.1}"),
    });

    // §5.6: the win-win — OPT-3PC ≥ 2PC under DC.
    let (wb_2pc, wb_opt3) = (peak(&e4_dc, "2PC"), peak(&e4_dc, "OPT-3PC"));
    claims.push(Claim {
        text: "Expt 5 (pure DC): non-blocking OPT-3PC beats blocking 2PC at peak",
        holds: wb_opt3 > wb_2pc,
        evidence: format!("OPT-3PC {wb_opt3:.1} vs 2PC {wb_2pc:.1}"),
    });
    let (rc_3pc, rc_opt3) = (peak(&e4_rc, "3PC"), peak(&e4_rc, "OPT-3PC"));
    claims.push(Claim {
        text: "Expt 5 (RC+DC): OPT lifts 3PC toward the blocking protocols",
        holds: rc_opt3 > rc_3pc * 1.08,
        evidence: format!("OPT-3PC {rc_opt3:.1} vs 3PC {rc_3pc:.1}"),
    });

    // §5.7: OPT robust through ~15% aborts, behind at ~27%.
    let (t15, o15) = (peak(&e5_rc, "2PC abort=15%"), peak(&e5_rc, "OPT abort=15%"));
    let (t27, o27) = (peak(&e5_rc, "2PC abort=27%"), peak(&e5_rc, "OPT abort=27%"));
    claims.push(Claim {
        text: "Expt 6: OPT within ~10% of 2PC at the 15% abort level",
        holds: o15 > t15 * 0.9,
        evidence: format!("OPT {o15:.1} vs 2PC {t15:.1}"),
    });
    claims.push(Claim {
        text: "Expt 6: OPT behind 2PC at the 27% abort level",
        holds: o27 < t27,
        evidence: format!("OPT {o27:.1} vs 2PC {t27:.1}"),
    });

    let mut ok = 0;
    for c in &claims {
        println!("[{}] {}", if c.holds { "PASS" } else { "FAIL" }, c.text);
        println!("        {}", c.evidence);
        if c.holds {
            ok += 1;
        }
    }
    println!(
        "\n{ok}/{} of the paper's headline claims hold at this scale.",
        claims.len()
    );
    println!("(full-length runs: distcommit experiment <id> --full; details in EXPERIMENTS.md)");
    if ok < claims.len() {
        std::process::exit(1);
    }
}
