//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits nonzero on a usage error, a set-up error, or any
//! failed check.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::bench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::bench::USAGE);
            return ExitCode::from(2);
        }
    };
    match perfbench::bench::run(&args) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                for f in &report.failures {
                    eprintln!("perfbench: FAILED: {f}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
