//! The `distcommit` command-line tool — see `distcommit help`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match distcommit::cli::parse(&args) {
        Ok(cmd) => distcommit::cli::execute(cmd, &mut std::io::BufWriter::new(std::io::stdout())),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", *distcommit::cli::USAGE);
            2
        }
    };
    std::process::exit(code);
}
