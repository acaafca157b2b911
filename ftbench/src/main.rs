//! `ftbench`: see `bench/README.md`. `bench/run.sh` builds and runs it.

use ftbench::cli::{self, Mode};

fn main() {
    let mode = match cli::parse(std::env::args().skip(1)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ftbench: {e}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let code = match mode {
        Mode::Help => {
            println!("{}", cli::USAGE);
            0
        }
        Mode::One(args) => ftbench::child::run(&args),
        Mode::Full(args) => ftbench::record::run_full(&args),
        Mode::SelfCheck(args) => ftbench::record::run_selfcheck(&args),
    };
    std::process::exit(code);
}
