//! `symphony-exp <name>|all [--smoke] [--trace <path>] [--metrics]`: the
//! one experiment driver. With no arguments it prints the usage text and
//! the registry.

use std::process::ExitCode;

use symphony_bench::exp;
use symphony_bench::ExpArgs;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{}", exp::usage());
        return ExitCode::SUCCESS;
    }
    match ExpArgs::parse(&argv) {
        Ok((targets, args)) => {
            for e in targets {
                exp::run(e, &args);
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("symphony-exp: {msg}\n\n{}", exp::usage());
            ExitCode::from(2)
        }
    }
}
