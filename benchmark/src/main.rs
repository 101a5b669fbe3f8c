//! symbench — the repository's pinned, client-path benchmark.
//!
//! ```text
//! symbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! symbench --all   [--seed N] [--seconds S]                every workload, untraced then traced, with cross-checks
//! symbench --aa    [--seed N] [--seconds S]                the whole suite twice; fails if the two disagree
//! symbench --smoke                                          2 epochs per workload, validates names against BENCHMARK.json
//! symbench --calibrate W                                    re-measure a workload's frozen load constants
//! symbench --emit-benchmark-json                            print BENCHMARK.json from the metric tables
//! ```
//!
//! See `benchmark/README.md` for the method and the glossary.

mod client;
mod clock;
mod durable;
mod inproc;
mod isolation;
mod metrics;
mod pin;
mod probes;
mod run;
mod schedule;
mod span;
mod stats;
mod suite;
mod tcp;
mod window;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Options, Report};
use workload::Workload;

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

enum Mode {
    One,
    All,
    Aa,
    Calibrate,
    EmitJson,
    SetupChild,
}

struct Cli {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    serve_bin: Option<PathBuf>,
    out_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: symbench --workload W --seed N --seconds S --trace 0|1 [--smoke]\n\
         \x20      symbench --all | --aa | --smoke [--seed N] [--seconds S]\n\
         \x20      symbench --calibrate W | --emit-benchmark-json\n\
         options: --serve-bin PATH  --out-dir DIR\n\
         workloads: agent_loop rag_churn agent_durable tcp_agent"
    );
    ExitCode::from(2)
}

fn parse_cli() -> Option<Cli> {
    let mut cli = Cli {
        mode: Mode::One,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        smoke: false,
        serve_bin: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut explicit_mode = false;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--workload" => cli.workload = Some(Workload::parse(&argv.next()?)?),
            "--seed" => cli.seed = argv.next()?.parse().ok()?,
            "--seconds" => cli.seconds = argv.next()?.parse().ok()?,
            "--trace" => {
                cli.trace = match argv.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--smoke" => cli.smoke = true,
            "--serve-bin" => cli.serve_bin = Some(PathBuf::from(argv.next()?)),
            "--out-dir" => cli.out_dir = PathBuf::from(argv.next()?),
            "--all" => (cli.mode, explicit_mode) = (Mode::All, true),
            "--aa" => (cli.mode, explicit_mode) = (Mode::Aa, true),
            "--emit-benchmark-json" => (cli.mode, explicit_mode) = (Mode::EmitJson, true),
            "--calibrate" => {
                cli.workload = Some(Workload::parse(&argv.next()?)?);
                (cli.mode, explicit_mode) = (Mode::Calibrate, true);
            }
            "--setup-child" => {
                cli.workload = Some(Workload::parse(&argv.next()?)?);
                (cli.mode, explicit_mode) = (Mode::SetupChild, true);
            }
            _ => return None,
        }
    }
    if !explicit_mode && cli.workload.is_none() {
        if !cli.smoke {
            return None;
        }
        cli.mode = Mode::All; // bare `--smoke` is the whole suite, small
    }
    if !(cli.seconds.is_finite() && (0.0..=60.0).contains(&cli.seconds)) {
        return None;
    }
    Some(cli)
}

/// `symphony-serve` next to where cargo put this binary's siblings:
/// `$CARGO_TARGET_DIR/release`, else the root workspace's `target/release`.
fn default_serve_bin() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    dir.join("release").join("symphony-serve")
}

fn print_report(workload: Workload, report: &Report) {
    for line in report.sheet.lines(workload.name()) {
        println!("{line}");
    }
    for (k, v) in &report.info {
        println!("{} {k} {v}", workload.name());
    }
    for p in &report.problems {
        eprintln!("symbench: {}: FAILED: {p}", workload.name());
    }
    for name in report.sheet.unresolved() {
        eprintln!("symbench: {}: UNRESOLVED: {name}", workload.name());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        report.sheet.to_json()
    );
}

fn main() -> ExitCode {
    let Some(cli) = parse_cli() else {
        return usage();
    };
    if matches!(cli.mode, Mode::EmitJson) {
        print!("{}", metrics::benchmark_json(DEFAULT_SECONDS));
        return ExitCode::SUCCESS;
    }
    let self_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("symbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Only a process that measures pins itself, first thing, before any
    // thread exists, so LIP-pool workers and set-up children inherit the
    // mask. The suite modes only start such processes: a pinned parent
    // would hand them a one-CPU mask, and `tcp_agent`'s client would
    // share it with the server.
    let opts = |workload: Workload| {
        let place = pin::place();
        if !place.pinned {
            eprintln!(
                "symbench: host.pinned 0 — affinity not set; wall-clock metrics are unresolved"
            );
        }
        Options {
            workload,
            seed: cli.seed,
            seconds: if cli.smoke { 0.0 } else { cli.seconds },
            trace: cli.trace,
            smoke: cli.smoke,
            place,
            serve_bin: cli.serve_bin.clone().unwrap_or_else(default_serve_bin),
            out_dir: cli.out_dir.clone(),
            self_exe: self_exe.clone(),
        }
    };
    match cli.mode {
        Mode::EmitJson => unreachable!("handled above"),
        Mode::SetupChild => {
            let w = cli.workload.expect("--setup-child takes a workload");
            match run::setup_child(w, &cli.out_dir) {
                Ok(()) => {
                    println!("accepted");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    println!("failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::One => {
            let w = cli.workload.expect("checked by parse_cli");
            match run::run(&opts(w)) {
                Ok(report) => {
                    print_report(w, &report);
                    if report.correct() && report.sheet.unresolved().is_empty() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("symbench: {}: {e}", w.name());
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Calibrate => {
            let w = cli.workload.expect("--calibrate takes a workload");
            match run::calibrate(&opts(w)) {
                Ok(lines) => {
                    for (k, v) in lines {
                        println!("{} {k} {v}", w.name());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("symbench: {}: {e}", w.name());
                    ExitCode::FAILURE
                }
            }
        }
        Mode::All | Mode::Aa => {
            let suite_opts = suite::SuiteOptions {
                self_exe,
                seed: cli.seed,
                seconds: cli.seconds,
                smoke: cli.smoke,
                serve_bin: cli.serve_bin.clone(),
                out_dir: cli.out_dir.clone(),
            };
            let mut emit = |line: &str| println!("{line}");
            let outcome = if matches!(cli.mode, Mode::Aa) {
                suite::run_aa(&suite_opts, &mut emit)
            } else {
                suite::run_all(&suite_opts, &mut emit).map(|s| s.problems)
            };
            match outcome {
                Ok(problems) if problems.is_empty() => {
                    println!("symbench: all checks passed");
                    ExitCode::SUCCESS
                }
                Ok(problems) => {
                    for p in problems {
                        eprintln!("symbench: FAILED: {p}");
                    }
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("symbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
