//! `lip_run` — execute a LipScript program file on a local Symphony kernel.
//!
//! This is the paper's serving loop in miniature: the "client" hands over a
//! program as data, the server runs it sandboxed and streams its output.
//!
//! ```text
//! lip_run <program.lip> [args-string] [--fuel N] [--trace] [--no-verify]
//! ```
//!
//! Programs are parsed, lowered and verified before execution — the same
//! admission check the serving door applies, on the image that then runs —
//! and diagnostics print in compiler style (`file:line:col: message`).
//! `--no-verify` skips the verifier and lets the interpreter fault at
//! runtime instead.
//!
//! Exit code 0 on clean completion, 1 on program failure, 2 on usage error.

use symphony::{Kernel, KernelConfig, Mode, SimDuration, ToolOutcome, ToolSpec};
use symphony_lipscript::parse::parse;
use symphony_lipscript::verify::verify_image;
use symphony_lipscript::{Image, InterpLimits, LipBody};

fn usage() -> ! {
    eprintln!("usage: lip_run <program.lip> [args-string] [--fuel N] [--trace] [--no-verify]");
    std::process::exit(2);
}

fn main() {
    let mut path = None;
    let mut program_args = String::new();
    let mut fuel = 10_000_000u64;
    let mut trace = false;
    let mut no_verify = false;
    let mut positional = 0;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--fuel" => {
                fuel = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--trace" => trace = true,
            "--no-verify" => no_verify = true,
            "--help" | "-h" => usage(),
            _ => {
                match positional {
                    0 => path = Some(a),
                    1 => program_args = a,
                    _ => usage(),
                }
                positional += 1;
            }
        }
    }
    let Some(path) = path else { usage() };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lip_run: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    // Admission check before spending any kernel time: parse errors and
    // verifier errors print compiler-style and exit 1; warnings print but
    // don't block.
    let image = match parse(&src) {
        Err(e) => {
            eprintln!("{}", e.render(&path));
            std::process::exit(1);
        }
        Ok(prog) => {
            let image = Image::shared(&prog);
            if !no_verify {
                let report = verify_image(&image);
                for d in &report.diags {
                    eprintln!(
                        "{path}:{}:{}: {}[{}]: {}",
                        d.span.line,
                        d.span.col,
                        d.severity,
                        d.code.id(),
                        d.message
                    );
                }
                if !report.is_admissible() {
                    eprintln!("-- rejected by verifier ({} error(s))", report.error_count());
                    std::process::exit(1);
                }
            }
            image
        }
    };

    let mut cfg = KernelConfig::for_tests();
    cfg.telemetry = trace;
    let mut kernel = Kernel::new(cfg);

    // A small standard environment so sample programs have something to
    // talk to: a shared system prompt and two demo tools.
    let sys = kernel
        .tokenizer()
        .encode("you are a helpful assistant running as a user program");
    kernel
        .preload_kv("sys_msg.kv", &sys, Mode::SHARED_READ, true)
        .expect("preload system prompt");
    kernel.register_tool(
        "echo",
        ToolSpec::fixed(SimDuration::from_millis(5), |args| {
            ToolOutcome::Ok(args.to_string())
        }),
    );
    kernel.register_tool(
        "time",
        ToolSpec::fixed(SimDuration::from_millis(1), |_| {
            ToolOutcome::Ok("simulated-epoch".to_string())
        }),
    );

    let limits = InterpLimits {
        fuel,
        ..Default::default()
    };
    // As the server does: the program enters the kernel as a value it
    // steps, not as a closure on a thread.
    let body = Box::new(LipBody::from_image(image, limits));
    let pid = kernel.admit_inline("lip_run", &program_args, None, body);
    kernel.run();

    let rec = kernel.record(pid).expect("record");
    print!("{}", rec.output);
    if !rec.output.ends_with('\n') && !rec.output.is_empty() {
        println!();
    }
    eprintln!(
        "-- {} in {} | {} syscalls, {} pred tokens, {} emitted",
        if rec.status.is_ok() { "ok" } else { "failed" },
        rec.latency().map(|l| l.to_string()).unwrap_or_default(),
        rec.usage.syscalls,
        rec.usage.pred_tokens,
        rec.usage.emitted_tokens,
    );
    for e in kernel.telemetry_events() {
        eprintln!("[{}] {:?}", e.at, e.kind);
    }
    if !rec.status.is_ok() {
        eprintln!("-- status: {:?}", rec.status);
        std::process::exit(1);
    }
}
