//! `lip_run` — run one LipScript program file through the serving door.
//!
//! ```text
//! lip_run <program.lip> [args-string] [--fuel N] [--trace] [--no-verify]
//! ```
//!
//! `lip_run` boots the kernel `symphony-serve` boots ([`serving_config`],
//! [`standard_kernel`]) behind a [`ServerCore`], and sends it one HELLO and
//! one SUBMIT over an in-memory connection: the file path is the program's
//! name, `--fuel` its SUBMIT fuel (0, as on the wire, is the door's
//! default). The door parses, verifies and admits it as it would a program
//! off a socket. The STREAM text goes to stdout; to stderr go the door's
//! ERROR detail (a parse or verifier finding, `file:line:col: message`)
//! and `-- rejected: <why>`, or a failed DONE's status and the
//! `-- ok|failed in <latency> | …` summary. `lip_vet` lists every
//! diagnostic and warning; `--no-verify` turns the door's verifier off, so
//! the interpreter faults at runtime instead. `--trace` prints the run's
//! telemetry events, the door's with the kernel's, one
//! `[<virtual time>] <event>` line each.
//!
//! Exit code 0 on clean completion, 1 on rejection or program failure, 2 on
//! usage error.

use std::io::Write;
use std::ops::ControlFlow;

use symphony::SimTime;
use symphony_rpc::{ClientMsg, FrameReader, ServerMsg, SessionStatus, WIRE_VERSION};
use symphony_serve::replay::standard_kernel;
use symphony_serve::{serving_config, ServeConfig, ServerCore, SLICE};

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
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lip_run: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    let mut wire = Vec::new();
    ClientMsg::Hello {
        version: WIRE_VERSION,
        tenant: 1,
    }
    .encode(&mut wire);
    ClientMsg::Submit {
        session: 1,
        not_before_ns: 0,
        fuel,
        name: path,
        args: program_args,
        source,
    }
    .encode(&mut wire);
    // The door's size caps guard a server against its clients; here the
    // one client is the operator.
    let scfg = ServeConfig {
        max_source_bytes: usize::MAX,
        max_frame: u32::MAX,
        verify: !no_verify,
        ..ServeConfig::default()
    };
    let mut cfg = serving_config();
    cfg.telemetry = trace;
    let mut core = ServerCore::new(standard_kernel(cfg), scfg);
    let submitted = core.kernel().now();
    let conn = core.open_conn();
    core.feed(conn, &wire);

    // Take the output a slice at a time, as a socket would, so a program
    // that streams more than the door's output cap is not shed as a slow
    // client.
    let mut reader = FrameReader::with_max_frame(u32::MAX);
    let mut stdout = std::io::stdout().lock();
    let mut ends_line = true;
    let mut ok = false;
    loop {
        let idle = core.pump_for(SLICE);
        let out = core.take_output(conn);
        let _ = reader.read(&out, |tag, payload| {
            match ServerMsg::decode(tag, payload) {
                Ok(ServerMsg::Stream { text, .. }) if !text.is_empty() => {
                    let _ = stdout.write_all(text.as_bytes());
                    ends_line = text.ends_with('\n');
                }
                Ok(ServerMsg::Error { code, detail, .. }) => {
                    eprintln!("{detail}\n-- rejected: {code}");
                }
                Ok(ServerMsg::Done {
                    at_ns,
                    status,
                    detail,
                    pred_tokens,
                    emitted_tokens,
                    ..
                }) => {
                    ok = status == SessionStatus::Ok;
                    if !ok && detail.is_empty() {
                        eprintln!("-- status: {status:?}");
                    } else if !ok {
                        eprintln!("-- status: {status:?}: {detail}");
                    }
                    let latency = SimTime::from_nanos(at_ns).duration_since(submitted);
                    let registry = core.kernel().metrics_registry();
                    let syscalls = registry.counter_value("kernel.usage.syscalls");
                    eprintln!(
                        "-- {} in {latency} | {} syscalls, {pred_tokens} pred tokens, {emitted_tokens} emitted",
                        if ok { "ok" } else { "failed" },
                        syscalls.unwrap_or(0),
                    );
                }
                _ => {}
            }
            ControlFlow::Continue(())
        });
        if idle {
            break;
        }
    }
    if !ends_line {
        let _ = writeln!(stdout);
    }
    let _ = stdout.flush();
    for e in core.kernel().telemetry_events() {
        eprintln!("[{}] {:?}", e.at, e.kind);
    }
    if !ok {
        std::process::exit(1);
    }
}
