//! E8 — §6 sandbox cost: LipScript vs native LIPs.
//!
//! The same autoregressive loop runs as a native Rust LIP and as an
//! interpreted LipScript program. Virtual-time behaviour is identical (both
//! issue the same syscalls); the interpreter's cost is host CPU, which we
//! report as wall-clock per generated token, plus the fuel/memory the §6
//! accounting attributes to the guest.
//!
//! A second table is the interpreter's pinned microbenchmark: three
//! programs on `MockHost` (no kernel, no threads), host ns per unit of
//! fuel, plus what lowering each program to its image costs. These are the
//! numbers `interp.rs`'s module doc and CHANGES.md quote; they are host
//! time, so this experiment is not `pinned`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::{ExpArgs, Report, Table};
use serde::Serialize;
use symphony::{Kernel, KernelConfig, SysError};
use symphony_lipscript::host::{Host, MockHost};
use symphony_lipscript::parse::parse;
use symphony_lipscript::{Image, InterpLimits, Interpreter, Step};
use symphony_serve::replay::agent_source;

const RUNS: usize = 16;
const MAX_TOKENS: usize = 64;

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    tokens: u64,
    virtual_ms_per_token: f64,
    wall_us_per_token: f64,
    syscalls: u64,
    fuel_per_token: f64,
}

const SCRIPT: &str = r#"
let prompt = tokenize(args());
let kv = kv_create();
let dists = pred(kv, prompt, 0);
let d = dists[len(dists) - 1];
let pos = len(prompt);
let n = 0;
while (n < 64) {
    let t = argmax(d);
    if (t == eos()) { break; }
    emit_token(t);
    d = pred(kv, [t], pos)[0];
    pos = pos + 1;
    n = n + 1;
}
kv_remove(kv);
"#;

fn run_mode(lipscript: bool) -> Point {
    let mut cfg = KernelConfig::for_tests();
    cfg.model = cfg.model.with_mean_output_tokens(100_000);
    let mut kernel = Kernel::new(cfg);
    let fuel_total = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut pids = Vec::new();
    for i in 0..RUNS {
        let args = format!("a prompt for measurement case number {i}");
        if lipscript {
            let fuel = fuel_total.clone();
            pids.push(kernel.spawn_process(&format!("ls{i}"), &args, move |ctx| {
                let program = std::sync::Arc::new(
                    symphony_lipscript::parse::parse(SCRIPT)
                        .map_err(|e| SysError::ToolFailed(e.to_string()))?,
                );
                let mut interp = Interpreter::new(program, InterpLimits::default());
                let r = interp
                    .run(ctx)
                    .map(|_| ())
                    .map_err(|e| SysError::ToolFailed(e.to_string()));
                fuel.fetch_add(interp.fuel_used(), std::sync::atomic::Ordering::Relaxed);
                r
            }));
        } else {
            pids.push(kernel.spawn_process(&format!("rs{i}"), &args, |ctx| {
                let prompt = ctx.tokenize(&ctx.args())?;
                let kv = ctx.kv_create()?;
                let mut d = ctx
                    .pred_positions(kv, &prompt, 0)?
                    .last()
                    .ok_or(SysError::BadArgument)?;
                for pos in (prompt.len() as u32..).take(MAX_TOKENS) {
                    let t = d.argmax();
                    if t == ctx.eos() {
                        break;
                    }
                    ctx.emit_tokens(&[t])?;
                    d = ctx
                        .pred(kv, &[(t, pos)])?
                        .last()
                        .ok_or(SysError::BadArgument)?;
                }
                ctx.kv_remove(kv)?;
                Ok(())
            }));
        }
    }
    let wall = std::time::Instant::now();
    kernel.run();
    let wall = wall.elapsed();

    let mut tokens = 0u64;
    let mut syscalls = 0u64;
    let mut virt = symphony_sim::Series::new();
    for &pid in &pids {
        let rec = kernel.record(pid).expect("record");
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        tokens += rec.usage.emitted_tokens;
        syscalls += rec.usage.syscalls;
        virt.add(rec.latency().expect("exited").as_millis_f64() / rec.usage.emitted_tokens as f64);
    }
    Point {
        mode: if lipscript { "lipscript" } else { "native" }.to_string(),
        tokens,
        virtual_ms_per_token: virt.mean(),
        wall_us_per_token: wall.as_micros() as f64 / tokens.max(1) as f64,
        syscalls,
        fuel_per_token: fuel_total.load(std::sync::atomic::Ordering::Relaxed) as f64
            / tokens.max(1) as f64,
    }
}

/// One row of the interpreter microbenchmark.
#[derive(Debug, Clone, Serialize)]
struct Micro {
    program: String,
    /// Fuel one run burns (exact: a count).
    fuel: u64,
    /// Under the blocking driver, which answers host calls in the loop.
    ns_per_fuel: f64,
    /// Parked on every host call and resumed with the reply, as the kernel
    /// runs a served program.
    ns_per_fuel_parked: f64,
    host_calls: u64,
    /// `Image::lower` of the parsed program.
    lower_us: f64,
}

const ARITHMETIC: &str =
    "let s = 0;\nlet i = 0;\nwhile (i < N) { s = s + i * 3 % 7 - 1; i = i + 1; }\nreturn s;";
const COUNTER: &str = "let i = 0;\nwhile (i < N) { i = i + 1; }\nreturn i;";

/// Repetitions of every timing below; the minimum is reported.
const REPS: usize = 7;

fn min_ns(mut run: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn mock() -> MockHost {
    let mut host = MockHost::new("what is the capital of france");
    host.tools.insert("echo".into(), "ok {args}".into());
    host
}

fn micro(name: &str, src: &str, runs: usize) -> Micro {
    let program = parse(src).expect("microbenchmark programs parse");
    let image = Image::shared(&program);
    let mut fuel = 0;
    let driven = min_ns(|| {
        for _ in 0..runs {
            let mut interp = Interpreter::from_image(Arc::clone(&image), InterpLimits::default());
            black_box(interp.run(&mut mock()).expect("runs to completion"));
            fuel = interp.fuel_used();
        }
    });
    let mut host_calls = 0;
    let parked = min_ns(|| {
        for _ in 0..runs {
            let mut host = mock();
            let mut interp = Interpreter::from_image(Arc::clone(&image), InterpLimits::default());
            interp.start();
            let mut reply = None;
            host_calls = 0;
            let result = loop {
                match interp.step(reply.take()) {
                    Step::Done(result) => break result,
                    Step::Ask(call) => {
                        host_calls += 1;
                        reply = Some(host.call(call));
                    }
                }
            };
            black_box(result.expect("runs to completion"));
        }
    });
    let lowers = 200;
    let lower = min_ns(|| {
        for _ in 0..lowers {
            black_box(Image::lower(black_box(&program)));
        }
    });
    let per_fuel = |ns: f64| ns / (runs as u64 * fuel) as f64;
    Micro {
        program: name.to_string(),
        fuel,
        ns_per_fuel: per_fuel(driven),
        ns_per_fuel_parked: per_fuel(parked),
        host_calls,
        lower_us: lower / lowers as f64 / 1e3,
    }
}

#[derive(Debug, Serialize)]
struct Results {
    modes: Vec<Point>,
    micro: Vec<Micro>,
}

pub(super) fn run(args: &ExpArgs) -> Report {
    let mut table = Table::new(
        "E8 — interpreter overhead: the same generation loop, native vs LipScript",
        &[
            "mode",
            "tokens",
            "virtual ms/token",
            "wall us/token",
            "syscalls",
            "fuel/token",
        ],
    );
    let mut results = Vec::new();
    for lipscript in [false, true] {
        eprintln!("E8: lipscript={lipscript} ...");
        let p = run_mode(lipscript);
        table.row(vec![
            p.mode.clone(),
            p.tokens.to_string(),
            format!("{:.3}", p.virtual_ms_per_token),
            format!("{:.1}", p.wall_us_per_token),
            p.syscalls.to_string(),
            format!("{:.0}", p.fuel_per_token),
        ]);
        results.push(p);
    }
    table.print();
    println!("\nShape check: virtual time per token is identical (same syscalls); the");
    println!("sandbox costs host CPU only, and fuel accounting quantifies guest work.");

    let n = if args.smoke { "2000" } else { "50000" };
    let agent_runs = if args.smoke { 5 } else { 100 };
    let micros = vec![
        micro("arithmetic loop", &ARITHMETIC.replace('N', n), 1),
        micro("while counter", &COUNTER.replace('N', n), 1),
        micro("agent on MockHost", &agent_source(6, 8), agent_runs),
    ];
    let mut table = Table::new(
        &format!("E8 — interpreter microbenchmark: MockHost, min of {REPS}"),
        &[
            "program",
            "fuel",
            "ns/fuel",
            "ns/fuel parked",
            "host calls",
            "lower us",
        ],
    );
    for m in &micros {
        table.row(vec![
            m.program.clone(),
            m.fuel.to_string(),
            format!("{:.1}", m.ns_per_fuel),
            format!("{:.1}", m.ns_per_fuel_parked),
            m.host_calls.to_string(),
            format!("{:.2}", m.lower_us),
        ]);
    }
    println!();
    table.print();
    println!("\nEvery run shares one lowered image (`Interpreter::from_image`); `parked` stops at");
    println!("every host call and resumes with the reply, as a served program does.");
    Report::new(&Results {
        modes: results,
        micro: micros,
    })
}
