//! `symphony-client` — SYMR load generator.
//!
//! ```text
//! symphony-client --loopback [--workload agent|rag] [--sessions N] [--conns N]
//!                 [--tenants N] [--rtt-ms R] [--seed S] [--drop N] [--slow N]
//!                 [--verify-determinism]
//! symphony-client --connect ADDR [--workload agent|rag] [--sessions N]
//! ```
//!
//! `--loopback` replays the workload against an in-process [`ServerCore`]
//! on the virtual clock — deterministic, RTT simulated through the wire
//! protocol's `not_before_ns`/`at_ns` fields — and reports client-observed
//! TTFT and per-program latency. `--verify-determinism` runs the replay
//! twice and fails unless the streamed bytes and the report match exactly.
//!
//! `--connect` drives a running `symphony-serve` over real TCP and
//! measures the same metrics on the wall clock.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use symphony_rpc::{ClientMsg, FrameReader, ServerMsg, SessionStatus, WIRE_VERSION};
use symphony_serve::replay::{agent_source, rag_source, short_source, RAG_DOCS};
use symphony_serve::{run_replay, ReplaySpec, ServeConfig, WorkloadKind};
use symphony_sim::SimDuration;

fn usage() -> ! {
    eprintln!(
        "usage: symphony-client --loopback [--workload agent|rag] [--sessions N] [--conns N]\n\
         \x20                [--tenants N] [--rtt-ms R] [--seed S] [--drop N] [--slow N]\n\
         \x20                [--verify-determinism]\n\
         \x20      symphony-client --connect ADDR [--workload agent|rag] [--sessions N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut loopback = false;
    let mut connect = None;
    let mut verify = false;
    let mut spec = ReplaySpec::default();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let num = |argv: &mut dyn Iterator<Item = String>| -> u64 {
            argv.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--loopback" => loopback = true,
            "--connect" => connect = argv.next(),
            "--verify-determinism" => verify = true,
            "--workload" => {
                spec.workload = match argv.next().as_deref() {
                    Some("agent") => WorkloadKind::Agent,
                    Some("rag") => WorkloadKind::Rag,
                    Some("mixed-cost") => WorkloadKind::MixedCost,
                    _ => usage(),
                }
            }
            "--sessions" => spec.sessions = num(&mut argv) as usize,
            "--conns" => spec.conns = (num(&mut argv) as usize).max(1),
            "--tenants" => spec.tenants = num(&mut argv).max(1),
            "--rtt-ms" => spec.rtt = SimDuration::from_millis(num(&mut argv)),
            "--seed" => spec.seed = num(&mut argv),
            "--drop" => spec.drop_conns = num(&mut argv) as usize,
            "--slow" => spec.slow_conns = num(&mut argv) as usize,
            _ => usage(),
        }
    }
    match (loopback, connect) {
        (true, None) => run_loopback(&spec, verify),
        (false, Some(addr)) => run_tcp(&addr, &spec),
        _ => usage(),
    }
}

fn run_loopback(spec: &ReplaySpec, verify: bool) {
    let report = run_replay(spec, ServeConfig::default());
    print!("{}", report.render());
    if verify {
        let again = run_replay(spec, ServeConfig::default());
        if report.streamed != again.streamed || report.render() != again.render() {
            eprintln!("determinism: FAILED (same seed, different bytes)");
            std::process::exit(1);
        }
        println!("determinism: ok (two same-seed replays byte-identical)");
    }
    if report.completed() == 0 {
        eprintln!("loopback: no program completed");
        std::process::exit(1);
    }
}

fn run_tcp(addr: &str, spec: &ReplaySpec) {
    match tcp_session(addr, spec) {
        Ok(summary) => print!("{summary}"),
        Err(e) => {
            eprintln!("symphony-client: {e}");
            std::process::exit(1);
        }
    }
}

fn tcp_session(addr: &str, spec: &ReplaySpec) -> Result<String, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    // lint:allow(d1): --connect measures a live TCP server, so latencies are genuinely wall-clock; the deterministic path is --loopback, which never touches Instant
    let start = Instant::now();

    let mut wire = Vec::new();
    ClientMsg::Hello {
        version: WIRE_VERSION,
        tenant: 1,
    }
    .encode(&mut wire);
    for s in 1..=spec.sessions as u64 {
        let source = match spec.workload {
            WorkloadKind::Agent => agent_source(2, 8),
            WorkloadKind::Rag => rag_source(12),
            WorkloadKind::MixedCost => short_source(6),
        };
        let args = match spec.workload {
            WorkloadKind::Agent => format!("task {s}"),
            WorkloadKind::Rag => format!("{}|question {s}", (s as usize - 1) % RAG_DOCS),
            WorkloadKind::MixedCost => format!("q {s}"),
        };
        ClientMsg::Submit {
            session: s,
            not_before_ns: 0,
            fuel: 0,
            name: format!("tcp-{s}"),
            args,
            source,
        }
        .encode(&mut wire);
    }
    ClientMsg::Bye.encode(&mut wire);
    sock.write_all(&wire).map_err(|e| format!("write: {e}"))?;

    let mut ttft: Vec<f64> = Vec::new();
    let mut latency: Vec<f64> = Vec::new();
    let mut first_seen = vec![false; spec.sessions + 1];
    let mut completed = 0usize;
    let mut streamed_tokens = 0u64;
    // Set when the frames read so far end the run: BYE_OK, or a frame that
    // does not decode.
    let mut end: Option<Result<(), String>> = None;
    while end.is_none() {
        let n = sock.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server hung up before BYE_OK".into());
        }
        reader
            .read(&buf[..n], |tag, payload| {
                let msg = match ServerMsg::decode(tag, payload) {
                    Ok(msg) => msg,
                    Err(e) => {
                        end = Some(Err(e.to_string()));
                        return ControlFlow::Break(());
                    }
                };
                let t_ms = start.elapsed().as_secs_f64() * 1e3;
                match msg {
                    ServerMsg::Stream {
                        session, tokens, ..
                    } => {
                        streamed_tokens += tokens;
                        if let Some(seen) = first_seen.get_mut(session as usize) {
                            if !*seen {
                                *seen = true;
                                ttft.push(t_ms);
                            }
                        }
                    }
                    ServerMsg::Done { status, .. } => {
                        latency.push(t_ms);
                        if status == SessionStatus::Ok {
                            completed += 1;
                        }
                    }
                    ServerMsg::Error { code, detail, .. } => {
                        eprintln!("symphony-client: server error {code}: {detail}");
                    }
                    ServerMsg::ByeOk => {
                        end = Some(Ok(()));
                        return ControlFlow::Break(());
                    }
                    _ => {}
                }
                ControlFlow::Continue(())
            })
            .map_err(|e| e.to_string())?;
    }
    if let Some(Err(e)) = end {
        return Err(e);
    }
    let p = |v: &mut Vec<f64>, p: f64| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx]
    };
    Ok(format!(
        "programs: {} submitted, {completed} completed, {streamed_tokens} streamed tokens\n\
         client-observed ttft:    p50 {:.2} ms  p99 {:.2} ms\n\
         client-observed latency: p50 {:.2} ms  p99 {:.2} ms\n",
        spec.sessions,
        p(&mut ttft, 50.0),
        p(&mut ttft, 99.0),
        p(&mut latency, 50.0),
        p(&mut latency, 99.0),
    ))
}
