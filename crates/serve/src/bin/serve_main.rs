//! `symphony-serve` — the SYMR front door on a real TCP socket.
//!
//! ```text
//! symphony-serve --listen 127.0.0.1:7777 [--quota N] [--max-sessions N]
//! symphony-serve --selftest
//! ```
//!
//! The socket side is [`symphony_serve::shell`]: a single-threaded
//! `poll(2)` loop around [`ServerCore`], so every protocol decision is the
//! same code the deterministic loopback tests exercise. `--selftest`
//! starts a listener on an ephemeral port, runs a real TCP client against
//! it in-process (HELLO → submissions → quota shed → BYE) and exits 0
//! only if streaming, the typed quota error and the clean shutdown all
//! check out — CI's serve-smoke job runs exactly this.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use symphony_rpc::{ClientMsg, ErrCode, FrameReader, ServerMsg, WIRE_VERSION};
use symphony_serve::replay::{agent_source, standard_kernel};
use symphony_serve::{serving_config, shell, ServeConfig, ServerCore};

fn usage() -> ! {
    eprintln!("usage: symphony-serve --listen ADDR [--quota N] [--max-sessions N] | --selftest");
    std::process::exit(2);
}

fn main() {
    let mut listen = None;
    let mut selftest = false;
    let mut cfg = ServeConfig::default();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--listen" => listen = argv.next(),
            "--selftest" => selftest = true,
            "--quota" => {
                cfg.tenant_session_quota = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-sessions" => {
                cfg.max_live_sessions = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    if selftest {
        run_selftest(cfg);
        return;
    }
    let Some(addr) = listen else { usage() };
    // Boot before binding, so `listening on` means ready: a client that
    // connects on it is accepted by a server that can admit at once.
    let core = boot(cfg);
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("symphony-serve: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "symphony-serve: listening on {}",
        listener.local_addr().map(|a| a.to_string()).unwrap_or(addr)
    );
    if let Err(e) = shell::serve(listener, core, &AtomicBool::new(false)) {
        eprintln!("symphony-serve: {e}");
        std::process::exit(1);
    }
}

/// The serving kernel and its front door.
fn boot(cfg: ServeConfig) -> ServerCore {
    ServerCore::new(standard_kernel(serving_config()), cfg)
}

/// In-process end-to-end check over a real socket pair.
fn run_selftest(mut cfg: ServeConfig) {
    cfg.tenant_session_quota = 2;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    // A kernel is not `Send`: the server thread boots its own, then binds,
    // in the CLI's order.
    let server = std::thread::spawn(move || {
        let core = boot(cfg);
        // lint:allow(k1): selftest binds an ephemeral loopback port
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        // lint:allow(k1): selftest reads back the port it just bound
        let _ = addr_tx.send(listener.local_addr().expect("local addr"));
        shell::serve(listener, core, &stop2)
    });
    // lint:allow(k1): selftest thread panics are the failure signal
    let addr = addr_rx.recv().expect("server thread bound no socket");

    let result = selftest_client(&addr.to_string());
    stop.store(true, Ordering::SeqCst);
    match result {
        Ok(summary) => {
            // lint:allow(k1): selftest thread panics are the failure signal
            if let Err(e) = server.join().expect("server thread") {
                eprintln!("selftest: FAILED: shell: {e}");
                std::process::exit(1);
            }
            println!("{summary}");
            println!("selftest: ok");
        }
        Err(e) => {
            eprintln!("selftest: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn selftest_client(addr: &str) -> Result<String, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    // `buf[at..end]`: what the last socket read holds that is not read yet.
    let (mut at, mut end) = (0, 0);
    let mut recv = |sock: &mut TcpStream, reader: &mut FrameReader| -> Result<ServerMsg, String> {
        loop {
            let mut msg = None;
            at += reader
                .read(&buf[at..end], |tag, payload| {
                    msg = Some(ServerMsg::decode(tag, payload));
                    ControlFlow::Break(())
                })
                .map_err(|e| e.to_string())?;
            if let Some(msg) = msg {
                return msg.map_err(|e| e.to_string());
            }
            let n = sock.read(&mut buf).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server hung up".into());
            }
            (at, end) = (0, n);
        }
    };
    let send = |sock: &mut TcpStream, msg: &ClientMsg| -> Result<(), String> {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        sock.write_all(&wire).map_err(|e| format!("write: {e}"))
    };

    send(
        &mut sock,
        &ClientMsg::Hello {
            version: WIRE_VERSION,
            tenant: 1,
        },
    )?;
    match recv(&mut sock, &mut reader)? {
        ServerMsg::HelloOk { .. } => {}
        other => return Err(format!("expected HELLO_OK, got {other:?}")),
    }

    // Three submissions against a quota of 2: the third must shed with a
    // typed QuotaExceeded, the first two must stream and complete. They go
    // out in one write so the server reads them in one pass and admits all
    // three before it runs the kernel: a first session that had finished
    // when the third arrived would leave the quota free.
    let mut wire = Vec::new();
    for session in 1..=3u64 {
        ClientMsg::Submit {
            session,
            not_before_ns: 0,
            fuel: 0,
            name: format!("selftest-{session}"),
            args: format!("task {session}"),
            source: agent_source(1, 8),
        }
        .encode(&mut wire);
    }
    sock.write_all(&wire).map_err(|e| format!("write: {e}"))?;
    let mut accepted = 0;
    let mut quota_shed = false;
    let mut streamed_tokens = 0u64;
    let mut done = 0;
    while done < 2 || accepted + 1 < 3 {
        match recv(&mut sock, &mut reader)? {
            ServerMsg::Accepted { .. } => accepted += 1,
            ServerMsg::Error {
                code: ErrCode::QuotaExceeded,
                session,
                ..
            } => {
                if session != 3 {
                    return Err(format!("quota shed hit session {session}, expected 3"));
                }
                quota_shed = true;
            }
            ServerMsg::Stream { tokens, text, .. } => {
                streamed_tokens += tokens.max(if text.is_empty() { 0 } else { 1 })
            }
            ServerMsg::Done { .. } => done += 1,
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    if !quota_shed {
        return Err("no QuotaExceeded for the over-quota submission".into());
    }
    if streamed_tokens == 0 {
        return Err("no streamed tokens observed".into());
    }

    send(&mut sock, &ClientMsg::Bye)?;
    match recv(&mut sock, &mut reader)? {
        ServerMsg::ByeOk => {}
        other => return Err(format!("expected BYE_OK, got {other:?}")),
    }
    Ok(format!(
        "selftest: {accepted} accepted, {done} done, {streamed_tokens} streamed tokens, quota shed observed"
    ))
}
