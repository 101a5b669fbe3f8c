//! The TCP shell ([`symphony_serve::shell`]) against hostile peers, over
//! real loopback sockets. Each test runs `shell::serve` on a thread of its
//! own, as `symphony-serve` runs it, and checks that one misbehaving
//! connection costs the others nothing: a peer that never reads, one that
//! half-closes mid-session, one that sends a corrupt or oversized frame,
//! and one that writes a byte at a time.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::ops::ControlFlow;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use symphony::KernelConfig;
use symphony_rpc::{
    op, ClientMsg, ErrCode, FrameReader, ServerMsg, SessionStatus, CONN_SCOPE, DEFAULT_MAX_FRAME,
    WIRE_VERSION,
};
use symphony_serve::replay::{agent_source, standard_kernel};
use symphony_serve::{shell, ServeConfig, ServerCore};

/// How long a client waits for a frame before the test calls the server
/// stalled.
const STALL: Duration = Duration::from_secs(5);

/// `shell::serve` on its own thread. Dropping it stops the shell once
/// every connection is gone, so declare it before the clients.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start(cfg: ServeConfig) -> Server {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let (tx, rx) = mpsc::channel();
        // A kernel is not `Send`: the thread boots its own.
        let thread = thread::spawn(move || {
            let core = ServerCore::new(standard_kernel(KernelConfig::for_tests()), cfg);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            tx.send(listener.local_addr().expect("local addr"))
                .expect("test alive");
            shell::serve(listener, core, &stop2)
        });
        Server {
            addr: rx.recv().expect("shell thread bound no socket"),
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let result = t.join();
            if !thread::panicking() {
                result
                    .expect("shell thread panicked")
                    .expect("shell failed");
            }
        }
    }
}

/// One client connection, past its handshake.
struct Client {
    sock: TcpStream,
    reader: FrameReader,
    /// Frames read but not yet handed out by [`Client::recv`].
    frames: VecDeque<ServerMsg>,
}

impl Client {
    fn connect(server: &Server, tenant: u64) -> Client {
        let sock = TcpStream::connect(server.addr).expect("connect");
        sock.set_nodelay(true).expect("nodelay");
        sock.set_read_timeout(Some(STALL)).expect("read timeout");
        let mut c = Client {
            sock,
            reader: FrameReader::new(),
            frames: VecDeque::new(),
        };
        c.send(&ClientMsg::Hello {
            version: WIRE_VERSION,
            tenant,
        });
        let reply = c.recv().expect("server hung up during the handshake");
        assert!(matches!(reply, ServerMsg::HelloOk { .. }), "{reply:?}");
        c
    }

    fn send(&mut self, msg: &ClientMsg) {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        self.sock.write_all(&wire).expect("write");
    }

    fn submit(&mut self, session: u64, source: &str) {
        self.send(&submit(session, source));
    }

    /// The next frame, or `None` once the server has hung up. Panics if
    /// nothing arrives for [`STALL`].
    fn recv(&mut self) -> Option<ServerMsg> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(msg) = self.frames.pop_front() {
                return Some(msg);
            }
            match self.sock.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => {
                    let frames = &mut self.frames;
                    let read = self.reader.read(&buf[..n], |tag, payload| {
                        let msg = ServerMsg::decode(tag, payload).expect("decodable server frame");
                        frames.push_back(msg);
                        ControlFlow::Continue(())
                    });
                    read.expect("clean server wire");
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("no frame from the server for {STALL:?}: {e}"),
            }
        }
    }

    /// Frames until the server hangs up.
    fn rest(&mut self) -> Vec<ServerMsg> {
        std::iter::from_fn(|| self.recv()).collect()
    }

    /// Reads until `session`'s DONE and returns its status.
    fn done(&mut self, session: u64) -> SessionStatus {
        loop {
            match self.recv() {
                Some(ServerMsg::Done {
                    session: s, status, ..
                }) if s == session => return status,
                Some(ServerMsg::Error {
                    session: s,
                    code,
                    detail,
                }) if s == session || s == CONN_SCOPE => {
                    panic!("session {session}: {code:?} {detail}")
                }
                Some(_) => {}
                None => panic!("server hung up before session {session}'s DONE"),
            }
        }
    }

    /// Submits `session` and reads it to its DONE.
    fn run(&mut self, session: u64, source: &str) -> SessionStatus {
        self.submit(session, source);
        self.done(session)
    }
}

fn submit(session: u64, source: &str) -> ClientMsg {
    ClientMsg::Submit {
        session,
        not_before_ns: 0,
        fuel: 0,
        name: format!("tcp-{session}"),
        args: format!("question {session}"),
        source: source.to_string(),
    }
}

/// Streams `frames` STREAM frames of 1 KiB each, all at one virtual
/// instant.
fn chatty_source(frames: usize) -> String {
    format!(
        r#"let s = "0123456789abcdef";
let i = 0;
while (i < 6) {{ s = s + s; i = i + 1; }}
let n = 0;
while (n < {frames}) {{ emit(s); n = n + 1; }}
"#
    )
}

/// Calls the 1 ms `time` tool `calls` times and emits nothing: a session
/// that stays live for a long stretch of virtual time, and for seconds of
/// host time.
fn long_source(calls: usize) -> String {
    format!(
        r#"let i = 0;
while (i < {calls}) {{ call_tool("time", ""); i = i + 1; }}
"#
    )
}

#[test]
fn a_peer_that_never_reads_is_shed_while_another_finishes() {
    // Each chatty session streams 24 KiB, and at most eight of a tenant's
    // sessions are live at once: 192 KiB, under the 256 KiB cap, so only
    // output the socket has not taken can add up to a shed. The hostile
    // peer submits them one at a time and never reads a byte of their
    // output, 18 MiB in all: several times what loopback buffers hold
    // (about 4 MiB on Linux), so its socket stops taking bytes long
    // before the last SUBMIT.
    let server = Server::start(ServeConfig {
        conn_outbuf_cap: 256 * 1024,
        ..ServeConfig::default()
    });
    let mut hostile = Client::connect(&server, 1);
    let mut wire = Vec::new();
    for session in 1..=768 {
        wire.clear();
        submit(session, &chatty_source(24)).encode(&mut wire);
        if hostile.sock.write_all(&wire).is_err() {
            break; // shed, flushed and hung up on
        }
        thread::sleep(Duration::from_millis(1));
    }

    // A well-behaved tenant is served in full meanwhile.
    let mut polite = Client::connect(&server, 2);
    for session in 1..=8 {
        assert_eq!(polite.run(session, &agent_source(2, 8)), SessionStatus::Ok);
    }
    polite.send(&ClientMsg::Bye);
    assert!(matches!(polite.rest().as_slice(), [ServerMsg::ByeOk]));

    // When the hostile peer finally reads, it finds what was queued before
    // the shed, one SLOW_CLIENT error, and the end of the stream. (Its
    // session-scoped errors are SUBMITs over its quota.)
    let frames = hostile.rest();
    let conn_errors: Vec<&ServerMsg> = frames
        .iter()
        .filter(|m| {
            matches!(
                m,
                ServerMsg::Error {
                    session: CONN_SCOPE,
                    ..
                }
            )
        })
        .collect();
    assert!(
        matches!(
            conn_errors.as_slice(),
            [ServerMsg::Error {
                code: ErrCode::SlowClient,
                ..
            }]
        ),
        "{conn_errors:?}"
    );
    assert!(matches!(
        frames.last(),
        Some(ServerMsg::Error {
            session: CONN_SCOPE,
            ..
        })
    ));
}

#[test]
fn half_closing_a_connection_cancels_only_its_sessions() {
    let server = Server::start(ServeConfig {
        tenant_session_quota: 2,
        ..ServeConfig::default()
    });
    let long = long_source(1_000_000);
    let mut bystander = Client::connect(&server, 2);
    bystander.submit(1, &agent_source(3, 16));

    let mut leaver = Client::connect(&server, 1);
    for session in 1..=2 {
        leaver.submit(session, &long);
        assert!(
            matches!(leaver.recv(), Some(ServerMsg::Accepted { .. })),
            "the leaver's sessions were not admitted"
        );
    }
    leaver.sock.shutdown(Shutdown::Write).expect("half-close");
    // A half-close is a drop: sessions cancelled, nothing more sent.
    let after = leaver.rest();
    assert!(after.is_empty(), "{after:?}");

    // Its quota is free again, so its sessions are gone, not running on.
    let mut next = Client::connect(&server, 1);
    for session in 1..=2 {
        next.submit(session, &long);
        let reply = next.recv();
        assert!(
            matches!(reply, Some(ServerMsg::Accepted { .. })),
            "the half-closed connection's sessions still hold the quota: {reply:?}"
        );
    }
    for session in 1..=2 {
        next.send(&ClientMsg::Cancel { session });
        assert_eq!(next.done(session), SessionStatus::Cancelled);
    }
    assert_eq!(bystander.done(1), SessionStatus::Ok);
}

#[test]
fn a_corrupt_or_oversized_frame_closes_only_its_connection() {
    let server = Server::start(ServeConfig::default());
    let mut bystander = Client::connect(&server, 2);
    bystander.submit(1, &agent_source(3, 16));

    // A bit flipped in the checksum of a frame sent mid-session.
    let mut flipped = Client::connect(&server, 1);
    flipped.submit(1, &long_source(1_000_000));
    let mut wire = Vec::new();
    ClientMsg::Ping { nonce: 7 }.encode(&mut wire);
    let last = wire.len() - 1;
    wire[last] ^= 0x10;
    flipped.sock.write_all(&wire).expect("write");

    // A header announcing a payload over the cap; no payload follows.
    let mut oversized = Client::connect(&server, 3);
    let mut header = vec![op::SUBMIT];
    header.extend_from_slice(&(DEFAULT_MAX_FRAME + 1).to_le_bytes());
    oversized.sock.write_all(&header).expect("write");

    for (client, code) in [
        (&mut flipped, ErrCode::BadFrame),
        (&mut oversized, ErrCode::FrameTooLarge),
    ] {
        let frames = client.rest();
        let errors: Vec<&ServerMsg> = frames
            .iter()
            .filter(|m| matches!(m, ServerMsg::Error { .. }))
            .collect();
        assert!(
            matches!(errors.as_slice(), [ServerMsg::Error { session: CONN_SCOPE, code: c, .. }] if *c == code),
            "{frames:?}"
        );
        assert!(matches!(frames.last(), Some(ServerMsg::Error { .. })));
    }
    assert_eq!(bystander.done(1), SessionStatus::Ok);
    assert_eq!(bystander.run(2, &agent_source(1, 8)), SessionStatus::Ok);
}

#[test]
fn a_one_byte_per_poll_writer_delays_no_one() {
    // The trickler writes a SUBMIT a byte at a time, each its own segment
    // and its own wake-up of the shell, and holds the last byte back until
    // the other connection has run all its sessions. A shell that waited
    // for a whole frame would serve no one meanwhile, and the other
    // connection would stall.
    let server = Server::start(ServeConfig::default());
    let mut trickler = Client::connect(&server, 1);
    let (started_tx, started) = mpsc::channel();
    let (finished, finished_rx) = mpsc::channel();
    let writer = thread::spawn(move || {
        let mut wire = Vec::new();
        submit(1, &agent_source(2, 8)).encode(&mut wire);
        let (last, head) = wire.split_last().expect("a frame has bytes");
        for &byte in head {
            trickler.sock.write_all(&[byte]).expect("write");
            let _ = started_tx.send(());
            thread::sleep(Duration::from_millis(1));
        }
        finished_rx.recv().expect("the other connection finished");
        trickler.sock.write_all(&[*last]).expect("write");
        trickler
    });

    started.recv().expect("the trickle began");
    let mut other = Client::connect(&server, 2);
    for session in 1..=16 {
        assert_eq!(other.run(session, &agent_source(2, 8)), SessionStatus::Ok);
    }
    finished.send(()).expect("writer alive");
    let mut trickler = writer.join().expect("writer thread");
    assert_eq!(trickler.done(1), SessionStatus::Ok);
}
