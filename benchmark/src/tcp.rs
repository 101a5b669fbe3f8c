//! `tcp_agent`: `agent_loop`'s programs against the real
//! `symphony-serve` binary over loopback TCP.
//!
//! The server child runs with its default flags, pinned to the serving
//! CPU; the client is one thread on the other CPU driving two
//! connections, each a closed loop with a window of eight live sessions
//! (the default per-tenant quota) and `not_before_ns = 0`. Same layers
//! as `agent_loop`, different transport: this is the only workload that
//! sees the TCP shell's idle sleep and its flush-after-quiescence.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use symphony_rpc::{ClientMsg, WIRE_VERSION};

use crate::client::{ConnDecoder, Seen, SessionOutcome, SimStats, Slo, WireCounts};
use crate::clock;
use crate::inproc::Recording;
use crate::pin::{self, Placement};
use crate::window::{peak_rss_mb, Sample};
use crate::workload::{Generator, Job, Workload, EPOCH_SESSIONS, SUBMITS_PER_CONN};

/// Client connections.
pub const TCP_CONNS: usize = 2;
/// Live sessions per connection.
pub const TCP_WINDOW: usize = SUBMITS_PER_CONN;
/// How long the server may take to print its `listening on` line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);
/// How long the client waits for bytes before declaring the server hung.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `symphony-serve` child.
pub struct ServerChild {
    child: Child,
    /// Address it listens on.
    pub addr: String,
    log: PathBuf,
}

impl ServerChild {
    /// Starts `bin --listen 127.0.0.1:0` on `place.serve_cpu` and waits
    /// for its `listening on` line. The child inherits the caller's
    /// affinity, so the caller pins itself to the serving CPU for the
    /// spawn and then moves to the client CPU.
    pub fn spawn(bin: &Path, out_dir: &Path, place: Placement) -> Result<Self, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let log = out_dir.join(format!("symphony-serve-{}.log", std::process::id()));
        let log_file =
            std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        if place.pinned {
            pin::pin_to(place.serve_cpu);
        }
        let spawned = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log_file))
            .spawn();
        if place.pinned {
            pin::pin_to(place.client_cpu);
        }
        let child = spawned.map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut server = ServerChild {
            child,
            addr: String::new(),
            log,
        };
        let started = clock::now();
        loop {
            let text = std::fs::read_to_string(&server.log).unwrap_or_default();
            // stderr is unbuffered: only trust the line once its newline
            // is there, or the port may still be half written.
            if let Some(addr) = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .find_map(|l| l.split_once("listening on ").map(|(_, a)| a.trim()))
            {
                server.addr = addr.to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "symphony-serve exited at start-up: {status}: {text}"
                ));
            }
            if clock::now().duration_since(started) > BOOT_TIMEOUT {
                return Err("symphony-serve printed no `listening on` line".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Peak resident set of the server process, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // The CLI server loops forever; stop it and reap it.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.log);
    }
}

/// Connects, greets, submits one session and returns once its ACCEPTED
/// has been read: the end point of `tcp_agent`'s set-up time.
pub fn first_accepted(server: &ServerChild) -> Result<(), String> {
    let mut conn = Conn::open(&server.addr, 1)?;
    let job = Generator::new(Workload::TcpAgent, 1).next_job();
    let mut wire = Vec::new();
    ClientMsg::Submit {
        session: 1,
        not_before_ns: 0,
        fuel: 0,
        name: job.name,
        args: job.args,
        source: job.source.to_string(),
    }
    .encode(&mut wire);
    conn.send(&wire, true)?;
    let started = clock::now();
    let mut buf = [0u8; 4096];
    let mut none = BTreeMap::new();
    while conn.decoder.counts.accepted == 0 {
        match conn.sock.read(&mut buf) {
            Ok(0) => return Err("server hung up before ACCEPTED".into()),
            Ok(n) => conn.decoder.feed(&buf[..n], &mut none, |_| {})?,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if clock::now().duration_since(started) > BOOT_TIMEOUT {
                    return Err("no ACCEPTED from the server".into());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(())
}

/// Host-clock stamps of one session, ns since the run began.
#[derive(Debug, Clone, Copy)]
pub struct WallSpan {
    /// SUBMIT written.
    pub sent_ns: u64,
    /// First token-bearing STREAM read (`done_ns` if none came).
    pub first_ns: u64,
    /// DONE read.
    pub done_ns: u64,
}

/// One client connection.
struct Conn {
    sock: TcpStream,
    decoder: ConnDecoder,
    live: usize,
}

impl Conn {
    fn open(addr: &str, tenant: u64) -> Result<Self, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Each SUBMIT is one small write; without this, Nagle holds the
        // second one back until the first is acknowledged.
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            sock,
            decoder: ConnDecoder::new(),
            live: 0,
        };
        let mut wire = Vec::new();
        ClientMsg::Hello {
            version: WIRE_VERSION,
            tenant,
        }
        .encode(&mut wire);
        conn.sock.write_all(&wire).map_err(|e| e.to_string())?;
        conn.sock
            .set_read_timeout(Some(BOOT_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut buf = [0u8; 256];
        let mut none = BTreeMap::new();
        while conn.decoder.counts.frames == 0 {
            let n = conn
                .sock
                .read(&mut buf)
                .map_err(|e| format!("HELLO_OK: {e}"))?;
            if n == 0 {
                return Err("server hung up during the handshake".into());
            }
            conn.decoder.feed(&buf[..n], &mut none, |_| {})?;
        }
        if conn.decoder.counts.errors != 0 {
            return Err("server refused HELLO".into());
        }
        conn.decoder.counts = WireCounts::default();
        conn.sock.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(conn)
    }

    fn send(&mut self, wire: &[u8], same_cpu: bool) -> Result<(), String> {
        let mut off = 0;
        while off < wire.len() {
            match self.sock.write(&wire[off..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => idle(same_cpu),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }
}

/// Waiting for the server: spin when it has its own CPU (the wall
/// stamps then carry no sleep granularity), sleep when it shares ours.
fn idle(same_cpu: bool) {
    if same_cpu {
        std::thread::sleep(Duration::from_micros(100));
    } else {
        std::hint::spin_loop();
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct TcpSpec {
    /// Generator seed.
    pub seed: u64,
    /// Sessions to run.
    pub sessions: usize,
    /// SLO limits.
    pub slo: Slo,
    /// Connections (2 for the workload, 1 for calibration).
    pub conns: usize,
    /// Live sessions per connection (8 for the workload, 1 for calibration).
    pub window: usize,
    /// Sessions, evenly spaced, kept for the isolation re-run.
    pub isolation_sample: usize,
}

/// What a TCP run measured.
pub struct TcpRun {
    /// Sessions per host second, one value per [`EPOCH_SESSIONS`]
    /// completions, the first (connection set-up, LIP pool growth)
    /// excluded.
    pub chunk_rates: Vec<f64>,
    /// SUBMIT write → first token-bearing STREAM read, host ms, per
    /// session.
    pub wall_ttft_ms: Vec<f64>,
    /// SUBMIT write → DONE read, host ms, per session.
    pub wall_latency_ms: Vec<f64>,
    /// Virtual-time statistics over every session. Arrival is
    /// estimated: the newest server stamp the client had read when it
    /// wrote the SUBMIT.
    pub sim: SimStats,
    /// Server VmHWM when the last session had completed, MB.
    pub server_rss_mb: f64,
    /// Wire counts over the whole run.
    pub wire: WireCounts,
    /// Sessions for the isolation re-run.
    pub samples: Vec<Sample>,
    /// First sessions' wire bytes, for the probes.
    pub recording: Recording,
    /// Every session's job in session order, for the replica check.
    pub jobs: Vec<Job>,
    /// Host seconds from first SUBMIT to last DONE.
    pub wall_s: f64,
    /// Host-clock stamps of every session, for the trace file.
    pub wall_spans: Vec<WallSpan>,
}

impl TcpRun {
    /// Sessions sent.
    pub fn sent(&self) -> u64 {
        self.sim.sent
    }

    /// Sessions sent without a DONE{Ok}.
    pub fn failed(&self) -> u64 {
        self.sim.failed()
    }
}

/// Drives `server` with closed-loop windows until `spec.sessions` are
/// done: a connection sends its next SUBMIT as soon as one of its
/// sessions ends.
pub fn run(server: &ServerChild, place: Placement, spec: TcpSpec) -> Result<TcpRun, String> {
    let same_cpu = place.serve_cpu == place.client_cpu || !place.pinned;
    let mut conns: Vec<Conn> = (0..spec.conns)
        .map(|i| Conn::open(&server.addr, i as u64 + 1))
        .collect::<Result<_, _>>()?;
    let mut generator = Generator::new(Workload::TcpAgent, spec.seed);
    let stride = (spec.sessions / spec.isolation_sample.max(1)).max(1) as u64;
    let total = spec.sessions as u64;
    let sampled = |s: u64| (s - 1).is_multiple_of(stride);

    let mut out = TcpRun {
        chunk_rates: Vec::new(),
        wall_ttft_ms: Vec::new(),
        wall_latency_ms: Vec::new(),
        sim: SimStats::default(),
        server_rss_mb: 0.0,
        wire: WireCounts::default(),
        samples: Vec::new(),
        recording: Recording {
            wire_in: vec![Vec::new(); spec.conns],
            wire_out: vec![Vec::new(); spec.conns],
        },
        jobs: Vec::new(),
        wall_s: 0.0,
        wall_spans: Vec::new(),
    };
    let mut live: BTreeMap<u64, SessionOutcome> = BTreeMap::new();
    let mut jobs_live: BTreeMap<u64, Job> = BTreeMap::new();
    let mut submitted_at: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut first_at: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut finished: Vec<SessionOutcome> = Vec::new();
    let mut next_session = 1u64;
    let mut done_total = 0u64;
    let mut newest_at_ns = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    let started = clock::now();
    let mut chunk_started = started;
    let mut last_progress = started;

    loop {
        // Refill every window.
        for (ci, conn) in conns.iter_mut().enumerate() {
            while next_session <= total && conn.live < spec.window {
                let job = generator.next_job();
                let session = next_session;
                next_session += 1;
                let mut wire = Vec::new();
                ClientMsg::Submit {
                    session,
                    not_before_ns: 0,
                    fuel: 0,
                    name: job.name.clone(),
                    args: job.args.clone(),
                    source: job.source.to_string(),
                }
                .encode(&mut wire);
                live.insert(
                    session,
                    SessionOutcome::sent(session, newest_at_ns, sampled(session)),
                );
                submitted_at.insert(session, clock::now());
                conn.send(&wire, same_cpu)?;
                conn.live += 1;
                if session <= EPOCH_SESSIONS as u64 {
                    out.recording.wire_in[ci].extend_from_slice(&wire);
                }
                out.jobs.push(job.clone());
                jobs_live.insert(session, job);
            }
        }
        if live.is_empty() {
            break;
        }
        // Read whatever has arrived on either connection.
        let mut progressed = false;
        for (ci, conn) in conns.iter_mut().enumerate() {
            loop {
                match conn.sock.read(&mut buf) {
                    Ok(0) => return Err("server hung up mid-run".into()),
                    Ok(n) => {
                        progressed = true;
                        if out.recording.wire_out[ci].len() < (1 << 20) {
                            out.recording.wire_out[ci].extend_from_slice(&buf[..n]);
                        }
                        let mut events: Vec<(Seen, Instant)> = Vec::new();
                        conn.decoder.feed(&buf[..n], &mut live, |seen| {
                            events.push((seen, clock::now()))
                        })?;
                        newest_at_ns = newest_at_ns.max(conn.decoder.newest_at_ns);
                        for (seen, at) in events {
                            let (session, is_done) = match seen {
                                Seen::FirstToken(s) => (s, false),
                                Seen::Done(s) | Seen::Shed(s) => (s, true),
                            };
                            let Some(&sent_at) = submitted_at.get(&session) else {
                                continue;
                            };
                            let ms = at.duration_since(sent_at).as_nanos() as f64 / 1e6;
                            if !is_done {
                                out.wall_ttft_ms.push(ms);
                                first_at.insert(session, at);
                                continue;
                            }
                            out.wall_latency_ms.push(ms);
                            submitted_at.remove(&session);
                            let first = first_at.remove(&session).unwrap_or(at);
                            let ns = |t: Instant| t.duration_since(started).as_nanos() as u64;
                            out.wall_spans.push(WallSpan {
                                sent_ns: ns(sent_at),
                                first_ns: ns(first),
                                done_ns: ns(at),
                            });
                            conn.live -= 1;
                            done_total += 1;
                            if done_total.is_multiple_of(EPOCH_SESSIONS as u64) {
                                let chunk_s = at.duration_since(chunk_started).as_secs_f64();
                                out.chunk_rates.push(EPOCH_SESSIONS as f64 / chunk_s);
                                chunk_started = at;
                            }
                            let outcome = live.remove(&session).expect("DONE for a live session");
                            let job = jobs_live.remove(&session).expect("job of a live session");
                            if let Some(text) = &outcome.text {
                                out.samples.push(Sample {
                                    job,
                                    text: text.clone(),
                                });
                            }
                            finished.push(outcome);
                            if done_total == total {
                                out.server_rss_mb = server.peak_rss_mb();
                            }
                            out.wall_s = at.duration_since(started).as_secs_f64();
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
        }
        if progressed {
            last_progress = clock::now();
        } else {
            if clock::now().duration_since(last_progress) > STALL_TIMEOUT {
                return Err(format!("no bytes from the server for {STALL_TIMEOUT:?}"));
            }
            idle(same_cpu);
        }
    }

    // Every session sent has ended, with a DONE or shed with an ERROR.
    for conn in &mut conns {
        out.wire.add(conn.decoder.counts);
        let mut wire = Vec::new();
        ClientMsg::Bye.encode(&mut wire);
        conn.send(&wire, same_cpu)?;
    }
    finished.sort_by_key(|s| s.session);
    out.sim.add(finished.into_iter(), spec.slo);
    if out.chunk_rates.len() > 1 {
        out.chunk_rates.remove(0);
    }
    Ok(out)
}
