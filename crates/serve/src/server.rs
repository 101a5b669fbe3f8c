//! The serving core: SYMR connections multiplexed onto one kernel.
//!
//! [`ServerCore`] is transport-agnostic and fully deterministic: bytes go
//! in through [`ServerCore::feed`], virtual time advances in
//! [`ServerCore::pump`], bytes come out through
//! [`ServerCore::take_output`]. The TCP binary and the in-memory loopback
//! replay harness are both thin shells around this one type, so every
//! protocol decision — admission, quota, backpressure, cancellation — is
//! exercised identically under tests and on a real socket.
//!
//! Admission happens at the door, per the paper's control-plane argument:
//! a submission is checked against the tenant quota and the global
//! session cap *before* a kernel process exists, so an overloaded server
//! sheds with a typed [`ErrCode::QuotaExceeded`]/[`ErrCode::ServerBusy`]
//! frame instead of queueing unbounded work. Slow clients are bounded the
//! same way: a connection whose output buffer exceeds
//! [`ServeConfig::conn_outbuf_cap`] is shed with [`ErrCode::SlowClient`]
//! and its sessions cancelled, so one undrained socket cannot hold kernel
//! memory hostage.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use symphony::telemetry::EventKind;
use symphony::{ExitStatus, Kernel, Pid, SessionEvent, SimTime, SysError};
use symphony_lipscript::{parse::parse, verify::verify, Image, InterpLimits, LipBody};
use symphony_rpc::{
    ClientMsg, ErrCode, FrameReader, ServerMsg, SessionStatus, CONN_SCOPE, DEFAULT_MAX_FRAME,
    WIRE_VERSION,
};

/// Tuning knobs for the front door.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Identity string echoed in HELLO_OK.
    pub server_name: String,
    /// Per-frame payload cap handed to the [`FrameReader`].
    pub max_frame: u32,
    /// Largest accepted LipScript source, in bytes.
    pub max_source_bytes: usize,
    /// Interpreter fuel used when a SUBMIT carries `fuel = 0`.
    pub default_fuel: u64,
    /// Maximum live sessions per tenant (across all connections).
    pub tenant_session_quota: usize,
    /// Maximum live sessions server-wide.
    pub max_live_sessions: usize,
    /// Output-buffer cap per connection; exceeding it sheds the
    /// connection as a slow client.
    pub conn_outbuf_cap: usize,
    /// Run the static verifier on every SUBMIT; programs with verifier
    /// errors are shed with [`ErrCode::VerifyRejected`] before touching
    /// the kernel.
    pub verify: bool,
    /// Feed the verifier's pred-token bound to the scheduler as a static
    /// cost hint ([`Kernel::set_cost_hint`]); requires `verify`.
    pub cost_hints: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            server_name: "symphony-serve/0.1".to_string(),
            max_frame: DEFAULT_MAX_FRAME,
            max_source_bytes: 64 * 1024,
            default_fuel: 10_000_000,
            tenant_session_quota: 8,
            max_live_sessions: 256,
            conn_outbuf_cap: 1 << 20,
            verify: true,
            cost_hints: true,
        }
    }
}

/// Why a connection was closed; mirrored into telemetry as
/// [`EventKind::ConnClose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Clean BYE/BYE_OK shutdown.
    Bye,
    /// The transport vanished (client disconnect or injected fault).
    Drop,
    /// A connection-fatal protocol error.
    Error,
    /// Shed for not draining its stream.
    Slow,
}

impl CloseReason {
    fn as_str(self) -> &'static str {
        match self {
            CloseReason::Bye => "bye",
            CloseReason::Drop => "drop",
            CloseReason::Error => "error",
            CloseReason::Slow => "slow",
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum ConnState {
    /// Waiting for HELLO.
    Handshake,
    /// Normal operation.
    Open,
    /// BYE received: draining live sessions, then BYE_OK + close.
    Closing,
    /// Closed; output may still be drained by the transport.
    Closed(CloseReason),
}

struct Conn {
    reader: FrameReader,
    out: Vec<u8>,
    tenant: u64,
    state: ConnState,
    /// Live sessions on this connection: session id → kernel pid.
    sessions: BTreeMap<u64, Pid>,
    /// Per-connection output window override (transport backpressure
    /// signal); `None` uses [`ServeConfig::conn_outbuf_cap`].
    window: Option<usize>,
}

/// What the program gate makes of an admissible source text, and what the
/// door keeps of it for the next SUBMIT of the same text: the lowered
/// program every session of that text shares, and the verifier's cost hint
/// for it (`None` when hints are off).
#[derive(Clone)]
struct Admissible {
    image: Arc<Image>,
    hint: Option<Option<u64>>,
}

/// Admissible programs by source text, least recently used out first.
///
/// Clients resubmit the same few programs with different arguments, and
/// parsing, verifying and lowering one costs more host time than the rest
/// of a SUBMIT put together; a hit costs a map lookup. The key is the
/// source text itself — no hash, so two sources can never be confused —
/// and what is shared is immutable and holds nothing of any run, so two
/// tenants that submit the same text learn nothing of each other beyond,
/// at most, that the second parse took less of the *host's* time (virtual
/// time, all a program can read, is the same either way). Only admissible
/// programs are kept: a rejection's diagnostic names the session, and a
/// client hammering the door with garbage must not push good entries out.
/// Bounded by [`ServeConfig::max_live_sessions`] entries — as many distinct
/// programs as can be live at once; ordered maps and a counter for a
/// clock, so what is evicted depends on the SUBMIT sequence alone.
#[derive(Default)]
struct ImageCache {
    /// Source → what it lowered to, and the [`ImageCache::clock`] reading
    /// when that was last handed out.
    by_source: BTreeMap<Arc<str>, (Admissible, u64)>,
    /// Last handed out → source: the first entry is the one to evict.
    by_age: BTreeMap<u64, Arc<str>>,
    clock: u64,
}

impl ImageCache {
    fn get(&mut self, source: &str) -> Option<Admissible> {
        let (hit, used) = self.by_source.get_mut(source)?;
        self.clock += 1;
        let key = self.by_age.remove(used)?;
        self.by_age.insert(self.clock, key);
        *used = self.clock;
        Some(hit.clone())
    }

    /// Keeps a freshly admitted program; `true` if another had to go.
    fn insert(&mut self, cap: usize, source: &str, admitted: &Admissible) -> bool {
        if cap == 0 {
            return false;
        }
        let evicted = self.by_source.len() >= cap;
        if evicted {
            if let Some((_, oldest)) = self.by_age.pop_first() {
                self.by_source.remove(&oldest);
            }
        }
        self.clock += 1;
        let key: Arc<str> = Arc::from(source);
        self.by_age.insert(self.clock, Arc::clone(&key));
        self.by_source.insert(key, (admitted.clone(), self.clock));
        evicted
    }
}

/// The SYMR front door: owns the kernel, multiplexes connections onto it.
pub struct ServerCore {
    kernel: Kernel,
    cfg: ServeConfig,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    /// Kernel pid → (conn id, session id) for routing session events.
    routes: BTreeMap<u64, (u64, u64)>,
    live_by_tenant: BTreeMap<u64, usize>,
    live_total: usize,
    /// Pids the server cancelled (CANCEL frame or connection teardown);
    /// their exit reports as DONE{Cancelled} even though the interpreter
    /// surfaces the kernel's typed error as a tool failure.
    cancel_requested: BTreeSet<u64>,
    /// Session events drained from the kernel sink, in virtual-time order.
    events: Arc<Mutex<VecDeque<SessionEvent>>>,
    images: ImageCache,
}

impl ServerCore {
    /// Wraps a configured kernel (tools registered, KV preloaded) as a
    /// serving core. Installs the kernel's session sink; the kernel must
    /// not have one already.
    pub fn new(mut kernel: Kernel, cfg: ServeConfig) -> Self {
        let events: Arc<Mutex<VecDeque<SessionEvent>>> = Arc::new(Mutex::new(VecDeque::new()));
        let sink_events = Arc::clone(&events);
        kernel.set_session_sink(Box::new(move |ev| {
            sink_events
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push_back(ev);
        }));
        ServerCore {
            kernel,
            cfg,
            conns: BTreeMap::new(),
            next_conn: 1,
            routes: BTreeMap::new(),
            live_by_tenant: BTreeMap::new(),
            live_total: 0,
            cancel_requested: BTreeSet::new(),
            events,
            images: ImageCache::default(),
        }
    }

    /// The wrapped kernel (trace/metrics/event access for harnesses).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Opens a connection and returns its id. Telemetry's `ConnOpen` is
    /// deferred to the HELLO, when the tenant is known.
    pub fn open_conn(&mut self) -> u64 {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                reader: FrameReader::with_max_frame(self.cfg.max_frame),
                out: Vec::new(),
                tenant: 0,
                state: ConnState::Handshake,
                sessions: BTreeMap::new(),
                window: None,
            },
        );
        id
    }

    /// Feeds received bytes into a connection and processes every
    /// complete frame. Unknown or closed connections ignore input (the
    /// transport races its own teardown). Call [`ServerCore::pump`]
    /// afterwards to run the kernel and collect streamed output.
    pub fn feed(&mut self, conn: u64, bytes: &[u8]) {
        {
            let Some(c) = self.conns.get_mut(&conn) else {
                return;
            };
            if matches!(c.state, ConnState::Closed(_)) {
                return;
            }
            c.reader.feed(bytes);
            self.kernel
                .metrics_registry()
                .counter("serve.bytes.in")
                .add(bytes.len() as u64);
        }
        loop {
            let frame = {
                // lint:allow(k1): conn presence was checked above and feed is single-threaded
                let c = self.conns.get_mut(&conn).expect("conn exists");
                if matches!(c.state, ConnState::Closed(_)) {
                    return;
                }
                c.reader.next_frame()
            };
            match frame {
                Ok(None) => return,
                Ok(Some((tag, payload))) => {
                    self.kernel
                        .metrics_registry()
                        .counter("serve.frames.in")
                        .inc();
                    self.handle_frame(conn, tag, &payload);
                }
                Err(e) => {
                    self.fatal(conn, e.err_code(), &e.to_string());
                    return;
                }
            }
        }
    }

    /// Runs the kernel to quiescence and converts session events into
    /// STREAM/DONE frames on their owning connections. Loops until no
    /// further events surface (a slow-client shed cancels sessions, which
    /// produces more events). Finishes BYE handshakes whose sessions have
    /// drained.
    pub fn pump(&mut self) {
        loop {
            self.kernel.run();
            let drained: Vec<SessionEvent> = {
                let mut q = self.events.lock().unwrap_or_else(|p| p.into_inner());
                q.drain(..).collect()
            };
            if drained.is_empty() {
                break;
            }
            for ev in drained {
                self.route_event(ev);
            }
        }
        self.finish_closing();
    }

    /// Drops the kernel's records of finished sessions
    /// ([`Kernel::reap_exited`]). After [`ServerCore::pump`] every one of
    /// them has been reported as a DONE frame, which is all a client ever
    /// sees of it; a harness that reads `kernel().records()` afterwards
    /// simply does not call this. Also forgets every connection that is
    /// closed with nothing left to flush or to route — to the transport
    /// it reads as before, [`ServerCore::is_closed`] with no output — so a
    /// server that stays up keeps state for the connections it has, not
    /// for every one it ever had.
    pub fn reap_exited(&mut self) -> usize {
        self.conns.retain(|_, c| {
            !matches!(c.state, ConnState::Closed(_)) || !c.out.is_empty() || !c.sessions.is_empty()
        });
        self.kernel.reap_exited()
    }

    /// Drains a connection's pending output bytes.
    pub fn take_output(&mut self, conn: u64) -> Vec<u8> {
        self.conns
            .get_mut(&conn)
            .map(|c| std::mem::take(&mut c.out))
            .unwrap_or_default()
    }

    /// Bytes queued on a connection, without draining them.
    pub fn pending_output(&self, conn: u64) -> usize {
        self.conns.get(&conn).map(|c| c.out.len()).unwrap_or(0)
    }

    /// Whether the connection reached a closed state (output may still be
    /// pending for the transport to flush).
    pub fn is_closed(&self, conn: u64) -> bool {
        self.conns
            .get(&conn)
            .map(|c| matches!(c.state, ConnState::Closed(_)))
            .unwrap_or(true)
    }

    /// The close reason, once closed.
    pub fn close_reason(&self, conn: u64) -> Option<CloseReason> {
        match self.conns.get(&conn)?.state {
            ConnState::Closed(r) => Some(r),
            _ => None,
        }
    }

    /// Live sessions across all connections.
    pub fn live_sessions(&self) -> usize {
        self.live_total
    }

    /// Distinct sources whose lowered program the door is keeping for the
    /// next SUBMIT of the same text; at most
    /// [`ServeConfig::max_live_sessions`].
    pub fn cached_images(&self) -> usize {
        self.images.by_source.len()
    }

    /// Overrides one connection's output window (a transport-level
    /// backpressure signal, e.g. a collapsed TCP send window). Exceeding
    /// it sheds the connection as a slow client.
    pub fn set_conn_window(&mut self, conn: u64, cap: usize) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.window = Some(cap);
        }
    }

    /// Simulates an abrupt transport loss (client crash, injected fault):
    /// pending output is discarded and every live session is cancelled.
    /// The cancellations settle on the next [`ServerCore::pump`].
    pub fn drop_conn(&mut self, conn: u64) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.out.clear();
        }
        self.close(conn, CloseReason::Drop);
    }

    // ---- frame handling ----------------------------------------------------

    fn handle_frame(&mut self, conn: u64, tag: u8, payload: &[u8]) {
        let msg = match ClientMsg::decode(tag, payload) {
            Ok(m) => m,
            Err(code) => {
                // Decode failures at the door are connection-fatal: the
                // peer speaks a different protocol (or direction).
                self.fatal(conn, code, &format!("opcode 0x{tag:02x}: {code}"));
                return;
            }
        };
        let state = &self
            .conns
            .get(&conn)
            // lint:allow(k1): handle_frame is only called for live conns
            .expect("conn exists")
            .state;
        if *state == ConnState::Handshake {
            match msg {
                ClientMsg::Hello { version, tenant } => self.handle_hello(conn, version, tenant),
                _ => self.fatal(conn, ErrCode::NotHello, "first frame must be HELLO"),
            }
            return;
        }
        match msg {
            ClientMsg::Hello { .. } => {
                self.fatal(conn, ErrCode::BadFrame, "HELLO repeated after handshake");
            }
            ClientMsg::Submit {
                session,
                not_before_ns,
                fuel,
                name,
                args,
                source,
            } => self.handle_submit(conn, session, not_before_ns, fuel, &name, &args, &source),
            ClientMsg::Cancel { session } => self.handle_cancel(conn, session),
            ClientMsg::Ping { nonce } => self.reply(conn, &ServerMsg::Pong { nonce }),
            ClientMsg::Bye => {
                // lint:allow(k1): conn presence established above
                let c = self.conns.get_mut(&conn).expect("conn exists");
                c.state = ConnState::Closing;
                // BYE_OK goes out from finish_closing once sessions drain.
            }
        }
    }

    fn handle_hello(&mut self, conn: u64, version: u32, tenant: u64) {
        if version != WIRE_VERSION {
            self.fatal(
                conn,
                ErrCode::BadVersion,
                &format!("client v{version}, server v{WIRE_VERSION}"),
            );
            return;
        }
        // lint:allow(k1): conn presence established by the caller
        let c = self.conns.get_mut(&conn).expect("conn exists");
        c.tenant = tenant;
        c.state = ConnState::Open;
        self.kernel
            .emit_event(|| EventKind::ConnOpen { conn, tenant });
        self.kernel
            .metrics_registry()
            .counter("serve.conns.opened")
            .inc();
        let server = self.cfg.server_name.clone();
        self.reply(
            conn,
            &ServerMsg::HelloOk {
                version: WIRE_VERSION,
                server,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_submit(
        &mut self,
        conn: u64,
        session: u64,
        not_before_ns: u64,
        fuel: u64,
        name: &str,
        args: &str,
        source: &str,
    ) {
        let (tenant, closing, duplicate) = {
            // lint:allow(k1): conn presence established by the caller
            let c = self.conns.get(&conn).expect("conn exists");
            (
                c.tenant,
                c.state == ConnState::Closing,
                c.sessions.contains_key(&session),
            )
        };
        // Admission checks, cheapest first; each refusal is one typed
        // session-scoped ERROR and costs no kernel state.
        let mut static_hint: Option<Option<u64>> = None;
        let admitted = if session == CONN_SCOPE {
            Err((ErrCode::ProgramRejected, "session id 0 is reserved".into()))
        } else if duplicate {
            Err((
                ErrCode::DuplicateSession,
                format!("session {session} is live"),
            ))
        } else if closing {
            Err((ErrCode::ProgramRejected, "connection is closing".into()))
        } else if source.len() > self.cfg.max_source_bytes {
            Err((
                ErrCode::SourceTooLarge,
                format!("{} bytes > cap {}", source.len(), self.cfg.max_source_bytes),
            ))
        } else if self.live_by_tenant.get(&tenant).copied().unwrap_or(0)
            >= self.cfg.tenant_session_quota
        {
            Err((
                ErrCode::QuotaExceeded,
                format!(
                    "tenant {tenant} at {} live sessions",
                    self.cfg.tenant_session_quota
                ),
            ))
        } else if self.live_total >= self.cfg.max_live_sessions {
            Err((
                ErrCode::ServerBusy,
                format!("server at {} live sessions", self.cfg.max_live_sessions),
            ))
        } else {
            self.admit_program(name, source).map(|admitted| {
                static_hint = admitted.hint;
                admitted.image
            })
        };
        let image = match admitted {
            Ok(image) => image,
            Err((code, detail)) => {
                self.kernel
                    .metrics_registry()
                    .counter("serve.sessions.shed")
                    .inc();
                if code == ErrCode::VerifyRejected {
                    self.kernel
                        .metrics_registry()
                        .counter("serve.sessions.verify_rejected")
                        .inc();
                }
                self.reply(
                    conn,
                    &ServerMsg::Error {
                        session,
                        code,
                        detail,
                    },
                );
                return;
            }
        };

        let limits = InterpLimits {
            fuel: if fuel == 0 {
                self.cfg.default_fuel
            } else {
                fuel
            },
            ..Default::default()
        };
        // A SUBMIT may carry a virtual arrival floor (trace replay with
        // simulated RTT); past floors mean "now".
        let at = SimTime::from_nanos(not_before_ns.max(self.kernel.now().as_nanos()));
        // The program the verifier saw is the one that runs — as a value
        // the kernel steps on its own thread, not on a thread of its own,
        // over an image it shares with every session of the same source.
        let body = Box::new(LipBody::from_image(image, limits));
        let pid = self.kernel.admit_inline(name, args, Some(at), body);
        if let Some(hint) = static_hint {
            self.kernel.set_cost_hint(pid, hint);
        }
        // lint:allow(k1): conn presence established by the caller
        let c = self.conns.get_mut(&conn).expect("conn exists");
        c.sessions.insert(session, pid);
        self.routes.insert(pid.0, (conn, session));
        *self.live_by_tenant.entry(tenant).or_insert(0) += 1;
        self.live_total += 1;
        self.kernel.emit_event(|| EventKind::SessionBegin {
            conn,
            session,
            pid: pid.0,
            tenant,
        });
        self.kernel
            .metrics_registry()
            .counter("serve.sessions.accepted")
            .inc();
        self.reply(
            conn,
            &ServerMsg::Accepted {
                session,
                pid: pid.0,
            },
        );
    }

    /// The program gate: parse errors stay `ProgramRejected`, verifier
    /// errors shed as `VerifyRejected` — both carry a compiler-style
    /// `name:line:col: message` detail and cost zero interpreter fuel. An
    /// admissible program's effect summary doubles as the scheduler's
    /// static cost hint. A source admitted before and still in the
    /// [`ImageCache`] skips all of it.
    fn admit_program(&mut self, name: &str, source: &str) -> Result<Admissible, (ErrCode, String)> {
        let metrics = self.kernel.metrics_registry();
        if let Some(hit) = self.images.get(source) {
            metrics.counter("serve.image_cache.hits").inc();
            return Ok(hit);
        }
        metrics.counter("serve.image_cache.misses").inc();
        let program = parse(source).map_err(|e| (ErrCode::ProgramRejected, e.render(name)))?;
        let mut hint = None;
        if self.cfg.verify {
            let report = verify(&program);
            if let Some(d) = report.first_error() {
                return Err((ErrCode::VerifyRejected, d.render(name)));
            }
            if self.cfg.cost_hints {
                hint = Some(report.effects.service_estimate());
            }
        }
        let admitted = Admissible {
            image: Image::shared(&program),
            hint,
        };
        if self
            .images
            .insert(self.cfg.max_live_sessions, source, &admitted)
        {
            metrics.counter("serve.image_cache.evictions").inc();
        }
        Ok(admitted)
    }

    fn handle_cancel(&mut self, conn: u64, session: u64) {
        let pid = self
            .conns
            .get(&conn)
            .and_then(|c| c.sessions.get(&session))
            .copied();
        match pid {
            Some(pid) => {
                // The DONE{Cancelled} that follows on the next pump is the
                // acknowledgement; there is no separate CANCEL_OK.
                if self.kernel.cancel_process(pid) {
                    self.cancel_requested.insert(pid.0);
                }
            }
            None => self.reply(
                conn,
                &ServerMsg::Error {
                    session,
                    code: ErrCode::NoSuchSession,
                    detail: format!("session {session} is not live on this connection"),
                },
            ),
        }
    }

    // ---- session events ----------------------------------------------------

    fn route_event(&mut self, ev: SessionEvent) {
        match ev {
            SessionEvent::Emitted {
                pid,
                at,
                text,
                tokens,
            } => {
                let Some(&(conn, session)) = self.routes.get(&pid.0) else {
                    return;
                };
                if self.conn_is_closed(conn) {
                    return; // dropped mid-stream; kernel keeps running until cancel lands
                }
                self.reply(
                    conn,
                    &ServerMsg::Stream {
                        session,
                        at_ns: at.as_nanos(),
                        tokens,
                        text,
                    },
                );
                self.check_slow(conn);
            }
            SessionEvent::Exited {
                pid,
                at,
                status,
                usage,
            } => {
                let Some((conn, session)) = self.routes.remove(&pid.0) else {
                    return;
                };
                let tenant = self.conns.get(&conn).map(|c| c.tenant).unwrap_or(0);
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.sessions.remove(&session);
                }
                if let Some(n) = self.live_by_tenant.get_mut(&tenant) {
                    *n = n.saturating_sub(1);
                }
                self.live_total = self.live_total.saturating_sub(1);
                let was_cancelled = self.cancel_requested.remove(&pid.0);
                let (st, detail) = match status {
                    ExitStatus::Ok => (SessionStatus::Ok, String::new()),
                    ExitStatus::Error(SysError::Cancelled) => {
                        (SessionStatus::Cancelled, String::new())
                    }
                    // The interpreter reports the kernel's typed Cancelled
                    // as a tool failure; the server requested the cancel,
                    // so it owns the classification.
                    ExitStatus::Error(_) if was_cancelled => {
                        (SessionStatus::Cancelled, String::new())
                    }
                    ExitStatus::Error(e) => (SessionStatus::Error, e.to_string()),
                    ExitStatus::Crashed => (SessionStatus::Crashed, String::new()),
                };
                self.kernel.emit_event(|| EventKind::SessionEnd {
                    conn,
                    session,
                    pid: pid.0,
                    ok: st == SessionStatus::Ok,
                });
                self.kernel
                    .metrics_registry()
                    .counter("serve.sessions.done")
                    .inc();
                if !self.conn_is_closed(conn) {
                    self.reply(
                        conn,
                        &ServerMsg::Done {
                            session,
                            at_ns: at.as_nanos(),
                            status: st,
                            detail,
                            emitted_tokens: usage.emitted_tokens,
                            pred_tokens: usage.pred_tokens,
                        },
                    );
                    self.check_slow(conn);
                }
            }
        }
    }

    fn finish_closing(&mut self) {
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Closing && c.sessions.is_empty())
            .map(|(&id, _)| id)
            .collect();
        for conn in done {
            self.reply(conn, &ServerMsg::ByeOk);
            self.close(conn, CloseReason::Bye);
        }
    }

    // ---- plumbing ----------------------------------------------------------

    fn conn_is_closed(&self, conn: u64) -> bool {
        self.conns
            .get(&conn)
            .map(|c| matches!(c.state, ConnState::Closed(_)))
            .unwrap_or(true)
    }

    /// Encodes a server message onto the connection's output buffer.
    fn reply(&mut self, conn: u64, msg: &ServerMsg) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        let before = c.out.len();
        msg.encode(&mut c.out);
        let grew = (c.out.len() - before) as u64;
        let reg = self.kernel.metrics_registry();
        reg.counter("serve.frames.out").inc();
        reg.counter("serve.bytes.out").add(grew);
        if matches!(msg, ServerMsg::Error { .. }) {
            reg.counter("serve.errors").inc();
        }
    }

    /// A connection that stopped draining gets one SlowClient error frame
    /// and is torn down; its sessions are cancelled so kernel work stops.
    fn check_slow(&mut self, conn: u64) {
        let cap = match self.conns.get(&conn) {
            Some(c) if !matches!(c.state, ConnState::Closed(_)) => {
                let cap = c.window.unwrap_or(self.cfg.conn_outbuf_cap);
                if c.out.len() <= cap {
                    return;
                }
                cap
            }
            _ => return,
        };
        self.reply(
            conn,
            &ServerMsg::Error {
                session: CONN_SCOPE,
                code: ErrCode::SlowClient,
                detail: format!("output buffer over {cap} bytes"),
            },
        );
        self.close(conn, CloseReason::Slow);
    }

    /// Connection-fatal protocol error: one typed ERROR frame, then close.
    fn fatal(&mut self, conn: u64, code: ErrCode, detail: &str) {
        self.reply(
            conn,
            &ServerMsg::Error {
                session: CONN_SCOPE,
                code,
                detail: detail.to_string(),
            },
        );
        self.close(conn, CloseReason::Error);
    }

    fn close(&mut self, conn: u64, reason: CloseReason) {
        let pids: Vec<Pid> = {
            let Some(c) = self.conns.get_mut(&conn) else {
                return;
            };
            if matches!(c.state, ConnState::Closed(_)) {
                return;
            }
            c.state = ConnState::Closed(reason);
            c.sessions.values().copied().collect()
        };
        for pid in pids {
            // Routes stay until the Exited event lands so accounting
            // (live counts, SessionEnd) flows through route_event.
            if self.kernel.cancel_process(pid) {
                self.cancel_requested.insert(pid.0);
            }
        }
        self.kernel.emit_event(|| EventKind::ConnClose {
            conn,
            reason: reason.as_str(),
        });
        self.kernel
            .metrics_registry()
            .counter("serve.conns.closed")
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use symphony::KernelConfig;
    use symphony_rpc::{ClientMsg, WIRE_VERSION};

    use super::*;

    #[test]
    fn closed_and_drained_connections_are_forgotten() {
        let kernel = Kernel::new(KernelConfig::for_tests());
        let mut core = ServerCore::new(kernel, ServeConfig::default());
        let mut wire = Vec::new();
        ClientMsg::Hello {
            version: WIRE_VERSION,
            tenant: 1,
        }
        .encode(&mut wire);
        ClientMsg::Bye.encode(&mut wire);
        for _ in 0..1000 {
            let conn = core.open_conn();
            core.feed(conn, &wire);
            core.pump();
            // BYE_OK is still queued: the connection stays until the
            // transport has taken it.
            core.reap_exited();
            assert_eq!(core.close_reason(conn), Some(CloseReason::Bye));
            assert!(!core.take_output(conn).is_empty());
            core.reap_exited();
            assert!(core.is_closed(conn));
            assert_eq!(core.pending_output(conn), 0);
        }
        assert!(core.conns.is_empty(), "{} kept", core.conns.len());
    }
}
