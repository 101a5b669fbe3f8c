//! Loopback replay: a deterministic load generator for the front door.
//!
//! Drives a [`ServerCore`] through an in-memory "wire" with a simulated
//! client↔server RTT: a submission sent at client time `t` reaches the
//! server at `t + rtt/2` (encoded as the SUBMIT's `not_before_ns` floor),
//! and a frame the server stamps at virtual `at_ns` is observed by the
//! client at `at_ns + rtt/2`. Everything — arrival jitter, fault
//! placement, program shapes — derives from one seed, so two replays of
//! the same spec produce byte-identical wire traffic and reports. That
//! determinism is load-bearing: the e2e suite and the CI smoke job diff
//! two runs.
//!
//! Programs are rendered from the workload generators in
//! `symphony-workloads`: agent traces become tool-calling LipScript
//! programs, RAG requests become fork-of-shared-prefix programs over the
//! server's preloaded `doc{n}.kv` corpus.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use symphony::{Kernel, KernelConfig, Mode, SimDuration, ToolOutcome, ToolSpec};
use symphony_rpc::{ClientMsg, ErrCode, FrameReader, ServerMsg, SessionStatus, WIRE_VERSION};
use symphony_sim::Rng;
use symphony_workloads::agent::AgentWorkload;
use symphony_workloads::rag::RagWorkload;

use crate::server::{CloseReason, ServeConfig, ServerCore};

/// Number of preloaded shared RAG document prefixes (`doc0.kv` ..).
pub const RAG_DOCS: usize = 4;

/// Which program family a replay submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Tool-calling agents: generate, call a server-side tool, repeat.
    Agent,
    /// RAG over shared document prefixes: fork `doc{n}.kv`, append the
    /// question, generate.
    Rag,
    /// Mixed static cost: three statically-bounded short programs
    /// (`short-*`, finite verifier pred bound) for every unbounded
    /// agent program (`long-*`). The workload that shows what the
    /// scheduler's admission-time cost hints buy.
    MixedCost,
}

/// One replay's shape. All randomness flows from `seed`.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// Program family.
    pub workload: WorkloadKind,
    /// Total submissions.
    pub sessions: usize,
    /// Connections the sessions are spread over (round-robin).
    pub conns: usize,
    /// Distinct tenants (connection `i` authenticates as `i % tenants + 1`).
    pub tenants: u64,
    /// Simulated client↔server round-trip time.
    pub rtt: SimDuration,
    /// Mean client-side gap between submissions (jittered ±50%).
    pub mean_gap: SimDuration,
    /// Seed for jitter and program shapes.
    pub seed: u64,
    /// Sever this many connections (the highest-numbered ones) right
    /// after submission, exercising the conn-drop fault path.
    pub drop_conns: usize,
    /// Collapse the send window of this many connections (the
    /// lowest-numbered ones) to force SlowClient sheds.
    pub slow_conns: usize,
    /// When non-zero, every `hostile_every`-th submission is replaced by
    /// a parseable-but-invalid program (`hostile-*`, rotating through
    /// the verifier's error classes) that the door must shed with
    /// `VerifyRejected` before it costs any interpreter fuel.
    pub hostile_every: usize,
}

impl Default for ReplaySpec {
    fn default() -> Self {
        ReplaySpec {
            workload: WorkloadKind::Agent,
            sessions: 24,
            conns: 4,
            tenants: 2,
            rtt: SimDuration::from_millis(20),
            mean_gap: SimDuration::from_millis(5),
            seed: 1,
            drop_conns: 0,
            slow_conns: 0,
            hostile_every: 0,
        }
    }
}

/// Client-observed outcome of one submitted program.
#[derive(Debug, Clone)]
pub struct ProgramStat {
    /// Session id (1-based, unique across the replay).
    pub session: u64,
    /// Program name the SUBMIT carried (`agent-3`, `short-7`,
    /// `hostile-2`, ...); harnesses segment latency by its prefix.
    pub name: String,
    /// Connection that carried it.
    pub conn: u64,
    /// Tenant it ran under.
    pub tenant: u64,
    /// Client virtual time of the SUBMIT.
    pub submit_ns: u64,
    /// Client-observed time to first streamed byte, if any arrived.
    pub ttft_ns: Option<u64>,
    /// Client-observed end-to-end latency, if a DONE arrived.
    pub latency_ns: Option<u64>,
    /// Streamed chunks observed.
    pub chunks: u64,
    /// Final status from DONE, if one arrived.
    pub status: Option<SessionStatus>,
    /// Tokens emitted per DONE accounting.
    pub emitted_tokens: u64,
    /// Typed refusal, if the submission was shed at the door.
    pub shed: Option<ErrCode>,
}

/// Everything a replay observed, client-side.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-program outcomes, in session order.
    pub programs: Vec<ProgramStat>,
    /// Concatenated streamed text per session (byte-identical across
    /// same-seed runs; the determinism tests diff this).
    pub streamed: BTreeMap<u64, String>,
    /// Close reason per connection.
    pub closes: BTreeMap<u64, Option<CloseReason>>,
    /// Total wire bytes the client received.
    pub wire_bytes: u64,
}

impl ReplayReport {
    fn percentile(values: &mut [u64], p: f64) -> Option<u64> {
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        let idx = ((p / 100.0) * (values.len() - 1) as f64).round() as usize;
        values.get(idx).copied()
    }

    /// Client-observed TTFT percentile in nanoseconds.
    pub fn ttft_p(&self, p: f64) -> Option<u64> {
        let mut v: Vec<u64> = self.programs.iter().filter_map(|s| s.ttft_ns).collect();
        Self::percentile(&mut v, p)
    }

    /// Client-observed per-program latency percentile in nanoseconds.
    pub fn latency_p(&self, p: f64) -> Option<u64> {
        let mut v: Vec<u64> = self.programs.iter().filter_map(|s| s.latency_ns).collect();
        Self::percentile(&mut v, p)
    }

    /// Latency percentile restricted to programs whose name starts with
    /// `prefix` (e.g. `"short-"` in the [`WorkloadKind::MixedCost`]
    /// workload).
    pub fn latency_p_named(&self, prefix: &str, p: f64) -> Option<u64> {
        let mut v: Vec<u64> = self
            .programs
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .filter_map(|s| s.latency_ns)
            .collect();
        Self::percentile(&mut v, p)
    }

    /// Programs that completed with a DONE{Ok}.
    pub fn completed(&self) -> usize {
        self.programs
            .iter()
            .filter(|s| s.status == Some(SessionStatus::Ok))
            .count()
    }

    /// Programs refused at the door, by code.
    pub fn sheds(&self) -> BTreeMap<ErrCode, usize> {
        let mut m = BTreeMap::new();
        for s in &self.programs {
            if let Some(code) = s.shed {
                *m.entry(code).or_insert(0) += 1;
            }
        }
        m
    }

    /// Total streamed tokens observed across all sessions.
    pub fn streamed_tokens(&self) -> u64 {
        self.programs.iter().map(|s| s.emitted_tokens).sum()
    }

    /// Deterministic human-readable summary (the load generator's stdout).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ms = |v: Option<u64>| match v {
            Some(ns) => format!("{:.2} ms", ns as f64 / 1e6),
            None => "n/a".to_string(),
        };
        out.push_str(&format!(
            "programs: {} submitted, {} completed, {} streamed tokens\n",
            self.programs.len(),
            self.completed(),
            self.streamed_tokens(),
        ));
        out.push_str(&format!(
            "client-observed ttft:    p50 {}  p99 {}\n",
            ms(self.ttft_p(50.0)),
            ms(self.ttft_p(99.0)),
        ));
        out.push_str(&format!(
            "client-observed latency: p50 {}  p99 {}\n",
            ms(self.latency_p(50.0)),
            ms(self.latency_p(99.0)),
        ));
        let sheds = self.sheds();
        if sheds.is_empty() {
            out.push_str("sheds: none\n");
        } else {
            for (code, n) in &sheds {
                out.push_str(&format!("sheds: {n} x {code} (code {})\n", code.code()));
            }
        }
        for (conn, reason) in &self.closes {
            out.push_str(&format!(
                "conn {conn}: {}\n",
                reason
                    .map(|r| format!("closed ({r:?})"))
                    .unwrap_or_else(|| "open".into()),
            ));
        }
        out.push_str(&format!("wire: {} bytes received\n", self.wire_bytes));
        out
    }
}

/// The kernel configuration a server boots with: the one preset
/// `symphony-serve`, the loopback replay and `lip_run` hand to
/// [`standard_kernel`].
pub fn serving_config() -> KernelConfig {
    KernelConfig::for_tests()
}

/// Builds a kernel with the standard serving environment: a shared system
/// prompt (`sys_msg.kv`), `RAG_DOCS` shared document prefixes (`doc0.kv`
/// ..) and the `echo`/`time` demo tools. Every program a server runs, and
/// every program `lip_run` runs, sees this environment.
pub fn standard_kernel(cfg: KernelConfig) -> Kernel {
    let mut kernel = Kernel::new(cfg);
    let sys = kernel
        .tokenizer()
        .encode("you are a helpful assistant running as a user program");
    kernel
        .preload_kv("sys_msg.kv", &sys, Mode::SHARED_READ, true)
        // lint:allow(k1): preload into a fresh kernel cannot collide
        .expect("preload system prompt");
    for doc in 0..RAG_DOCS {
        let text = format!(
            "document {doc}: symphony serves programs, not prompts; topic {doc} reference text"
        );
        let toks = kernel.tokenizer().encode(&text);
        kernel
            .preload_kv(&format!("doc{doc}.kv"), &toks, Mode::SHARED_READ, true)
            // lint:allow(k1): doc names are distinct by construction
            .expect("preload corpus doc");
    }
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
    kernel
}

/// Renders a tool-calling agent as LipScript: `calls` rounds of
/// (generate up to `seg` tokens, invoke `echo`, feed the result back).
pub fn agent_source(calls: usize, seg: usize) -> String {
    format!(
        r#"let q = args();
let kv = kv_create();
let toks = tokenize("agent: " + q);
let d = pred(kv, toks, 0)[len(toks) - 1];
let pos = len(toks);
let total = 0;
let i = 0;
while (i < {calls}) {{
    let n = 0;
    while (n < {seg}) {{
        let t = argmax(d);
        if (t == eos()) {{ break; }}
        emit_token(t);
        d = pred(kv, [t], pos)[0];
        pos = pos + 1;
        n = n + 1;
    }}
    total = total + n;
    let r = call_tool("echo", "step " + str(i) + " " + q);
    emit("[tool " + str(i) + ": " + r + "]");
    let rt = tokenize(r);
    d = pred(kv, rt, pos)[len(rt) - 1];
    pos = pos + len(rt);
    i = i + 1;
}}
emit("[agent done: " + str(total) + "]");
kv_remove(kv);
"#
    )
}

/// Renders a RAG request as LipScript: fork the shared `doc{{topic}}.kv`
/// prefix, append the question, generate up to `gen` tokens. The args
/// string carries `topic|question`.
pub fn rag_source(gen: usize) -> String {
    format!(
        r#"let parts = split(args(), "|");
let kv = kv_fork(kv_open("doc" + parts[0] + ".kv"));
let toks = tokenize("q: " + parts[1]);
let d = pred(kv, toks, kv_len(kv))[len(toks) - 1];
let pos = kv_len(kv);
let n = 0;
while (n < {gen}) {{
    let t = argmax(d);
    if (t == eos()) {{ break; }}
    emit_token(t);
    d = pred(kv, [t], pos)[0];
    pos = pos + 1;
    n = n + 1;
}}
emit("[rag done: " + str(n) + "]");
kv_remove(kv);
"#
    )
}

/// Renders a statically-bounded short completion as LipScript: prefill,
/// then exactly `gen` single-token generation steps inside a
/// `for .. in range(..)` loop the verifier can count. Its effect summary
/// carries a finite pred bound (`gen + 1`), so the door's cost hint
/// keeps it at the top of the MLFQ ladder for its whole short life.
pub fn short_source(gen: usize) -> String {
    format!(
        r#"let q = args();
let kv = kv_create();
let toks = tokenize("short: " + q);
let d = pred(kv, toks, 0)[len(toks) - 1];
let pos = len(toks);
let n = 0;
for i in range(0, {gen}) {{
    let t = argmax(d);
    if (t == eos()) {{ break; }}
    emit_token(t);
    d = pred(kv, [t], pos)[0];
    pos = pos + 1;
    n = n + 1;
}}
emit("[short done: " + str(n) + "]");
kv_remove(kv);
"#
    )
}

/// Renders a parseable-but-invalid program: `kind` rotates through the
/// verifier's error classes (undefined variable, undefined function,
/// builtin arity, bad spawn target, definite type misuse, stray
/// control flow). Every one of these parses cleanly — only the static
/// verifier stands between it and an interpreter fault.
pub fn hostile_source(kind: usize) -> String {
    match kind % 6 {
        0 => "let x = missing + 1;\nemit(str(x));\n".to_string(),
        1 => "let r = frobnicate(args());\nemit(r);\n".to_string(),
        2 => "let n = len();\nemit(str(n));\n".to_string(),
        3 => "let t = spawn(\"no_such_fn\", 1);\njoin(t);\n".to_string(),
        4 => "let n = 1 - \"two\";\nemit(str(n));\n".to_string(),
        _ => "break;\n".to_string(),
    }
}

/// One prepared submission.
struct Job {
    session: u64,
    conn_idx: usize,
    submit_ns: u64,
    name: String,
    args: String,
    source: String,
}

fn build_jobs(spec: &ReplaySpec) -> Vec<Job> {
    let mut rng = Rng::new(spec.seed ^ 0x5e7e);
    let mut agent = AgentWorkload::new(&["echo", "time"], 2, 12, 16, spec.rtt, spec.seed);
    let mut rag = RagWorkload::new(RAG_DOCS, 1.2, 50.0, spec.seed);
    let mut t = 0u64;
    (0..spec.sessions)
        .map(|i| {
            let jitter = 0.5 + rng.next_f64();
            t += (spec.mean_gap.as_nanos() as f64 * jitter) as u64;
            let hostile = spec.hostile_every > 0 && (i + 1) % spec.hostile_every == 0;
            let (name, args, source) = if hostile {
                (
                    format!("hostile-{}", i + 1),
                    String::new(),
                    hostile_source(i / spec.hostile_every),
                )
            } else {
                match spec.workload {
                    WorkloadKind::Agent => {
                        let trace = agent.next_trace();
                        let seg = trace
                            .gen_segments
                            .first()
                            .copied()
                            .unwrap_or(8)
                            .clamp(4, 24);
                        (
                            format!("agent-{}", i + 1),
                            format!("task {}", i + 1),
                            agent_source(trace.calls.len().clamp(1, 3), seg),
                        )
                    }
                    WorkloadKind::Rag => {
                        let req = rag.next_request();
                        (
                            format!("rag-{}", i + 1),
                            format!("{}|{}", req.topic % RAG_DOCS, req.query),
                            rag_source(16),
                        )
                    }
                    WorkloadKind::MixedCost => {
                        if (i + 1) % 4 == 0 {
                            let trace = agent.next_trace();
                            let seg = trace
                                .gen_segments
                                .first()
                                .copied()
                                .unwrap_or(8)
                                .clamp(8, 24);
                            (
                                format!("long-{}", i + 1),
                                format!("task {}", i + 1),
                                agent_source(trace.calls.len().clamp(2, 3), seg),
                            )
                        } else {
                            (
                                format!("short-{}", i + 1),
                                format!("q {}", i + 1),
                                short_source(6),
                            )
                        }
                    }
                }
            };
            Job {
                session: (i + 1) as u64,
                conn_idx: i % spec.conns,
                submit_ns: t,
                name,
                args,
                source,
            }
        })
        .collect()
}

/// Runs a replay against a fresh [`ServerCore`] built from `serve_cfg`
/// and the standard kernel environment.
pub fn run_replay(spec: &ReplaySpec, serve_cfg: ServeConfig) -> ReplayReport {
    let core = ServerCore::new(standard_kernel(serving_config()), serve_cfg);
    run_replay_on(spec, core).0
}

/// Runs a replay against an existing core; returns the report and the
/// spent core (kernel trace/metrics/telemetry access for harnesses).
pub fn run_replay_on(spec: &ReplaySpec, mut core: ServerCore) -> (ReplayReport, ServerCore) {
    let half_rtt = spec.rtt.as_nanos() / 2;
    let jobs = build_jobs(spec);

    // Open + HELLO every connection.
    let conn_ids: Vec<u64> = (0..spec.conns).map(|_| core.open_conn()).collect();
    for (i, &conn) in conn_ids.iter().enumerate() {
        let tenant = (i as u64 % spec.tenants) + 1;
        let mut wire = Vec::new();
        ClientMsg::Hello {
            version: WIRE_VERSION,
            tenant,
        }
        .encode(&mut wire);
        core.feed(conn, &wire);
    }

    // Collapse send windows on the first `slow_conns` connections.
    for &conn in conn_ids.iter().take(spec.slow_conns) {
        core.set_conn_window(conn, 256);
    }

    // Feed every submission with its arrival floor; ACCEPTED/ERROR replies
    // appear synchronously, streamed output comes from the pump.
    let mut stats: BTreeMap<u64, ProgramStat> = BTreeMap::new();
    for job in &jobs {
        let conn = conn_ids[job.conn_idx];
        let tenant = (job.conn_idx as u64 % spec.tenants) + 1;
        let mut wire = Vec::new();
        ClientMsg::Submit {
            session: job.session,
            not_before_ns: job.submit_ns + half_rtt,
            fuel: 0,
            name: job.name.clone(),
            args: job.args.clone(),
            source: job.source.clone(),
        }
        .encode(&mut wire);
        core.feed(conn, &wire);
        stats.insert(
            job.session,
            ProgramStat {
                session: job.session,
                name: job.name.clone(),
                conn,
                tenant,
                submit_ns: job.submit_ns,
                ttft_ns: None,
                latency_ns: None,
                chunks: 0,
                status: None,
                emitted_tokens: 0,
                shed: None,
            },
        );
    }

    // Sever the last `drop_conns` connections before the run: their
    // sessions are cancelled server-side and stream nothing. The core
    // forgets a severed connection once they are, so its close reason is
    // read here.
    let mut closes = BTreeMap::new();
    for &conn in conn_ids.iter().rev().take(spec.drop_conns) {
        core.drop_conn(conn);
        closes.insert(conn, core.close_reason(conn));
    }

    core.pump();

    // Polite shutdown on the survivors, then drain the wire client-side.
    for &conn in &conn_ids {
        if !core.is_closed(conn) {
            let mut wire = Vec::new();
            ClientMsg::Bye.encode(&mut wire);
            core.feed(conn, &wire);
        }
    }
    core.pump();

    let mut streamed: BTreeMap<u64, String> = BTreeMap::new();
    let mut wire_bytes = 0u64;
    for &conn in &conn_ids {
        let bytes = core.take_output(conn);
        wire_bytes += bytes.len() as u64;
        // The whole output of the connection, taken once: the frames in it
        // are read where they lie, up to the first that fails its check.
        let _ = FrameReader::new().read(&bytes, |tag, payload| {
            let Ok(msg) = ServerMsg::decode(tag, payload) else {
                return ControlFlow::Continue(());
            };
            match msg {
                ServerMsg::Stream {
                    session,
                    at_ns,
                    tokens: _,
                    text,
                } => {
                    if let Some(s) = stats.get_mut(&session) {
                        let observed = at_ns + half_rtt;
                        s.ttft_ns
                            .get_or_insert(observed.saturating_sub(s.submit_ns));
                        s.chunks += 1;
                        streamed.entry(session).or_default().push_str(&text);
                    }
                }
                ServerMsg::Done {
                    session,
                    at_ns,
                    status,
                    emitted_tokens,
                    ..
                } => {
                    if let Some(s) = stats.get_mut(&session) {
                        s.latency_ns = Some((at_ns + half_rtt).saturating_sub(s.submit_ns));
                        s.status = Some(status);
                        s.emitted_tokens = emitted_tokens;
                    }
                }
                ServerMsg::Error { session, code, .. } => {
                    if let Some(s) = stats.get_mut(&session) {
                        s.shed = Some(code);
                    }
                }
                _ => {}
            }
            ControlFlow::Continue(())
        });
    }

    // Every other connection that closed left a frame saying why (BYE_OK,
    // ERROR), and the core keeps it until the pump after it was taken.
    for &conn in &conn_ids {
        closes
            .entry(conn)
            .or_insert_with(|| core.close_reason(conn));
    }
    let report = ReplayReport {
        programs: stats.into_values().collect(),
        streamed,
        closes,
        wire_bytes,
    };
    (report, core)
}
