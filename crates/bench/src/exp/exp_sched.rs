//! E12 — §4.4 iteration-level scheduling: static vs continuous batching,
//! chunked prefill, and program-aware MLFQ.
//!
//! Four executor configurations on the same substrate:
//!
//! - `static`: run-to-completion batches (the pre-iteration kernel). A
//!   768-token prefill admitted next to a decoder stalls that decoder for
//!   the whole batch — inter-token latency inherits prefill duration.
//! - `continuous`: iteration-level admission and retirement, prefills
//!   still monolithic. Decoders rejoin every iteration, but one long
//!   prefill still pins the iteration length.
//! - `cont+chunked`: prefills split across iterations, each iteration
//!   sized to the roofline ridge (decoders first, prefills share what is
//!   left of 78 tokens on A100/13B) — the iteration length, and therefore
//!   p99 ITL, stays about one weight stream, and a prefill that is
//!   compute-bound either way loses nothing. Its first token queues behind
//!   the decoders instead of stalling them: TTFT is the side that pays.
//! - `program-aware`: chunked, plus a non-clairvoyant MLFQ over *programs*:
//!   queue order favours programs with the least critical-path service, so
//!   fresh arrivals are not stuck behind long-running agents.
//!
//! Two workloads: `agent` (long prompt, several decode+tool rounds — the
//! paper's LIP shape) and `rag` (very long prefill, short answer).
//! Inter-token latency is measured inside the LIP with `ctx.now()` around
//! each decode `pred`, i.e. exactly what a streaming client observes.

use super::{base_config, tokens};
use crate::{ExpArgs, Report, Table, Telemetry};
use serde::Serialize;
use symphony::{
    ContinuousConfig, Ctx, ExecMode, Kernel, MlfqConfig, QueueDiscipline, SimDuration, SimTime,
    SysError, ToolOutcome, ToolSpec,
};
use symphony_sim::{PoissonProcess, Rng, Series};

#[derive(Debug, Clone, Copy)]
struct Scale {
    smoke: bool,
    chunk: usize,
    agents: usize,
    agent_prompt: usize,
    segments: usize,
    segment_decode: usize,
    obs_tokens: usize,
    agent_rate_rps: f64,
    rag_requests: usize,
    rag_prompt: usize,
    rag_decode: usize,
    rag_rate_rps: f64,
    tool_latency: SimDuration,
}

impl Scale {
    fn full() -> Self {
        Scale {
            smoke: false,
            chunk: 256,
            agents: 40,
            agent_prompt: 768,
            segments: 3,
            segment_decode: 24,
            obs_tokens: 16,
            agent_rate_rps: 10.0,
            rag_requests: 24,
            rag_prompt: 1536,
            rag_decode: 48,
            rag_rate_rps: 6.0,
            tool_latency: SimDuration::from_millis(150),
        }
    }

    fn smoke() -> Self {
        Scale {
            smoke: true,
            chunk: 8,
            agents: 5,
            agent_prompt: 48,
            segments: 2,
            segment_decode: 6,
            obs_tokens: 8,
            agent_rate_rps: 200.0,
            rag_requests: 4,
            rag_prompt: 64,
            rag_decode: 6,
            rag_rate_rps: 100.0,
            tool_latency: SimDuration::from_millis(5),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Agent,
    Rag,
}

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    workload: String,
    p50_itl_ms: f64,
    p99_itl_ms: f64,
    mean_ttft_ms: f64,
    throughput_tok_s: f64,
    preemptions: u64,
    prefill_chunks: u64,
    batches: u64,
}

fn join_ns(v: &[u64]) -> String {
    v.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// The agent LIP: one long prompt prefill, then `segments` rounds of
/// decode followed by a server-side tool call whose observation is
/// prefilled into the context. Emits its own latency marks.
fn agent_lip(ctx: &mut Ctx, seed: usize, s: Scale) -> Result<(), SysError> {
    let t_start = ctx.now()?;
    let kv = ctx.kv_create()?;
    let prompt = tokens(seed, s.agent_prompt, 0);
    let mut dist = ctx.pred(kv, &prompt)?.pop().ok_or(SysError::BadArgument)?;
    let ttft = ctx.now()?.duration_since(t_start);
    let mut pos = s.agent_prompt as u32;
    let mut itl: Vec<u64> = Vec::new();
    for seg in 0..s.segments {
        let mut last = ctx.now()?;
        for _ in 0..s.segment_decode {
            let tok = dist.argmax();
            dist = ctx.pred(kv, &[(tok, pos)])?.remove(0);
            pos += 1;
            let t = ctx.now()?;
            itl.push(t.duration_since(last).as_nanos());
            last = t;
        }
        if seg + 1 < s.segments {
            ctx.call_tool("api", "lookup")?;
            let obs = tokens(seed + seg + 1, s.obs_tokens, pos);
            dist = ctx.pred(kv, &obs)?.pop().ok_or(SysError::BadArgument)?;
            pos += s.obs_tokens as u32;
        }
    }
    ctx.emit(&format!(
        "ttft_ns={};itl_ns={}",
        ttft.as_nanos(),
        join_ns(&itl)
    ))?;
    Ok(())
}

/// The RAG LIP: one very long prefill (retrieved documents), one short
/// streamed answer.
fn rag_lip(ctx: &mut Ctx, seed: usize, s: Scale) -> Result<(), SysError> {
    let t_start = ctx.now()?;
    let kv = ctx.kv_create()?;
    let prompt = tokens(seed, s.rag_prompt, 0);
    let mut dist = ctx.pred(kv, &prompt)?.pop().ok_or(SysError::BadArgument)?;
    let ttft = ctx.now()?.duration_since(t_start);
    let mut itl: Vec<u64> = Vec::new();
    let mut last = ctx.now()?;
    for pos in (s.rag_prompt as u32..).take(s.rag_decode) {
        let tok = dist.argmax();
        dist = ctx.pred(kv, &[(tok, pos)])?.remove(0);
        let t = ctx.now()?;
        itl.push(t.duration_since(last).as_nanos());
        last = t;
    }
    ctx.emit(&format!(
        "ttft_ns={};itl_ns={}",
        ttft.as_nanos(),
        join_ns(&itl)
    ))?;
    Ok(())
}

/// Parses the `ttft_ns=..;itl_ns=..` marks a LIP emitted.
fn parse_marks(out: &str) -> (u64, Vec<u64>) {
    let rest = out.strip_prefix("ttft_ns=").expect("marks prefix");
    let (ttft, itl) = rest.split_once(";itl_ns=").expect("marks separator");
    let itl = itl
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.parse().expect("itl mark"))
        .collect();
    (ttft.parse().expect("ttft mark"), itl)
}

fn run_point(
    mode_name: &str,
    exec: ExecMode,
    batch_cap: Option<usize>,
    workload: Workload,
    s: Scale,
    telemetry: &ExpArgs,
    designated: bool,
) -> (Point, Option<Telemetry>) {
    let mut cfg = base_config(s.smoke);
    cfg.exec = exec;
    if let Some(cap) = batch_cap {
        cfg.max_batch = cap;
    }
    cfg.telemetry = telemetry.record(designated);
    let mut kernel = Kernel::new(cfg);
    kernel.register_tool(
        "api",
        ToolSpec::fixed(s.tool_latency, |_| ToolOutcome::Ok("observation".into())),
    );

    let (n, rate) = match workload {
        Workload::Agent => (s.agents, s.agent_rate_rps),
        Workload::Rag => (s.rag_requests, s.rag_rate_rps),
    };
    let mut rng = Rng::new(0xE12);
    let arrivals = PoissonProcess::new(rate);
    let mut at = SimTime::ZERO;
    let mut pids = Vec::new();
    for i in 0..n {
        at += arrivals.next_gap(&mut rng);
        let name = format!("{mode_name}-{i}");
        pids.push(match workload {
            Workload::Agent => {
                kernel.schedule_process(at, &name, "", move |ctx| agent_lip(ctx, i, s))
            }
            Workload::Rag => kernel.schedule_process(at, &name, "", move |ctx| rag_lip(ctx, i, s)),
        });
    }
    kernel.run();

    let mut itl = Series::new();
    let mut ttft = Series::new();
    let mut makespan = SimTime::ZERO;
    for &pid in &pids {
        let rec = kernel.record(pid).expect("record");
        assert!(rec.status.is_ok(), "{mode_name}: {:?}", rec.status);
        makespan = makespan.max(rec.exited_at.expect("completed"));
        let (t, marks) = parse_marks(&rec.output);
        ttft.add(t as f64 / 1e6);
        for m in marks {
            itl.add(m as f64 / 1e6);
        }
    }
    let gm = kernel.gpu_metrics();
    let span = makespan.as_secs_f64().max(1e-9);
    let snap = telemetry.capture(&kernel, designated);
    // One sort for both ITL quantiles.
    let itl_q = itl.percentiles(&[0.50, 0.99]);
    let point = Point {
        mode: mode_name.to_string(),
        workload: match workload {
            Workload::Agent => "agent".to_string(),
            Workload::Rag => "rag".to_string(),
        },
        p50_itl_ms: itl_q[0].unwrap_or(0.0),
        p99_itl_ms: itl_q[1].unwrap_or(0.0),
        mean_ttft_ms: ttft.mean(),
        throughput_tok_s: gm.tokens as f64 / span,
        preemptions: kernel.preemptions(),
        prefill_chunks: kernel.prefill_chunks(),
        batches: gm.batches,
    };
    (point, snap)
}

pub(super) fn run(opts: &ExpArgs) -> Report {
    let smoke = opts.smoke;
    let s = if smoke { Scale::smoke() } else { Scale::full() };

    let chunked_fifo = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(s.chunk),
        discipline: QueueDiscipline::Fifo,
    });
    let chunked_mlfq = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(s.chunk),
        discipline: QueueDiscipline::Mlfq(MlfqConfig::default()),
    });
    // With enough admission slots for everyone the wait queue never forms
    // and the queue discipline is moot; the `-b8` points cap the slots so
    // FIFO and the program-aware MLFQ actually order a contended queue.
    let cap = if s.smoke { 2 } else { 8 };
    let modes: Vec<(&str, ExecMode, Option<usize>)> = vec![
        // The base configuration's own preset: `Static` with its policy.
        ("static", base_config(s.smoke).exec, None),
        (
            "continuous",
            ExecMode::Continuous(ContinuousConfig {
                chunk_tokens: None,
                discipline: QueueDiscipline::Fifo,
            }),
            None,
        ),
        ("cont+chunked", chunked_fifo, None),
        ("program-aware", chunked_mlfq, None),
        ("cont+chunked-b8", chunked_fifo, Some(cap)),
        ("program-aware-b8", chunked_mlfq, Some(cap)),
    ];

    let mut results = Vec::new();
    let mut captured: Option<Telemetry> = None;
    let mut table = Table::new(
        "E12 — iteration-level scheduling: executor ablation under load",
        &[
            "workload", "mode", "p50 itl", "p99 itl", "ttft", "tok/s", "chunks", "preempt",
        ],
    );
    for workload in [Workload::Agent, Workload::Rag] {
        for &(name, exec, cap) in &modes {
            let wname = if workload == Workload::Agent {
                "agent"
            } else {
                "rag"
            };
            eprintln!("E12: {wname} / {name} ...");
            // The designated telemetry run: program-aware on the agent
            // workload (the configuration the tentpole exists for).
            let designated = name == "program-aware" && workload == Workload::Agent;
            let (p, snap) = run_point(name, exec, cap, workload, s, opts, designated);
            if let Some(sn) = snap {
                captured = Some(sn);
            }
            table.row(vec![
                p.workload.clone(),
                p.mode.clone(),
                format!("{:.1}ms", p.p50_itl_ms),
                format!("{:.1}ms", p.p99_itl_ms),
                format!("{:.0}ms", p.mean_ttft_ms),
                format!("{:.0}", p.throughput_tok_s),
                format!("{}", p.prefill_chunks),
                format!("{}", p.preemptions),
            ]);
            results.push(p);
        }
    }
    table.print();

    // Acceptance shape (§4.4): chunked continuous batching strictly
    // improves tail inter-token latency on the agent workload without
    // giving up more than 5% throughput.
    let find = |mode: &str, wl: &str| {
        results
            .iter()
            .find(|p| p.mode == mode && p.workload == wl)
            .expect("point")
    };
    let st = find("static", "agent");
    let ck = find("cont+chunked", "agent");
    let fifo8 = find("cont+chunked-b8", "agent");
    let mlfq8 = find("program-aware-b8", "agent");
    println!(
        "\nShape check (agent): p99 ITL static {:.1} ms vs chunked {:.1} ms; \
         tok/s static {:.0} vs chunked {:.0}",
        st.p99_itl_ms, ck.p99_itl_ms, st.throughput_tok_s, ck.throughput_tok_s
    );
    println!(
        "Queue contention (agent, capped slots): FIFO ttft {:.0} ms / p99 itl {:.1} ms \
         vs MLFQ ttft {:.0} ms / p99 itl {:.1} ms",
        fifo8.mean_ttft_ms, fifo8.p99_itl_ms, mlfq8.mean_ttft_ms, mlfq8.p99_itl_ms
    );
    if !smoke {
        assert!(
            ck.p99_itl_ms < st.p99_itl_ms,
            "chunked prefill must improve p99 inter-token latency"
        );
        assert!(
            ck.throughput_tok_s >= 0.95 * st.throughput_tok_s,
            "chunking tax must stay under 5% of static throughput"
        );
    }
    println!(
        "Chunked iterations are sized to the roofline ridge: decoders first, prefills\n\
         share the tokens whose compute one weight stream still hides, so a decoder\n\
         waits about one stream per token whatever prefills run beside it. MLFQ\n\
         additionally orders the wait queue by accumulated critical-path service,\n\
         favouring fresh programs."
    );
    Report::new(&results).with_telemetry(captured)
}
