//! E15 — per-program observability: causal tracing, critical-path phase
//! attribution, and why per-pred metrics mislead.
//!
//! Every run records causal telemetry (`KernelConfig::causal`): spawn,
//! IPC send→recv, join, tool and scheduler-dispatch edges tie each span to
//! the one that caused it, so the event stream reconstructs into one span
//! DAG per root program. The critical-path walk then attributes each
//! program's end-to-end latency into exclusive phase buckets (queue-wait,
//! prefill, decode, KV swap-in/out, tool, ipc-blocked, recovery-replay,
//! other) that sum exactly to its wall-clock.
//!
//! Two workloads:
//!
//! - `fleet`: a coordinator plus worker agents. Workers prefill a plan,
//!   fetch evidence on a helper thread (spawn/join edges), decode, and
//!   report to the coordinator over IPC (send→recv edges across
//!   processes). The coordinator folds each report in and decodes a
//!   summary — its critical path runs *through* the workers.
//! - `rag`: long retrieval prefill, KV swapped out across a rerank tool
//!   call and swapped back in for the answer decode.
//!
//! All three programs are LipScript
//! (`examples/lipscript/with_prelude/profile.lip`).
//!
//! The headline: under contended admission, per-pred p99 and per-program
//! p99 can crown *different* scheduler configs — request-level metrics
//! optimise the syscall, program-level metrics optimise what the client
//! actually waits for. The experiment prints both rankings side by side.
//!
//! `--trace` exports the designated run's Perfetto trace *with flow
//! arrows*; its collapsed-stack flamegraph input is always written to
//! `exp_profile.folded` beside the report.

use super::base_config;
use crate::report::write_file;
use crate::{lip, ExpArgs, Report, Table, Telemetry};
use serde::Serialize;
use symphony::{
    analyze, build_forest, collapsed_stacks, render_report, ContinuousConfig, ExecMode, Kernel,
    MlfqConfig, QueueDiscipline, SimDuration, SimTime, SpawnOpts, ToolOutcome, ToolSpec, PHASES,
};
use symphony_sim::{PoissonProcess, Rng, Series};

/// The coordinator, its workers and the RAG request, after the synthetic
/// token streams they prefill.
const PROGRAM: &str = concat!(
    include_str!("../../../../examples/lipscript/with_prelude/synthetic.lip"),
    include_str!("../../../../examples/lipscript/with_prelude/profile.lip")
);

#[derive(Debug, Clone, Copy)]
struct Scale {
    smoke: bool,
    chunk: usize,
    batch_cap: usize,
    workers: usize,
    worker_prompt: usize,
    worker_decode: usize,
    coord_prompt: usize,
    coord_decode: usize,
    obs_tokens: usize,
    fleet_rate_rps: f64,
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
            batch_cap: 8,
            workers: 24,
            worker_prompt: 512,
            worker_decode: 24,
            coord_prompt: 256,
            coord_decode: 32,
            obs_tokens: 16,
            fleet_rate_rps: 12.0,
            rag_requests: 16,
            rag_prompt: 1536,
            rag_decode: 32,
            rag_rate_rps: 6.0,
            tool_latency: SimDuration::from_millis(120),
        }
    }

    fn smoke() -> Self {
        Scale {
            smoke: true,
            chunk: 8,
            batch_cap: 2,
            workers: 4,
            worker_prompt: 32,
            worker_decode: 4,
            coord_prompt: 16,
            coord_decode: 6,
            obs_tokens: 4,
            fleet_rate_rps: 200.0,
            rag_requests: 3,
            rag_prompt: 48,
            rag_decode: 4,
            rag_rate_rps: 100.0,
            tool_latency: SimDuration::from_millis(5),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fleet,
    Rag,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Rag => "rag",
        }
    }
}

#[derive(Debug, Clone, Serialize)]
struct Point {
    workload: String,
    mode: String,
    programs: usize,
    /// Per-program end-to-end latency quantiles (spawn → exit).
    prog_p50_ms: f64,
    prog_p99_ms: f64,
    /// Per-`pred`-syscall latency quantiles (enter → exit, queue included).
    pred_p50_ms: f64,
    pred_p99_ms: f64,
    /// Total ns per phase bucket summed across programs, `PHASES` order.
    phase_ns: Vec<(String, u64)>,
    /// Minimum attributed fraction across programs (1.0 by construction;
    /// CI gates on >= 0.95).
    min_coverage: f64,
    spans: usize,
}

struct RunOutput {
    point: Point,
    /// Per-program breakdowns (critical-path report / flamegraph input).
    breakdowns: Vec<symphony::LatencyBreakdown>,
    /// What the flags asked of the designated run (`ExpArgs::capture`).
    telemetry: Option<Telemetry>,
}

fn run_point(
    mode_name: &str,
    exec: ExecMode,
    batch_cap: Option<usize>,
    workload: Workload,
    s: Scale,
    args: &ExpArgs,
    designated: bool,
) -> RunOutput {
    let mut cfg = base_config(s.smoke);
    cfg.exec = exec;
    if let Some(cap) = batch_cap {
        cfg.max_batch = cap;
    }
    // Observability is the experiment: every run records causal telemetry.
    // Recording never changes results — the bus only observes.
    cfg.telemetry = true;
    cfg.causal = true;
    let mut kernel = Kernel::new(cfg);
    kernel.register_tool(
        "search",
        ToolSpec::fixed(s.tool_latency, |args| {
            ToolOutcome::Ok(format!("hits for {args}"))
        }),
    );
    kernel.register_tool(
        "rerank",
        ToolSpec::fixed(s.tool_latency, |args| {
            ToolOutcome::Ok(format!("ranked {args}"))
        }),
    );

    let mut rng = Rng::new(0xE15);
    let mut at = SimTime::ZERO;
    match workload {
        Workload::Fleet => {
            // The coordinator arrives first so workers can look it up.
            let args = format!(
                "coordinator {} {} {} {}",
                s.workers, s.coord_prompt, s.obs_tokens, s.coord_decode
            );
            let body = lip::program(PROGRAM);
            kernel.admit("coordinator", &args, SpawnOpts::default(), body);
            let arrivals = PoissonProcess::new(s.fleet_rate_rps);
            for i in 0..s.workers {
                at += arrivals.next_gap(&mut rng);
                let args = format!("worker {i} {} {}", s.worker_prompt, s.worker_decode);
                let body = lip::program(PROGRAM);
                kernel.admit(&format!("worker{i}"), &args, SpawnOpts::at(at), body);
            }
        }
        Workload::Rag => {
            let arrivals = PoissonProcess::new(s.rag_rate_rps);
            for i in 0..s.rag_requests {
                at += arrivals.next_gap(&mut rng);
                let args = format!("rag {i} {} {}", s.rag_prompt, s.rag_decode);
                let body = lip::program(PROGRAM);
                kernel.admit(&format!("rag{i}"), &args, SpawnOpts::at(at), body);
            }
        }
    }
    kernel.run();
    for rec in kernel.records() {
        assert!(
            rec.status.is_ok(),
            "{mode_name}/{}: {:?}",
            rec.name,
            rec.status
        );
    }
    // Reconstruct the span DAG and attribute every program's wall-clock.
    let forest = build_forest(kernel.telemetry_events());
    let breakdowns = analyze(&forest);
    assert_eq!(breakdowns.len(), forest.programs.len());
    let mut prog = Series::new();
    let mut phase_totals = [0u64; PHASES.len()];
    let mut min_coverage = f64::INFINITY;
    for b in &breakdowns {
        prog.add(b.total_ns as f64 / 1e6);
        for (i, phase) in PHASES.iter().enumerate() {
            phase_totals[i] += b.get(*phase);
        }
        min_coverage = min_coverage.min(b.coverage());
        // Acceptance: buckets partition e2e latency (within 1%; exact by
        // construction here).
        let diff = b.attributed_ns().abs_diff(b.total_ns);
        assert!(
            diff * 100 <= b.total_ns.max(1),
            "{mode_name}/{}: phases sum {} vs e2e {}",
            b.name,
            b.attributed_ns(),
            b.total_ns
        );
    }
    let mut pred = Series::new();
    for p in &forest.programs {
        for t in &p.threads {
            for sp in &t.spans {
                if sp.name == "pred" {
                    pred.add((sp.end.as_nanos() - sp.start.as_nanos()) as f64 / 1e6);
                }
            }
        }
    }
    let prog_q = prog.percentiles(&[0.50, 0.99]);
    let pred_q = pred.percentiles(&[0.50, 0.99]);
    let point = Point {
        workload: workload.name().to_string(),
        mode: mode_name.to_string(),
        programs: forest.programs.len(),
        prog_p50_ms: prog_q[0].unwrap_or(0.0),
        prog_p99_ms: prog_q[1].unwrap_or(0.0),
        pred_p50_ms: pred_q[0].unwrap_or(0.0),
        pred_p99_ms: pred_q[1].unwrap_or(0.0),
        phase_ns: PHASES
            .iter()
            .enumerate()
            .map(|(i, p)| (p.label().to_string(), phase_totals[i]))
            .collect(),
        min_coverage,
        spans: forest.span_count(),
    };
    RunOutput {
        point,
        breakdowns,
        telemetry: args.capture(&kernel, designated),
    }
}

pub(super) fn run(args: &ExpArgs) -> Report {
    let smoke = args.smoke;
    let s = if smoke { Scale::smoke() } else { Scale::full() };

    let chunked_fifo = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(s.chunk),
        discipline: QueueDiscipline::Fifo,
    });
    let chunked_mlfq = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(s.chunk),
        discipline: QueueDiscipline::Mlfq(MlfqConfig::default()),
    });
    // Capped admission slots so the queue discipline has a queue to order.
    let modes: Vec<(&str, ExecMode, Option<usize>)> = vec![
        (
            "continuous",
            ExecMode::Continuous(ContinuousConfig {
                chunk_tokens: None,
                discipline: QueueDiscipline::Fifo,
            }),
            Some(s.batch_cap),
        ),
        ("cont+chunked", chunked_fifo, Some(s.batch_cap)),
        ("program-aware", chunked_mlfq, Some(s.batch_cap)),
    ];

    let mut results: Vec<Point> = Vec::new();
    let mut captured: Option<Telemetry> = None;
    let mut table = Table::new(
        "E15 — per-program observability: critical-path phase attribution",
        &[
            "workload",
            "mode",
            "progs",
            "prog p50",
            "prog p99",
            "pred p50",
            "pred p99",
            "top phase",
            "coverage",
        ],
    );
    for workload in [Workload::Fleet, Workload::Rag] {
        for &(name, exec, cap) in &modes {
            eprintln!("E15: {} / {name} ...", workload.name());
            // The designated run: program-aware on the fleet — the shape
            // the causal layer exists for (IPC + spawn edges).
            let designated = name == "program-aware" && workload == Workload::Fleet;
            let out = run_point(name, exec, cap, workload, s, args, designated);
            if designated {
                write_file(
                    &args.out_dir().join("exp_profile.folded"),
                    &collapsed_stacks(&out.breakdowns),
                );
                if smoke {
                    // The byte-stable report for tiny runs (golden-sized).
                    eprintln!("{}", render_report(&out.breakdowns));
                }
                captured = out.telemetry;
            }
            let p = out.point;
            let top = p
                .phase_ns
                .iter()
                .max_by_key(|(_, ns)| *ns)
                .map(|(l, _)| l.clone())
                .unwrap_or_default();
            table.row(vec![
                p.workload.clone(),
                p.mode.clone(),
                p.programs.to_string(),
                format!("{:.1}ms", p.prog_p50_ms),
                format!("{:.1}ms", p.prog_p99_ms),
                format!("{:.2}ms", p.pred_p50_ms),
                format!("{:.2}ms", p.pred_p99_ms),
                top,
                format!("{:.0}%", p.min_coverage * 100.0),
            ]);
            results.push(p);
        }
    }
    table.print();

    // Aggregate phase mix for the fleet workload, per mode: where the
    // programs' wall-clock actually went.
    println!("\nPhase mix (fleet, % of attributed ns):");
    for p in results.iter().filter(|p| p.workload == "fleet") {
        let total: u64 = p.phase_ns.iter().map(|(_, ns)| ns).sum();
        let mix: Vec<String> = p
            .phase_ns
            .iter()
            .filter(|(_, ns)| *ns > 0)
            .map(|(l, ns)| format!("{l} {}%", (ns * 100) / total.max(1)))
            .collect();
        println!("  {:<14} {}", p.mode, mix.join("  "));
    }

    // The headline: which config is "best" depends on the metric's unit
    // of account. Rank by per-pred p99 (request-level view) and by
    // per-program p99 (what the client waits for) side by side.
    for workload in ["fleet", "rag"] {
        let mut by_pred: Vec<&Point> = results.iter().filter(|p| p.workload == workload).collect();
        let mut by_prog = by_pred.clone();
        by_pred.sort_by(|a, b| a.pred_p99_ms.total_cmp(&b.pred_p99_ms));
        by_prog.sort_by(|a, b| a.prog_p99_ms.total_cmp(&b.prog_p99_ms));
        println!(
            "\nRanking ({workload}): per-pred p99 says {:?}; per-program p99 says {:?}",
            by_pred.iter().map(|p| p.mode.as_str()).collect::<Vec<_>>(),
            by_prog.iter().map(|p| p.mode.as_str()).collect::<Vec<_>>(),
        );
        if by_pred[0].mode != by_prog[0].mode {
            println!(
                "  -> they disagree: {} optimises the syscall, {} optimises the program.",
                by_pred[0].mode, by_prog[0].mode
            );
        }
    }

    // Every program's critical path must cover (at least) 95% of its
    // wall-clock; the walk partitions exactly, so this is a regression
    // tripwire rather than a tolerance.
    for p in &results {
        assert!(
            p.min_coverage >= 0.95,
            "{}/{}: critical path covers only {:.1}% of wall-clock",
            p.workload,
            p.mode,
            p.min_coverage * 100.0
        );
    }
    println!(
        "\nShape check: every program's phase buckets partition its e2e latency\n\
         (coverage 100%), and the two tails rank scheduler configs by different\n\
         units of account — the program-level view is the one a client feels."
    );
    Report::new(&results).with_telemetry(captured)
}
