//! E14 — crash-tolerant serving: goodput under injected kernel crashes.
//!
//! A durable agent fleet runs against a kernel whose effectful syscalls are
//! journalled to the WAL (tool calls, IPC, clock reads) and whose pred
//! results buffer until the next checkpoint. We sweep the checkpoint
//! interval against a per-syscall-boundary crash rate: each crash kills the
//! kernel at a boundary drawn from a geometric schedule, `Kernel::recover`
//! replays checkpoint + WAL, and every in-flight LIP re-executes from its
//! last durable boundary with journalled effects replayed (tools fire
//! exactly once) and only post-checkpoint pred work re-paid on the GPU.
//!
//! Reported per point: restarts, replayed frames, wasted GPU tokens
//! (re-executed preds the crash threw away), recovery wall latency, and
//! goodput (completions per virtual second) against the crash-free
//! baseline at the same checkpoint interval. The headline: at the default
//! interval, serving under a non-trivial crash rate retains ≥90% of
//! crash-free goodput — recovery re-pays only the unflushed tail, not the
//! whole fleet.

use std::sync::Arc;

use crate::{ExpArgs, Report, Table};
use serde::Serialize;
use symphony::sampling::{self, GenOpts};
use symphony::{
    wal, Kernel, KernelConfig, ProgramImage, SimDuration, SimTime, ToolOutcome, ToolSpec,
    WalConfig, DEFAULT_CHECKPOINT_EVERY,
};
use symphony_sim::Rng;

/// Restart cap per sweep point — a backstop, not an expected ceiling.
const MAX_RESTARTS: u64 = 50;

#[derive(Debug, Clone, Serialize)]
struct Point {
    checkpoint_ms: f64,
    /// Mean syscall boundaries between injected crashes (0 = crash-free).
    crash_every: u64,
    completed: usize,
    failed: usize,
    restarts: u64,
    replayed_frames: u64,
    /// GPU tokens re-paid across all attempts beyond the crash-free cost.
    wasted_tokens: u64,
    /// Wall-clock spent in `recover` + `resume_programs`, summed.
    recovery_ms: f64,
    wal_bytes: u64,
    /// Per-tag WAL frame counts (journal-growth observability), reported
    /// for every point — clean runs and post-recovery alike.
    wal_frames: Vec<(String, u64)>,
    /// Size of the KV store's journal snapshot at point end, taken via
    /// `KvStore::journal_bytes` (which also publishes the
    /// `kvfs.journal_bytes` gauge into the kernel's metrics registry).
    kv_journal_bytes: u64,
    checkpoints: u64,
    /// Completions per virtual second.
    goodput: f64,
    /// This point's goodput over the crash-free goodput at the same
    /// checkpoint interval.
    goodput_ratio: f64,
    /// GPU tokens across every attempt (baseline for the wasted-work delta).
    total_tokens: u64,
    /// False when the point hit the restart cap still crashing — the
    /// crash rate outruns durable progress at this checkpoint interval
    /// (the stability frontier). Reported, not asserted.
    finished: bool,
}

struct Scale {
    agents: usize,
    max_tokens: usize,
    arrival_gap: SimDuration,
    intervals: Vec<SimDuration>,
    crash_everys: Vec<u64>,
}

impl Scale {
    fn new(smoke: bool) -> Self {
        if smoke {
            Scale {
                agents: 10,
                max_tokens: 8,
                arrival_gap: SimDuration::from_millis(3),
                intervals: vec![DEFAULT_CHECKPOINT_EVERY, SimDuration::from_millis(25)],
                crash_everys: vec![0, 400],
            }
        } else {
            Scale {
                agents: 48,
                max_tokens: 24,
                arrival_gap: SimDuration::from_millis(5),
                intervals: vec![
                    SimDuration::from_millis(1),
                    DEFAULT_CHECKPOINT_EVERY,
                    SimDuration::from_millis(25),
                    SimDuration::from_millis(100),
                ],
                crash_everys: vec![0, 1500, 400],
            }
        }
    }
}

/// One fleet agent: decode a short plan, consult the (deterministic,
/// journalled) tool, decode a follow-up, report. Everything after the last
/// checkpoint is what a crash costs.
fn agent_image(max_tokens: usize) -> ProgramImage {
    Arc::new(move |ctx| {
        let args = ctx.args();
        let prompt = ctx.tokenize(&format!("plan the task {args} step by step"))?;
        let kv = ctx.kv_create()?;
        let opts = GenOpts {
            max_tokens,
            temperature: 0.0,
            ..Default::default()
        };
        sampling::generate(ctx, kv, &prompt, &opts)?;
        let doc = ctx.call_tool("web", &args)?;
        let follow = ctx.tokenize(&doc)?;
        let done = sampling::generate(ctx, kv, &follow, &opts)?;
        ctx.emit(&format!("{args}:{}", done.tokens.len()))?;
        ctx.kv_remove(kv)?;
        Ok(())
    })
}

fn register_tools(k: &mut Kernel) {
    k.register_tool(
        "web",
        ToolSpec::fixed(SimDuration::from_millis(8), |args| {
            ToolOutcome::Ok(format!("findings for {args}: relevant background"))
        }),
    );
}

fn make_config(
    wal_path: &std::path::Path,
    every: SimDuration,
    crash_at: Option<u64>,
) -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(wal_path).with_checkpoint_every(every));
    cfg.faults.crash_at_boundary = crash_at;
    cfg
}

fn spawn_fleet(k: &mut Kernel, scale: &Scale) {
    let image = agent_image(scale.max_tokens);
    for i in 0..scale.agents {
        let at = SimTime::ZERO + scale.arrival_gap * i as u64;
        k.schedule_durable(at, &format!("agent{i}"), &format!("{i}"), image.clone());
    }
}

/// Geometric inter-crash gap in syscall boundaries, mean `every`.
fn draw_gap(rng: &mut Rng, every: u64) -> u64 {
    let u = rng.next_f64_open();
    ((-u.ln()) * every as f64).ceil().max(1.0) as u64
}

fn gpu_tokens(k: &Kernel) -> u64 {
    k.metrics_registry()
        .counter_value("gpu.tokens")
        .unwrap_or(0)
}

/// Runs one sweep point to fleet completion, restarting through every
/// injected crash.
fn run_point(scale: &Scale, every: SimDuration, crash_every: u64, tag: &str) -> Point {
    let wal_path =
        std::env::temp_dir().join(format!("symphony-e14-{}-{tag}.wal", std::process::id()));
    let max_tokens = scale.max_tokens;
    let resolver = move |name: &str| name.starts_with("agent").then(|| agent_image(max_tokens));
    // The crash schedule is bench-side and deterministic: re-seeding the
    // kernel's own fault stream after recovery would re-kill the identical
    // boundary forever (re-execution repeats the boundary sequence).
    let mut crash_rng = Rng::new(0xE14 ^ (crash_every << 8) ^ every.as_nanos());

    let mut crash_at = (crash_every > 0).then(|| draw_gap(&mut crash_rng, crash_every));
    let mut kernel = Kernel::new(make_config(&wal_path, every, crash_at));
    register_tools(&mut kernel);
    spawn_fleet(&mut kernel, scale);
    kernel.run();

    let mut total_tokens = gpu_tokens(&kernel);
    let mut restarts = 0u64;
    let mut replayed = 0u64;
    let mut recovery_ms = 0.0f64;
    while kernel.crashed().is_some() && restarts < MAX_RESTARTS {
        restarts += 1;
        crash_at = (crash_every > 0).then(|| draw_gap(&mut crash_rng, crash_every));
        let wall = std::time::Instant::now();
        let (mut next, _report) =
            Kernel::recover(make_config(&wal_path, every, crash_at)).expect("recoverable WAL");
        register_tools(&mut next);
        let resumed = next.resume_programs(resolver);
        recovery_ms += wall.elapsed().as_secs_f64() * 1e3;
        assert_eq!(resumed.lost, 0, "every agent image resolves");
        replayed += next.replayed_frames();
        next.run();
        total_tokens += gpu_tokens(&next);
        kernel = next;
    }
    let finished = kernel.crashed().is_none();

    let completed = kernel.records().filter(|r| r.status.is_ok()).count();
    let failed = kernel
        .records()
        .filter(|r| r.exited_at.is_some() && !r.status.is_ok())
        .count();
    let end = kernel
        .records()
        .filter_map(|r| r.exited_at)
        .max()
        .unwrap_or(kernel.now());
    let goodput = completed as f64 / end.as_nanos().max(1) as f64 * 1e9;
    let wal_bytes = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    let checkpoints = kernel
        .metrics_registry()
        .counter_value("kernel.checkpoints")
        .unwrap_or(0);

    // Per-tag WAL composition: the journal-growth observability hook.
    // Computed for every point — the final kernel is the recovered one
    // when crashes were injected, so this reflects post-recovery growth
    // too, not just clean runs.
    let wal_frames: Vec<(String, u64)> = std::fs::read(&wal_path)
        .ok()
        .and_then(|bytes| wal::frame_counts(&bytes).ok())
        .map(|counts| {
            counts
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        })
        .unwrap_or_default();
    // Snapshot the KV store's journal: sizes the in-memory store and sets
    // the `kvfs.journal_bytes` gauge so the registry reports it after
    // `Kernel::recover` (re-execution rebuilds the store without touching
    // the gauge) as well as on clean runs.
    kernel.store().journal_bytes();
    let kv_journal_bytes = kernel.metrics_registry().gauge("kvfs.journal_bytes").get() as u64;
    std::fs::remove_file(&wal_path).ok();

    Point {
        checkpoint_ms: every.as_millis_f64(),
        crash_every,
        completed,
        failed,
        restarts,
        replayed_frames: replayed,
        wasted_tokens: 0, // filled in by the caller against the baseline
        recovery_ms,
        wal_bytes,
        wal_frames,
        kv_journal_bytes,
        checkpoints,
        goodput,
        goodput_ratio: 0.0, // filled in by the caller
        total_tokens,
        finished,
    }
}

pub(super) fn run(args: &ExpArgs) -> Report {
    let scale = Scale::new(args.smoke);
    let mut points: Vec<Point> = Vec::new();

    for &every in &scale.intervals {
        // Crash-free baseline first: goodput and GPU cost at this interval.
        let mut base: Option<(f64, u64)> = None;
        for &crash_every in &scale.crash_everys {
            eprintln!(
                "E14: checkpoint {:.0}ms, crash every {} boundaries ...",
                every.as_millis_f64(),
                crash_every
            );
            let tag = format!("{}-{}", every.as_nanos(), crash_every);
            let mut p = run_point(&scale, every, crash_every, &tag);
            // Completion is only guaranteed on the stable side of the
            // frontier: crash-free always, and any crash rate at (or
            // tighter than) the default checkpoint interval.
            if crash_every == 0 || every <= DEFAULT_CHECKPOINT_EVERY {
                assert!(p.finished, "stable point must outrun its crash rate");
                assert_eq!(p.completed, scale.agents, "every agent finishes");
                assert_eq!(p.failed, 0);
            }
            if !p.finished {
                eprintln!(
                    "E14: unstable — still crashing after {MAX_RESTARTS} restarts \
                     ({}/{} agents done)",
                    p.completed, scale.agents
                );
            }
            let (base_goodput, base_tokens) = *base.get_or_insert((p.goodput, p.total_tokens));
            p.goodput_ratio = p.goodput / base_goodput;
            p.wasted_tokens = p.total_tokens.saturating_sub(base_tokens);
            points.push(p);
        }
    }

    let mut table = Table::new(
        "E14 — goodput under injected kernel crashes (WAL checkpoint interval sweep)",
        &[
            "ckpt",
            "crash",
            "done",
            "restarts",
            "replayed",
            "wasted tok",
            "recovery",
            "wal",
            "goodput",
        ],
    );
    for p in &points {
        table.row(vec![
            format!("{:.0}ms", p.checkpoint_ms),
            if p.crash_every == 0 {
                "none".into()
            } else {
                format!("1/{}", p.crash_every)
            },
            if p.finished {
                p.completed.to_string()
            } else {
                format!("{}/{} (unstable)", p.completed, scale.agents)
            },
            p.restarts.to_string(),
            p.replayed_frames.to_string(),
            p.wasted_tokens.to_string(),
            format!("{:.1}ms", p.recovery_ms),
            format!("{:.0}KB", p.wal_bytes as f64 / 1024.0),
            format!("{:.2}/s ({:.0}%)", p.goodput, p.goodput_ratio * 100.0),
        ]);
    }
    table.print();

    // Journal growth, every point: WAL frame mix plus the KV journal
    // gauge — visible after recovery (the recovered kernel's store is
    // re-snapshotted at point end) and on clean runs alike.
    println!();
    for p in &points {
        let breakdown: Vec<String> = p
            .wal_frames
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!(
            "journal growth (ckpt {:.0}ms, crash {}): wal {} bytes; frames: {}; \
             kvfs.journal_bytes={}",
            p.checkpoint_ms,
            if p.crash_every == 0 {
                "none".into()
            } else {
                format!("1/{}", p.crash_every)
            },
            p.wal_bytes,
            if breakdown.is_empty() {
                "-".to_string()
            } else {
                breakdown.join(" ")
            },
            p.kv_journal_bytes,
        );
    }

    // Acceptance gate: at the default checkpoint interval, crashes cost at
    // most 10% goodput — recovery replays the journal instead of re-paying
    // the fleet.
    let default_ms = DEFAULT_CHECKPOINT_EVERY.as_millis_f64();
    for p in points
        .iter()
        .filter(|p| p.checkpoint_ms == default_ms && p.crash_every > 0)
    {
        assert!(
            p.goodput_ratio >= 0.9,
            "default interval, crash every {}: goodput ratio {:.3} < 0.9",
            p.crash_every,
            p.goodput_ratio
        );
    }
    println!("\nShape check: wasted GPU work shrinks as checkpoints tighten (only the");
    println!("unflushed pred tail is re-paid), while WAL bytes and checkpoint count grow —");
    println!("the durability/overhead tradeoff. At the default interval, injected crashes");
    println!("retain >=90% of crash-free goodput.");
    // recovery_ms is wall-clock (machine-dependent); zero it in the JSON
    // artifact so repeated runs stay byte-identical. The printed table above
    // keeps the measured value.
    let mut deterministic = points;
    for p in &mut deterministic {
        p.recovery_ms = 0.0;
    }
    Report::new(&deterministic)
}
