//! E11 — tool faults, and a program that retries (`docs/RESILIENCE.md`).
//!
//! A fleet of agents interleaves generation with tool calls while the
//! kernel's fault injector fails or hangs tool attempts at a swept rate.
//! Every `call_tool` is one attempt, and what to do about a failure is the
//! program's policy. Two programs, same substrate, same seed:
//!
//! - `no-retry`: an agent whose call fails aborts its task.
//! - `retry4`: the agent retries a failed call itself, up to 4 attempts,
//!   sleeping a jittered exponential backoff between them (5 ms doubling,
//!   ±10 % drawn from the thread's own RNG).
//!
//! Hung attempts (25% of injected faults, 20× stall) are clamped by a
//! 100 ms per-attempt timeout, so the sweep also exercises the deadline
//! machinery. Expected shape: goodput collapses with rate under
//! `no-retry`, while `retry4` holds it near 100% until the per-call
//! failure probability (rate⁴) becomes visible; retries buy that goodput
//! with latency (backoff + re-attempts) — graceful degradation, not a
//! free lunch.

use crate::{lip, ExpArgs, Report, Table, Telemetry};
use serde::Serialize;
use symphony::{
    FaultPlan, Kernel, KernelConfig, Limits, SimDuration, SpawnOpts, ToolOutcome, ToolSpec,
};

/// The agent, retry policy and all (args: "<attempts per call> <calls>").
const AGENT: &str = include_str!("../../../../examples/lipscript/with_prelude/retry_agent.lip");

const AGENTS: usize = 24;
const CALLS_PER_AGENT: usize = 4;
const TOOL_LATENCY: SimDuration = SimDuration::from_millis(25);
const TOOL_TIMEOUT: SimDuration = SimDuration::from_millis(100);
const SEED: u64 = 0xE11;
/// `retry4`'s attempts per call (its backoff, 5 ms before the first
/// retry, is the program's).
const RETRY_ATTEMPTS: u32 = 4;

#[derive(Debug, Clone, Serialize)]
struct Point {
    policy: String,
    fault_rate: f64,
    ok: usize,
    total: usize,
    mean_ok_latency_ms: f64,
    injected_failures: u64,
    injected_hangs: u64,
    tool_attempts: u64,
    tool_timeouts: u64,
}

fn run_cell(
    policy: &str,
    fault_rate: f64,
    telemetry: &ExpArgs,
    designated: bool,
) -> (Point, Option<Telemetry>) {
    let mut cfg = KernelConfig::paper_setup();
    cfg.seed = SEED;
    cfg.telemetry = telemetry.record(designated);
    cfg.model = cfg.model.with_mean_output_tokens(1_000); // segments end by cap
    cfg.faults = FaultPlan {
        tool_fault_rate: fault_rate,
        tool_hang_fraction: 0.25,
        tool_stall_factor: 20.0,
        ..FaultPlan::default()
    };
    let attempts = match policy {
        "no-retry" => 1,
        "retry4" => RETRY_ATTEMPTS,
        other => panic!("unknown policy {other}"),
    };
    let mut kernel = Kernel::new(cfg);
    kernel.register_tool(
        "api",
        ToolSpec::fixed(TOOL_LATENCY, |args| {
            ToolOutcome::Ok(format!("api result for {args}"))
        }),
    );
    let limits = Limits {
        tool_timeout: Some(TOOL_TIMEOUT),
        ..Limits::default()
    };
    let admission = SpawnOpts {
        limits,
        ..SpawnOpts::default()
    };
    let mut pids = Vec::new();
    let args = format!("{attempts} {CALLS_PER_AGENT}");
    for a in 0..AGENTS {
        let body = lip::program(AGENT);
        pids.push(kernel.admit(&format!("agent{a}"), &args, admission, body));
    }
    kernel.run();
    let (mut ok, mut lat_sum) = (0usize, 0.0f64);
    for &pid in &pids {
        let rec = kernel.record(pid).expect("spawned above");
        if rec.status.is_ok() {
            ok += 1;
            lat_sum += rec.latency().expect("exited").as_millis_f64();
        }
    }
    let counter = |name: &str| kernel.metrics_registry().counter_value(name).unwrap_or(0);
    let snap = telemetry.capture(&kernel, designated);
    let point = Point {
        policy: policy.to_string(),
        fault_rate,
        ok,
        total: AGENTS,
        mean_ok_latency_ms: if ok > 0 {
            lat_sum / ok as f64
        } else {
            f64::NAN
        },
        injected_failures: counter("faults.tool_failures"),
        injected_hangs: counter("faults.tool_hangs"),
        tool_attempts: kernel.tool_invocations(),
        tool_timeouts: counter("resilience.tool_timeouts"),
    };
    (point, snap)
}

pub(super) fn run(opts: &ExpArgs) -> Report {
    let policies = ["no-retry", "retry4"];
    let rates = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];
    let designated_rate = 0.2; // mid-sweep: faults fire, goodput still high
    let mut results = Vec::new();
    let mut captured: Option<Telemetry> = None;
    let mut table = Table::new(
        "E11 — tool faults, retried by the program: goodput / mean latency (24 agents × 4 calls)",
        &["fault rate", "no-retry", "retry4", "attempts", "timeouts"],
    );
    for &rate in &rates {
        eprintln!("E11: fault rate {rate} ...");
        let pts: Vec<Point> = policies
            .iter()
            .map(|p| {
                // The designated telemetry run: retry4 mid-sweep.
                let designated = *p == "retry4" && rate == designated_rate;
                let (pt, snap) = run_cell(p, rate, opts, designated);
                if let Some(s) = snap {
                    captured = Some(s);
                }
                pt
            })
            .collect();
        let cell = |p: &Point| {
            if p.ok > 0 {
                format!("{}/{} {:.0}ms", p.ok, p.total, p.mean_ok_latency_ms)
            } else {
                format!("{}/{} —", p.ok, p.total)
            }
        };
        table.row(vec![
            format!("{rate:.2}"),
            cell(&pts[0]),
            cell(&pts[1]),
            pts[1].tool_attempts.to_string(),
            pts[1].tool_timeouts.to_string(),
        ]);
        results.extend(pts);
    }
    table.print();
    println!(
        "\nShape check: retry4 holds goodput while no-retry decays ~(1-rate)^{CALLS_PER_AGENT}; \
         the price is latency (backoff + re-attempts)."
    );
    Report::new(&results).with_telemetry(captured)
}
