//! E17 — admission-time verification: shed bad programs, hint the scheduler.
//!
//! Two claims, both measured at the client through the SYMR front door:
//!
//! - **Flood**: a workload where every second SUBMIT is a
//!   parseable-but-invalid program (rotating through the verifier's error
//!   classes). With the verifier on, 100% of the bad programs are shed at
//!   the door with `VerifyRejected` and *zero* interpreter fuel — they
//!   never reach the kernel (`serve.sessions.accepted` counts only the
//!   clean half) — and the admitted programs' p99 stays at the clean
//!   baseline. With the verifier off, the same programs are admitted,
//!   scheduled and fault at runtime.
//!
//! - **Hints**: a mixed-cost workload (three statically-bounded short
//!   programs per unbounded agent program) on a contended continuous
//!   executor with a program-aware MLFQ. The verifier's pred bound seeds
//!   each program's ladder position at admission: statically unbounded
//!   programs start at the bottom instead of riding level 0, so short
//!   programs' p99 improves over the hint-free MLFQ.

use crate::{ExpArgs, Report, Table};
use serde::Serialize;
use symphony::{
    ContinuousConfig, ExecMode, KernelConfig, MlfqConfig, QueueDiscipline, SimDuration,
};
use symphony_serve::replay::{run_replay_on, standard_kernel};
use symphony_serve::{ReplaySpec, ServeConfig, ServerCore, WorkloadKind};

#[derive(Debug, Serialize)]
struct Row {
    experiment: String,
    cell: String,
    sessions: usize,
    hostile: usize,
    accepted: u64,
    verify_rejected: u64,
    completed: usize,
    latency_p99_ms: f64,
    short_p99_ms: f64,
    long_p99_ms: f64,
    cost_hints: u64,
}

fn ms(ns: Option<u64>) -> f64 {
    ns.map(|n| n as f64 / 1e6).unwrap_or(f64::NAN)
}

fn counter(core: &ServerCore, name: &str) -> u64 {
    core.kernel()
        .metrics_registry()
        .counter_value(name)
        .unwrap_or(0)
}

/// Flood cell: agent workload, optionally poisoned with hostile programs,
/// against the default (static-executor) serving kernel.
fn run_flood(
    cell: &str,
    sessions: usize,
    hostile_every: usize,
    verify: bool,
    telemetry: bool,
) -> (Row, ServerCore) {
    let spec = ReplaySpec {
        workload: WorkloadKind::Agent,
        sessions,
        conns: 4,
        tenants: 2,
        rtt: SimDuration::from_millis(20),
        mean_gap: SimDuration::from_millis(2),
        seed: 0xe17,
        drop_conns: 0,
        slow_conns: 0,
        hostile_every,
    };
    // Open admission quotas: the verifier must be the only shedder in
    // this experiment.
    let serve_cfg = ServeConfig {
        verify,
        tenant_session_quota: usize::MAX,
        max_live_sessions: usize::MAX,
        ..ServeConfig::default()
    };
    let mut kcfg = KernelConfig::for_tests();
    kcfg.telemetry = telemetry;
    let core = ServerCore::new(standard_kernel(kcfg), serve_cfg);
    let (report, core) = run_replay_on(&spec, core);
    let hostile = report
        .programs
        .iter()
        .filter(|s| s.name.starts_with("hostile-"))
        .count();
    let row = Row {
        experiment: "flood".into(),
        cell: cell.into(),
        sessions,
        hostile,
        accepted: counter(&core, "serve.sessions.accepted"),
        verify_rejected: counter(&core, "serve.sessions.verify_rejected"),
        completed: report.completed(),
        latency_p99_ms: ms(report.latency_p(99.0)),
        short_p99_ms: f64::NAN,
        long_p99_ms: f64::NAN,
        cost_hints: core.kernel().cost_hints(),
    };
    (row, core)
}

/// Hint cell: mixed-cost workload on a contended continuous executor with
/// a program-aware MLFQ; `cost_hints` toggles the verifier's static
/// service estimate.
fn run_hints(cell: &str, sessions: usize, cost_hints: bool) -> (Row, ServerCore) {
    let spec = ReplaySpec {
        workload: WorkloadKind::MixedCost,
        sessions,
        conns: 4,
        tenants: 2,
        rtt: SimDuration::from_millis(10),
        mean_gap: SimDuration::from_millis(1),
        seed: 0xe17,
        drop_conns: 0,
        slow_conns: 0,
        hostile_every: 0,
    };
    let serve_cfg = ServeConfig {
        cost_hints,
        tenant_session_quota: usize::MAX,
        max_live_sessions: usize::MAX,
        ..ServeConfig::default()
    };
    let mut kcfg = KernelConfig::for_tests();
    kcfg.exec = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(32),
        discipline: QueueDiscipline::Mlfq(MlfqConfig {
            levels: 4,
            quantum_tokens: 16,
        }),
    });
    kcfg.max_batch = 2;
    let core = ServerCore::new(standard_kernel(kcfg), serve_cfg);
    let (report, core) = run_replay_on(&spec, core);
    let row = Row {
        experiment: "hints".into(),
        cell: cell.into(),
        sessions,
        hostile: 0,
        accepted: counter(&core, "serve.sessions.accepted"),
        verify_rejected: counter(&core, "serve.sessions.verify_rejected"),
        completed: report.completed(),
        latency_p99_ms: ms(report.latency_p(99.0)),
        short_p99_ms: ms(report.latency_p_named("short-", 99.0)),
        long_p99_ms: ms(report.latency_p_named("long-", 99.0)),
        cost_hints: core.kernel().cost_hints(),
    };
    (row, core)
}

pub(super) fn run(args: &ExpArgs) -> Report {
    let sessions = if args.smoke { 16 } else { 64 };

    // -- Flood: bad programs die at the door, admitted tail stays clean --
    let mut flood_table = Table::new(
        "E17 — malformed flood at the door (agent workload)",
        &[
            "cell",
            "sessions",
            "hostile",
            "accepted",
            "verify-shed",
            "done",
            "admitted p99",
        ],
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut designated = None;
    let clean_sessions = sessions / 2;
    let cells = [
        ("clean-baseline", clean_sessions, 0usize, true),
        ("flood-verify-on", sessions, 2usize, true),
        ("flood-verify-off", sessions, 2usize, false),
    ];
    for (i, &(cell, n, every, verify)) in cells.iter().enumerate() {
        let is_designated = i == 1;
        let (row, core) = run_flood(cell, n, every, verify, args.record(is_designated));
        flood_table.row(vec![
            row.cell.clone(),
            row.sessions.to_string(),
            row.hostile.to_string(),
            row.accepted.to_string(),
            row.verify_rejected.to_string(),
            row.completed.to_string(),
            format!("{:.2} ms", row.latency_p99_ms),
        ]);
        if is_designated {
            designated = args.capture(core.kernel(), true);
        }
        rows.push(row);
    }
    flood_table.print();

    // -- Hints: static pred bounds seed the MLFQ ladder --
    let mut hint_table = Table::new(
        "E17 — static cost hints on a contended MLFQ (mixed-cost workload)",
        &[
            "cell",
            "sessions",
            "done",
            "hints",
            "short p99",
            "long p99",
            "all p99",
        ],
    );
    for (cell, hints) in [("mlfq-no-hints", false), ("mlfq-hints", true)] {
        let (row, _) = run_hints(cell, sessions, hints);
        hint_table.row(vec![
            row.cell.clone(),
            row.sessions.to_string(),
            row.completed.to_string(),
            row.cost_hints.to_string(),
            format!("{:.2} ms", row.short_p99_ms),
            format!("{:.2} ms", row.long_p99_ms),
            format!("{:.2} ms", row.latency_p99_ms),
        ]);
        rows.push(row);
    }
    hint_table.print();

    println!(
        "\nReading: with the verifier on, every hostile program is shed at the door \
         with VerifyRejected and zero interpreter fuel — `accepted` counts only the \
         clean half, and the admitted p99 matches the clean baseline. On the \
         contended MLFQ, the verifier's static pred bound seeds each program's \
         ladder position: unbounded programs start at the bottom, so the \
         statically-cheap short programs' p99 improves without touching their own \
         schedule."
    );
    Report::new(&rows).with_telemetry(designated)
}
