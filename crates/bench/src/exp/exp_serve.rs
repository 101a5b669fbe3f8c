//! E16 — serving over the wire: sessions × RTT × admission.
//!
//! The paper's serving claim, measured where it matters — at the client.
//! A deterministic loopback replay drives the SYMR front door
//! (`symphony-serve`) with agent and RAG programs, simulating the
//! client↔server round-trip through the protocol's `not_before_ns`/`at_ns`
//! fields, and reports *client-observed* TTFT and per-program latency:
//! every number includes the half-RTT each way that a server-side metric
//! never sees.
//!
//! Three axes:
//!
//! - **sessions** — offered concurrency, spread round-robin over 4
//!   connections and 2 tenants;
//! - **RTT** — simulated network round-trip, showing how the wire's
//!   streaming design keeps TTFT ≈ queue + prefill + RTT rather than
//!   end-to-end + RTT;
//! - **admission** — per-tenant session quota at the door: `open` admits
//!   everything (latency grows with the backlog), `quota=8` sheds excess
//!   with typed `QuotaExceeded` errors and keeps the admitted tail flat.
//!
//! The designated run's trace carries the serve track's
//! connection/session spans, and its metrics snapshot the `serve.*`
//! counters.

use crate::{ExpArgs, Report, Table};
use serde::Serialize;
use symphony::{KernelConfig, SimDuration};
use symphony_serve::replay::{run_replay_on, standard_kernel};
use symphony_serve::{ReplaySpec, ServeConfig, ServerCore, WorkloadKind};

#[derive(Debug, Serialize)]
struct Row {
    workload: String,
    sessions: usize,
    rtt_ms: u64,
    admission: String,
    completed: usize,
    shed: usize,
    ttft_p50_ms: f64,
    ttft_p99_ms: f64,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    streamed_tokens: u64,
    /// GPU batches the cell's kernel ran, and the `pred`s each carried on
    /// average (`requests_ok / batches`): low `mean_batch` under a busy GPU
    /// is live sequences taking turns instead of sharing iterations.
    gpu_batches: u64,
    mean_batch: f64,
}

fn ms(ns: Option<u64>) -> f64 {
    ns.map(|n| n as f64 / 1e6).unwrap_or(f64::NAN)
}

fn run_cell(
    workload: WorkloadKind,
    sessions: usize,
    rtt_ms: u64,
    quota: Option<usize>,
    telemetry: bool,
) -> (Row, ServerCore) {
    let spec = ReplaySpec {
        workload,
        sessions,
        conns: 4,
        tenants: 2,
        rtt: SimDuration::from_millis(rtt_ms),
        mean_gap: SimDuration::from_millis(2),
        seed: 0xe16,
        drop_conns: 0,
        slow_conns: 0,
        hostile_every: 0,
    };
    let serve_cfg = ServeConfig {
        tenant_session_quota: quota.unwrap_or(usize::MAX),
        ..ServeConfig::default()
    };
    let mut kcfg = KernelConfig::for_tests();
    kcfg.telemetry = telemetry;
    let core = ServerCore::new(standard_kernel(kcfg), serve_cfg);
    let (report, core) = run_replay_on(&spec, core);
    let shed: usize = report.sheds().values().sum();
    let gpu = core.kernel().gpu_metrics();
    let row = Row {
        workload: match workload {
            WorkloadKind::Agent => "agent".into(),
            WorkloadKind::Rag => "rag".into(),
            WorkloadKind::MixedCost => "mixed-cost".into(),
        },
        sessions,
        rtt_ms,
        admission: quota.map(|q| format!("quota={q}")).unwrap_or("open".into()),
        completed: report.completed(),
        shed,
        ttft_p50_ms: ms(report.ttft_p(50.0)),
        ttft_p99_ms: ms(report.ttft_p(99.0)),
        latency_p50_ms: ms(report.latency_p(50.0)),
        latency_p99_ms: ms(report.latency_p(99.0)),
        streamed_tokens: report.streamed_tokens(),
        gpu_batches: gpu.batches,
        mean_batch: gpu.requests_ok as f64 / gpu.batches.max(1) as f64,
    };
    (row, core)
}

pub(super) fn run(args: &ExpArgs) -> Report {
    let (session_axis, rtt_axis): (Vec<usize>, Vec<u64>) = if args.smoke {
        (vec![12], vec![20])
    } else {
        (vec![16, 48, 96], vec![2, 20, 80])
    };
    let quotas: Vec<Option<usize>> = vec![None, Some(8)];

    let mut table = Table::new(
        "E16 — client-observed serving latency (agent workload)",
        &[
            "sessions",
            "rtt",
            "admission",
            "done",
            "shed",
            "ttft p50",
            "ttft p99",
            "lat p50",
            "lat p99",
            "batches",
            "mean batch",
        ],
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut designated = None;
    let last = (
        *session_axis.last().unwrap_or(&0),
        *rtt_axis.last().unwrap_or(&0),
    );
    for &sessions in &session_axis {
        for &rtt_ms in &rtt_axis {
            for quota in &quotas {
                // The designated run (trace/metrics export) is the most
                // loaded quota cell of the sweep.
                let is_designated = sessions == last.0 && rtt_ms == last.1 && quota.is_some();
                let (row, core) = run_cell(
                    WorkloadKind::Agent,
                    sessions,
                    rtt_ms,
                    *quota,
                    args.record(is_designated),
                );
                table.row(vec![
                    row.sessions.to_string(),
                    format!("{} ms", row.rtt_ms),
                    row.admission.clone(),
                    row.completed.to_string(),
                    row.shed.to_string(),
                    format!("{:.2} ms", row.ttft_p50_ms),
                    format!("{:.2} ms", row.ttft_p99_ms),
                    format!("{:.2} ms", row.latency_p50_ms),
                    format!("{:.2} ms", row.latency_p99_ms),
                    row.gpu_batches.to_string(),
                    format!("{:.2}", row.mean_batch),
                ]);
                rows.push(row);
                if is_designated {
                    designated = args.capture(core.kernel(), true);
                }
            }
        }
    }
    table.print();

    let mut rag_table = Table::new(
        "E16 — RAG over shared prefixes, same sweep midpoint",
        &[
            "sessions",
            "rtt",
            "admission",
            "done",
            "shed",
            "ttft p99",
            "lat p99",
            "batches",
            "mean batch",
        ],
    );
    let rag_sessions = if args.smoke { 12 } else { 48 };
    for quota in &quotas {
        let (row, _) = run_cell(WorkloadKind::Rag, rag_sessions, 20, *quota, false);
        rag_table.row(vec![
            row.sessions.to_string(),
            format!("{} ms", row.rtt_ms),
            row.admission.clone(),
            row.completed.to_string(),
            row.shed.to_string(),
            format!("{:.2} ms", row.ttft_p99_ms),
            format!("{:.2} ms", row.latency_p99_ms),
            row.gpu_batches.to_string(),
            format!("{:.2}", row.mean_batch),
        ]);
        rows.push(row);
    }
    rag_table.print();

    println!(
        "\nReading: TTFT tracks RTT + queue + prefill, not program length — streaming \
         starts while the program runs. Under load, `open` admission stretches the \
         latency tail; `quota=8` sheds the excess at the door with typed errors and \
         keeps the admitted p99 flat. All numbers are client-observed."
    );
    Report::new(&rows).with_telemetry(designated)
}
