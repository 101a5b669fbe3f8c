//! docs/OBSERVABILITY.md names every event a Chrome trace can carry.
//!
//! The "Event taxonomy" and "Causal spans and flow arrows" sections are
//! what a reader opens a trace with, and they are kept by hand: an event
//! kind added without its name there is drift. This builds one event of
//! every [`EventKind`], exports them with [`export_chrome_trace`], and holds
//! the name of every event in the trace (metadata records aside: they name
//! tracks, see "Track layout") to a name written in those sections. The
//! `sys:`, `kv:`, `tool:`, `session:` and `flow:` families carry a syscall,
//! an operation, a tool, a session or an edge in their names, so a family
//! is matched by its prefix.

use std::collections::{BTreeSet, HashSet};

use symphony_sim::SimTime;
use symphony_telemetry::{export_chrome_trace, EdgeKind, EventKind, SwapDir, TimedEvent};

const OBSERVABILITY: &str = include_str!("../../../docs/OBSERVABILITY.md");

/// The families whose names carry what they are about after the colon.
const FAMILIES: [&str; 5] = ["sys:", "kv:", "tool:", "session:", "flow:"];

/// One event of every kind, in an order whose spans pair up. Each kind's
/// case builds the next kind's event, and the `match` is exhaustive: a new
/// kind does not compile until it has a case, and its case is where the
/// chain goes on to it.
fn one_of_each() -> Vec<EventKind> {
    use EventKind as K;
    let at = SimTime::from_nanos(1_000);
    let mut events = Vec::new();
    let mut next = Some(K::ProcessSpawn {
        pid: 1,
        name: "demo".into(),
    });
    while let Some(kind) = next {
        next = match &kind {
            K::ProcessSpawn { .. } => Some(K::ThreadSpawn { pid: 1, tid: 1 }),
            K::ThreadSpawn { .. } => Some(K::SchedDispatch { tid: 1 }),
            K::SchedDispatch { .. } => Some(K::SyscallEnter {
                pid: 1,
                tid: 1,
                name: "pred",
            }),
            K::SyscallEnter { .. } => Some(K::PredEnqueue {
                tid: 1,
                tokens: 4,
                pool: 1,
            }),
            K::PredEnqueue { .. } => Some(K::BatchBegin {
                id: 0,
                requests: 1,
                occupancy_pct: 2,
                new_tokens: 4,
            }),
            K::BatchBegin { .. } => Some(K::PredExec {
                pid: 1,
                tid: 1,
                batch: 0,
                tokens: 4,
                enqueued_at: at,
            }),
            K::PredExec { .. } => Some(K::ChunkExec {
                tid: 1,
                batch: 0,
                tokens: 4,
                done: 4,
                total: 8,
            }),
            K::ChunkExec { .. } => Some(K::KvCow { copies: 1 }),
            K::KvCow { .. } => Some(K::Preempt {
                file: 2,
                tokens: 16,
                victim_tid: 0,
            }),
            K::Preempt { .. } => Some(K::BatchEnd { id: 0 }),
            K::BatchEnd { .. } => Some(K::SyscallExit {
                pid: 1,
                tid: 1,
                name: "pred",
            }),
            K::SyscallExit { .. } => Some(K::KvOp {
                pid: 1,
                tid: 1,
                op: "fork",
                file: 3,
            }),
            K::KvOp { .. } => Some(K::KvSwap {
                pid: 1,
                tid: 1,
                file: 3,
                tokens: 16,
                disk_tokens: 0,
                dir: SwapDir::In,
                done_at: at,
            }),
            K::KvSwap { .. } => Some(K::ToolInvoke {
                pid: 1,
                tid: 1,
                tool: "echo".into(),
                latency_ns: 5,
            }),
            K::ToolInvoke { .. } => Some(K::KvOffload { pid: 1, file: 3 }),
            K::KvOffload { .. } => Some(K::KvRestore { pid: 1, tokens: 16 }),
            K::KvRestore { .. } => Some(K::FaultInjected { site: "tool" }),
            K::FaultInjected { .. } => Some(K::DeadlineHit { pid: 1 }),
            K::DeadlineHit { .. } => Some(K::IpcDrop { from: 1, to: 2 }),
            K::IpcDrop { .. } => Some(K::CausalEdge {
                edge: EdgeKind::Spawn,
                src_pid: 1,
                src_tid: 1,
                src_at: at,
                dst_pid: 1,
                dst_tid: 2,
            }),
            K::CausalEdge { .. } => Some(K::ReplayAnswered {
                pid: 1,
                tid: 1,
                sys: "now",
            }),
            K::ReplayAnswered { .. } => Some(K::WalCheckpoint { wal_bytes: 64 }),
            K::WalCheckpoint { .. } => Some(K::KernelCrash { boundary: 3 }),
            K::KernelCrash { .. } => Some(K::KernelRecovery {
                resumed: 1,
                replayed_frames: 9,
            }),
            K::KernelRecovery { .. } => Some(K::ConnOpen { conn: 1, tenant: 7 }),
            K::ConnOpen { .. } => Some(K::SessionBegin {
                conn: 1,
                session: 1,
                pid: 1,
                tenant: 7,
            }),
            K::SessionBegin { .. } => Some(K::ThreadExit {
                pid: 1,
                tid: 1,
                ok: true,
            }),
            K::ThreadExit { .. } => Some(K::ProcessExit { pid: 1, ok: true }),
            K::ProcessExit { .. } => Some(K::SessionEnd {
                conn: 1,
                session: 1,
                pid: 1,
                ok: true,
            }),
            K::SessionEnd { .. } => Some(K::ConnClose {
                conn: 1,
                reason: "bye",
            }),
            K::ConnClose { .. } => None,
        };
        events.push(kind);
        assert!(events.len() < 64, "the chain goes round");
    }
    events
}

/// The backquoted words of one `## ` section of the doc.
fn quoted_in(section: &str) -> Vec<&'static str> {
    let heading = format!("\n## {section}\n");
    let text = OBSERVABILITY
        .split(heading.as_str())
        .nth(1)
        .unwrap_or_else(|| panic!("no section {section:?}"));
    let text = text.split("\n## ").next().unwrap_or(text);
    text.split('`').skip(1).step_by(2).collect()
}

/// The `name` of every trace event that is not metadata.
fn event_names(json: &str) -> BTreeSet<String> {
    use serde_json::Value;
    let Ok(Value::Object(trace)) = serde_json::from_str::<Value>(json) else {
        panic!("the export is a JSON object");
    };
    let Some(Value::Array(events)) = trace.get("traceEvents") else {
        panic!("the export has traceEvents");
    };
    events
        .iter()
        .filter_map(|e| match e {
            Value::Object(e) => match (e.get("ph"), e.get("name")) {
                (Some(Value::String(ph)), Some(Value::String(name))) if ph != "M" => {
                    Some(name.clone())
                }
                _ => None,
            },
            _ => None,
        })
        .collect()
}

#[test]
fn the_event_taxonomy_names_every_exported_event() {
    let kinds = one_of_each();
    let distinct: HashSet<_> = kinds.iter().map(std::mem::discriminant).collect();
    assert_eq!(distinct.len(), kinds.len(), "the chain builds a kind twice");
    let events: Vec<TimedEvent> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TimedEvent {
            at: SimTime::from_nanos(1_000 * (i as u64 + 1)),
            kind,
        })
        .collect();
    let names = event_names(&export_chrome_trace(&events));
    let documented: Vec<&str> = ["Event taxonomy", "Causal spans and flow arrows"]
        .into_iter()
        .flat_map(quoted_in)
        .collect();
    let missing: Vec<&String> = names
        .iter()
        .filter(
            |name| match FAMILIES.iter().find(|f| name.starts_with(*f)) {
                Some(family) => !documented.iter().any(|d| d.starts_with(family)),
                None => !documented.contains(&name.as_str()),
            },
        )
        .collect();
    assert!(
        missing.is_empty(),
        "exported but not in docs/OBSERVABILITY.md: {missing:?}"
    );
    // Every family and every kind rendered something.
    for family in FAMILIES {
        assert!(
            names.iter().any(|n| n.starts_with(family)),
            "no {family} event"
        );
    }
    assert!(names.len() > 25, "{names:?}");
}
