//! Chrome trace-event export.
//!
//! [`export_chrome_trace`] renders a recorded event stream as Chrome
//! trace-event JSON (the format loaded by Perfetto and `chrome://tracing`).
//! Track layout:
//!
//! * **kernel** (pid 0) — one `scheduler` thread carrying dispatch,
//!   pred-pool, breaker, fault and IPC instants;
//! * **gpu** (pid 1 000 000) — one `batches` thread carrying `gpu_batch`
//!   spans and copy-on-write instants;
//! * one process per LIP pid, with a thread track per tid carrying
//!   syscall spans and KVFS/tool instants, plus process-level instants on
//!   tid 0 (spawn/exit, deadlines, offload/restore).
//!
//! Virtual-time nanoseconds become fractional microseconds (`ts` is in µs
//! in the trace format). The writer is hand-rolled and fully ordered —
//! metadata first, then events in recorded order — so the same event
//! stream always serialises to byte-identical output.

use std::collections::BTreeMap;

use symphony_sim::SimTime;

use crate::event::{EventKind, SwapDir, TimedEvent};

/// The synthetic pid hosting the scheduler track.
pub const KERNEL_PID: u64 = 0;
/// The scheduler track's tid inside [`KERNEL_PID`].
pub const SCHED_TID: u64 = 1;
/// The synthetic pid hosting the GPU track (far above any real LIP pid).
pub const GPU_PID: u64 = 1_000_000;
/// The batch track's tid inside [`GPU_PID`].
pub const GPU_TID: u64 = 1;
/// The synthetic pid hosting the serving front door's track (one thread
/// lane per client connection). Only materialised when serve events are
/// present, so kernel-only traces render byte-identically to before.
pub const SERVE_PID: u64 = 2_000_000;

/// Virtual nanoseconds as a trace-format `ts` literal (microseconds with
/// three decimals — exact, so no float formatting is involved).
fn ts(at: SimTime) -> String {
    let ns = at.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_quoted(out: &mut String, s: &str) {
    serde::write_json_string(s, out);
}

/// Appends one trace-event object line. `args` is pre-rendered JSON
/// (`None` for no args); `scope` is the instant scope, if any.
#[allow(clippy::too_many_arguments)]
fn push_event(
    out: &mut String,
    first: &mut bool,
    ph: &str,
    at: Option<SimTime>,
    pid: u64,
    tid: u64,
    name: &str,
    args: Option<String>,
    scope: Option<&str>,
) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
    out.push_str("    {\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"ts\":");
    out.push_str(&ts(at.unwrap_or(SimTime::ZERO)));
    out.push_str(&format!(",\"pid\":{pid},\"tid\":{tid},\"name\":"));
    push_quoted(out, name);
    if let Some(s) = scope {
        out.push_str(&format!(",\"s\":\"{s}\""));
    }
    if let Some(a) = args {
        out.push_str(",\"args\":");
        out.push_str(&a);
    }
    out.push('}');
}

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Writer {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn meta(&mut self, pid: u64, tid: Option<u64>, kind: &str, args: String) {
        push_event(
            &mut self.out,
            &mut self.first,
            "M",
            None,
            pid,
            tid.unwrap_or(0),
            kind,
            Some(args),
            None,
        );
    }

    fn span(
        &mut self,
        ph: &str,
        at: SimTime,
        pid: u64,
        tid: u64,
        name: &str,
        args: Option<String>,
    ) {
        push_event(
            &mut self.out,
            &mut self.first,
            ph,
            Some(at),
            pid,
            tid,
            name,
            args,
            None,
        );
    }

    fn instant(&mut self, at: SimTime, pid: u64, tid: u64, name: &str, args: Option<String>) {
        push_event(
            &mut self.out,
            &mut self.first,
            "i",
            Some(at),
            pid,
            tid,
            name,
            args,
            Some("t"),
        );
    }

    /// One half of a flow arrow: `ph` is `"s"` (start) or `"f"` (finish).
    /// Finishes carry `bp:"e"` so Perfetto binds the arrowhead to the
    /// enclosing slice rather than the next one.
    fn flow(&mut self, ph: &str, at: SimTime, pid: u64, tid: u64, name: &str, id: u64) {
        if self.first {
            self.first = false;
        } else {
            self.out.push_str(",\n");
        }
        self.out.push_str("    {\"ph\":\"");
        self.out.push_str(ph);
        self.out.push_str("\",\"ts\":");
        self.out.push_str(&ts(at));
        self.out.push_str(&format!(
            ",\"pid\":{pid},\"tid\":{tid},\"cat\":\"flow\",\"id\":{id},\"name\":"
        ));
        push_quoted(&mut self.out, name);
        if ph == "f" {
            self.out.push_str(",\"bp\":\"e\"");
        }
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n  ],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    serde::write_json_string(s, &mut out);
    out
}

/// Renders a recorded event stream as Chrome trace-event JSON.
///
/// The output is deterministic: identical input slices yield byte-identical
/// strings, making the trace itself a regression artifact. Causal events
/// ([`EventKind::CausalEdge`], [`EventKind::PredExec`],
/// [`EventKind::ReplayAnswered`]) are *not* rendered here, so traces
/// recorded without `KernelConfig::causal` stay byte-identical to the
/// pre-causal format; use [`export_chrome_trace_with_flows`] to render
/// them as Perfetto flow arrows.
pub fn export_chrome_trace(events: &[TimedEvent]) -> String {
    export(events, false)
}

/// Like [`export_chrome_trace`], but additionally renders causal events:
/// [`EventKind::CausalEdge`] and [`EventKind::PredExec`] become flow-event
/// pairs (`ph:"s"` at the source, `ph:"f"`/`bp:"e"` at the destination,
/// matched by a deterministic `id`) that Perfetto draws as arrows across
/// tracks, and [`EventKind::ReplayAnswered`] becomes a `replay_hit`
/// instant on the owning thread track.
pub fn export_chrome_trace_with_flows(events: &[TimedEvent]) -> String {
    export(events, true)
}

fn export(events: &[TimedEvent], flows: bool) -> String {
    // First pass: discover LIP processes and their threads so every track
    // gets a name. The first thread observed for a pid is its main thread.
    let mut proc_names: BTreeMap<u64, String> = BTreeMap::new();
    let mut threads: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut serve_conns: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for ev in events {
        match &ev.kind {
            EventKind::ProcessSpawn { pid, name } => {
                proc_names.entry(*pid).or_insert_with(|| name.clone());
            }
            EventKind::ThreadSpawn { pid, tid } => {
                let tids = threads.entry(*pid).or_default();
                if !tids.contains(tid) {
                    tids.push(*tid);
                }
            }
            EventKind::ConnOpen { conn, .. }
            | EventKind::ConnClose { conn, .. }
            | EventKind::SessionBegin { conn, .. }
            | EventKind::SessionEnd { conn, .. } => {
                serve_conns.insert(*conn);
            }
            _ => {}
        }
    }

    let mut w = Writer::new();

    // Metadata: fixed tracks first, then LIP processes in pid order.
    w.meta(
        KERNEL_PID,
        None,
        "process_name",
        "{\"name\":\"kernel\"}".into(),
    );
    w.meta(
        KERNEL_PID,
        None,
        "process_sort_index",
        "{\"sort_index\":0}".into(),
    );
    w.meta(
        KERNEL_PID,
        Some(SCHED_TID),
        "thread_name",
        "{\"name\":\"scheduler\"}".into(),
    );
    w.meta(GPU_PID, None, "process_name", "{\"name\":\"gpu\"}".into());
    w.meta(
        GPU_PID,
        None,
        "process_sort_index",
        "{\"sort_index\":1}".into(),
    );
    w.meta(
        GPU_PID,
        Some(GPU_TID),
        "thread_name",
        "{\"name\":\"batches\"}".into(),
    );
    if !serve_conns.is_empty() {
        w.meta(
            SERVE_PID,
            None,
            "process_name",
            "{\"name\":\"serve\"}".into(),
        );
        w.meta(
            SERVE_PID,
            None,
            "process_sort_index",
            "{\"sort_index\":2}".into(),
        );
        for conn in &serve_conns {
            w.meta(
                SERVE_PID,
                Some(*conn),
                "thread_name",
                format!("{{\"name\":\"conn {conn}\"}}"),
            );
        }
    }
    let pids: Vec<u64> = proc_names
        .keys()
        .chain(threads.keys())
        .copied()
        .collect::<std::collections::BTreeSet<u64>>()
        .into_iter()
        .collect();
    for pid in pids {
        let label = match proc_names.get(&pid) {
            Some(name) => format!("{name} (pid {pid})"),
            None => format!("pid {pid}"),
        };
        w.meta(
            pid,
            None,
            "process_name",
            format!("{{\"name\":{}}}", quoted(&label)),
        );
        w.meta(
            pid,
            None,
            "process_sort_index",
            format!("{{\"sort_index\":{}}}", pid + 2),
        );
        if let Some(tids) = threads.get(&pid) {
            for (i, tid) in tids.iter().enumerate() {
                let tname = if i == 0 {
                    "main".to_string()
                } else {
                    format!("thread {tid}")
                };
                w.meta(
                    pid,
                    Some(*tid),
                    "thread_name",
                    format!("{{\"name\":{}}}", quoted(&tname)),
                );
            }
        }
    }

    // Second pass: the events themselves, in recorded (virtual-time) order.
    // Flow pairs share an id assigned in emission order, so the same event
    // stream always numbers its arrows identically.
    let mut flow_id: u64 = 0;
    for ev in events {
        let at = ev.at;
        match &ev.kind {
            EventKind::ProcessSpawn { pid, name } => {
                w.instant(
                    at,
                    *pid,
                    0,
                    "process_spawn",
                    Some(format!("{{\"name\":{}}}", quoted(name))),
                );
            }
            EventKind::ProcessExit { pid, ok } => {
                w.instant(
                    at,
                    *pid,
                    0,
                    "process_exit",
                    Some(format!("{{\"ok\":{ok}}}")),
                );
            }
            EventKind::ThreadSpawn { pid, tid } => {
                w.instant(at, *pid, *tid, "thread_spawn", None);
            }
            EventKind::ThreadExit { pid, tid, ok } => {
                w.instant(
                    at,
                    *pid,
                    *tid,
                    "thread_exit",
                    Some(format!("{{\"ok\":{ok}}}")),
                );
            }
            EventKind::SyscallEnter { pid, tid, name } => {
                w.span("B", at, *pid, *tid, &format!("sys:{name}"), None);
            }
            EventKind::SyscallExit { pid, tid, name } => {
                w.span("E", at, *pid, *tid, &format!("sys:{name}"), None);
            }
            EventKind::SchedDispatch { tid } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "dispatch",
                    Some(format!("{{\"tid\":{tid}}}")),
                );
            }
            EventKind::PredEnqueue { tid, tokens, pool } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "pred_enqueue",
                    Some(format!(
                        "{{\"tid\":{tid},\"tokens\":{tokens},\"pool\":{pool}}}"
                    )),
                );
            }
            EventKind::PredRequeue { tid, attempt } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "pred_requeue",
                    Some(format!("{{\"tid\":{tid},\"attempt\":{attempt}}}")),
                );
            }
            EventKind::PredShed { tid } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "pred_shed",
                    Some(format!("{{\"tid\":{tid}}}")),
                );
            }
            EventKind::BatchBegin {
                id,
                requests,
                occupancy_pct,
                new_tokens,
            } => {
                w.span(
                    "B",
                    at,
                    GPU_PID,
                    GPU_TID,
                    "gpu_batch",
                    Some(format!(
                        "{{\"id\":{id},\"requests\":{requests},\"occupancy_pct\":{occupancy_pct},\"new_tokens\":{new_tokens}}}"
                    )),
                );
            }
            EventKind::BatchEnd { id } => {
                w.span(
                    "E",
                    at,
                    GPU_PID,
                    GPU_TID,
                    "gpu_batch",
                    Some(format!("{{\"id\":{id}}}")),
                );
            }
            EventKind::ChunkExec {
                tid,
                batch,
                tokens,
                done,
                total,
            } => {
                w.instant(
                    at,
                    GPU_PID,
                    GPU_TID,
                    "chunk",
                    Some(format!(
                        "{{\"tid\":{tid},\"batch\":{batch},\"tokens\":{tokens},\"done\":{done},\"total\":{total}}}"
                    )),
                );
            }
            EventKind::Preempt {
                file,
                tokens,
                victim_tid,
            } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "preempt",
                    Some(format!(
                        "{{\"file\":{file},\"tokens\":{tokens},\"victim_tid\":{victim_tid}}}"
                    )),
                );
            }
            EventKind::KvOp { pid, tid, op, file } => {
                w.instant(
                    at,
                    *pid,
                    *tid,
                    &format!("kv:{op}"),
                    Some(format!("{{\"file\":{file}}}")),
                );
            }
            EventKind::KvCow { copies } => {
                w.instant(
                    at,
                    GPU_PID,
                    GPU_TID,
                    "kv_cow",
                    Some(format!("{{\"copies\":{copies}}}")),
                );
            }
            EventKind::KvSwap {
                pid,
                tid,
                file,
                tokens,
                disk_tokens,
                dir,
                done_at,
            } => {
                let name = match dir {
                    SwapDir::In => "kv_swap_in",
                    SwapDir::Out => "kv_swap_out",
                };
                // The instant marks the issue time; `done_ts` closes the
                // transfer window on the same track.
                let done = ts(*done_at);
                let args = if *disk_tokens > 0 {
                    format!("{{\"file\":{file},\"tokens\":{tokens},\"disk_tokens\":{disk_tokens},\"done_ts\":{done}}}")
                } else {
                    format!("{{\"file\":{file},\"tokens\":{tokens},\"done_ts\":{done}}}")
                };
                w.instant(at, *pid, *tid, name, Some(args));
            }
            EventKind::ToolInvoke {
                pid,
                tid,
                tool,
                attempts,
                latency_ns,
            } => {
                w.instant(
                    at,
                    *pid,
                    *tid,
                    &format!("tool:{tool}"),
                    Some(format!(
                        "{{\"attempts\":{attempts},\"latency_ns\":{latency_ns}}}"
                    )),
                );
            }
            EventKind::ToolRetry {
                pid,
                tid,
                tool,
                failures,
            } => {
                w.instant(
                    at,
                    *pid,
                    *tid,
                    "tool_retry",
                    Some(format!(
                        "{{\"tool\":{},\"failures\":{failures}}}",
                        quoted(tool)
                    )),
                );
            }
            EventKind::BreakerTrip { tool } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "breaker_trip",
                    Some(format!("{{\"tool\":{}}}", quoted(tool))),
                );
            }
            EventKind::BreakerReject { pid, tid, tool } => {
                w.instant(
                    at,
                    *pid,
                    *tid,
                    "breaker_reject",
                    Some(format!("{{\"tool\":{}}}", quoted(tool))),
                );
            }
            EventKind::FaultInjected { site } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "fault",
                    Some(format!("{{\"site\":{}}}", quoted(site))),
                );
            }
            EventKind::DeadlineHit { pid } => {
                w.instant(at, *pid, 0, "deadline_hit", None);
            }
            EventKind::KvOffload { pid, file } => {
                w.instant(
                    at,
                    *pid,
                    0,
                    "kv_offload",
                    Some(format!("{{\"file\":{file}}}")),
                );
            }
            EventKind::KvRestore { pid, tokens } => {
                w.instant(
                    at,
                    *pid,
                    0,
                    "kv_restore",
                    Some(format!("{{\"tokens\":{tokens}}}")),
                );
            }
            EventKind::IpcDrop { from, to } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "ipc_drop",
                    Some(format!("{{\"from\":{from},\"to\":{to}}}")),
                );
            }
            EventKind::KernelCrash { boundary } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "kernel_crash",
                    Some(format!("{{\"boundary\":{boundary}}}")),
                );
            }
            EventKind::WalCheckpoint { frames, wal_bytes } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "wal_checkpoint",
                    Some(format!("{{\"frames\":{frames},\"wal_bytes\":{wal_bytes}}}")),
                );
            }
            EventKind::KernelRecovery {
                resumed,
                replayed_frames,
            } => {
                w.instant(
                    at,
                    KERNEL_PID,
                    SCHED_TID,
                    "kernel_recovery",
                    Some(format!(
                        "{{\"resumed\":{resumed},\"replayed_frames\":{replayed_frames}}}"
                    )),
                );
            }
            // Causal events render only in flow mode; the legacy export
            // ignores them so pre-causal traces stay byte-identical.
            EventKind::CausalEdge {
                edge,
                src_pid,
                src_tid,
                src_at,
                dst_pid,
                dst_tid,
            } => {
                if flows {
                    let name = format!("flow:{}", edge.label());
                    w.flow("s", *src_at, *src_pid, *src_tid, &name, flow_id);
                    w.flow("f", at, *dst_pid, *dst_tid, &name, flow_id);
                    flow_id += 1;
                }
            }
            EventKind::PredExec {
                pid,
                tid,
                batch,
                tokens,
                enqueued_at,
            } => {
                if flows {
                    w.flow(
                        "s",
                        *enqueued_at,
                        KERNEL_PID,
                        SCHED_TID,
                        "flow:sched",
                        flow_id,
                    );
                    w.flow("f", at, GPU_PID, GPU_TID, "flow:sched", flow_id);
                    flow_id += 1;
                    w.instant(
                        at,
                        GPU_PID,
                        GPU_TID,
                        "pred_exec",
                        Some(format!(
                            "{{\"pid\":{pid},\"tid\":{tid},\"batch\":{batch},\"tokens\":{tokens}}}"
                        )),
                    );
                }
            }
            EventKind::ReplayAnswered { pid, tid, sys } => {
                if flows {
                    w.instant(
                        at,
                        *pid,
                        *tid,
                        "replay_hit",
                        Some(format!("{{\"sys\":{}}}", quoted(sys))),
                    );
                }
            }
            EventKind::ConnOpen { conn, tenant } => {
                w.instant(
                    at,
                    SERVE_PID,
                    *conn,
                    "conn_open",
                    Some(format!("{{\"tenant\":{tenant}}}")),
                );
            }
            EventKind::ConnClose { conn, reason } => {
                w.instant(
                    at,
                    SERVE_PID,
                    *conn,
                    "conn_close",
                    Some(format!("{{\"reason\":{}}}", quoted(reason))),
                );
            }
            EventKind::SessionBegin {
                conn,
                session,
                pid,
                tenant,
            } => {
                w.span(
                    "B",
                    at,
                    SERVE_PID,
                    *conn,
                    &format!("session:{session}"),
                    Some(format!("{{\"pid\":{pid},\"tenant\":{tenant}}}")),
                );
            }
            EventKind::SessionEnd {
                conn,
                session,
                pid,
                ok,
            } => {
                w.span(
                    "E",
                    at,
                    SERVE_PID,
                    *conn,
                    &format!("session:{session}"),
                    Some(format!("{{\"pid\":{pid},\"ok\":{ok}}}")),
                );
            }
        }
    }

    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_events() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                at: t(0),
                kind: EventKind::ProcessSpawn {
                    pid: 1,
                    name: "demo".into(),
                },
            },
            TimedEvent {
                at: t(0),
                kind: EventKind::ThreadSpawn { pid: 1, tid: 10 },
            },
            TimedEvent {
                at: t(1_500),
                kind: EventKind::SyscallEnter {
                    pid: 1,
                    tid: 10,
                    name: "pred",
                },
            },
            TimedEvent {
                at: t(2_000),
                kind: EventKind::BatchBegin {
                    id: 0,
                    requests: 1,
                    occupancy_pct: 12,
                    new_tokens: 4,
                },
            },
            TimedEvent {
                at: t(9_000),
                kind: EventKind::BatchEnd { id: 0 },
            },
            TimedEvent {
                at: t(9_250),
                kind: EventKind::SyscallExit {
                    pid: 1,
                    tid: 10,
                    name: "pred",
                },
            },
            TimedEvent {
                at: t(9_250),
                kind: EventKind::SchedDispatch { tid: 10 },
            },
        ]
    }

    #[test]
    fn export_is_valid_json_with_expected_tracks() {
        let json = export_chrome_trace(&sample_events());
        let v = serde_json::from_str::<serde_json::Value>(&json).expect("valid JSON");
        let events = match &v {
            serde_json::Value::Object(o) => match o.get("traceEvents") {
                Some(serde_json::Value::Array(a)) => a,
                _ => panic!("missing traceEvents array"),
            },
            _ => panic!("expected object"),
        };
        let names: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                serde_json::Value::Object(o) => match (o.get("ph"), o.get("name")) {
                    (Some(serde_json::Value::String(ph)), Some(serde_json::Value::String(n)))
                        if ph == "M" =>
                    {
                        match o.get("args") {
                            Some(serde_json::Value::Object(a)) => match a.get("name") {
                                Some(serde_json::Value::String(v)) => Some(format!("{n}={v}")),
                                _ => None,
                            },
                            _ => None,
                        }
                    }
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert!(names.contains(&"process_name=kernel".to_string()));
        assert!(names.contains(&"thread_name=scheduler".to_string()));
        assert!(names.contains(&"process_name=gpu".to_string()));
        assert!(names.contains(&"thread_name=batches".to_string()));
        assert!(names.contains(&"process_name=demo (pid 1)".to_string()));
        assert!(names.contains(&"thread_name=main".to_string()));
    }

    #[test]
    fn spans_pair_and_timestamps_scale_to_micros() {
        let json = export_chrome_trace(&sample_events());
        assert!(json.contains("\"ph\":\"B\",\"ts\":1.500"));
        assert!(json.contains("\"ph\":\"E\",\"ts\":9.250"));
        assert!(json.contains("\"name\":\"gpu_batch\""));
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
    }

    #[test]
    fn export_is_byte_identical_for_same_input() {
        let events = sample_events();
        assert_eq!(export_chrome_trace(&events), export_chrome_trace(&events));
    }

    fn causal_events() -> Vec<TimedEvent> {
        use crate::event::EdgeKind;
        let mut events = sample_events();
        events.push(TimedEvent {
            at: t(9_300),
            kind: EventKind::CausalEdge {
                edge: EdgeKind::Spawn,
                src_pid: 1,
                src_tid: 10,
                src_at: t(9_000),
                dst_pid: 1,
                dst_tid: 11,
            },
        });
        events.push(TimedEvent {
            at: t(9_400),
            kind: EventKind::PredExec {
                pid: 1,
                tid: 10,
                batch: 0,
                tokens: 4,
                enqueued_at: t(1_600),
            },
        });
        events.push(TimedEvent {
            at: t(9_500),
            kind: EventKind::ReplayAnswered {
                pid: 1,
                tid: 10,
                sys: "pred",
            },
        });
        events
    }

    #[test]
    fn legacy_export_ignores_causal_events_byte_identically() {
        assert_eq!(
            export_chrome_trace(&causal_events()),
            export_chrome_trace(&sample_events()),
        );
    }

    #[test]
    fn flow_export_renders_paired_arrows_and_replay_instants() {
        let json = export_chrome_trace_with_flows(&causal_events());
        serde_json::from_str::<serde_json::Value>(&json).expect("valid JSON");
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 2);
        assert_eq!(json.matches("\"bp\":\"e\"").count(), 2);
        assert!(json.contains("flow:spawn"));
        assert!(json.contains("flow:sched"));
        assert!(json.contains("\"name\":\"replay_hit\""));
        // The spawn arrow starts at the source time on the source track.
        assert!(json.contains("{\"ph\":\"s\",\"ts\":9.000,\"pid\":1,\"tid\":10,"));
        // Pair ids are deterministic and distinct.
        assert!(json.contains("\"id\":0"));
        assert!(json.contains("\"id\":1"));
    }
}
