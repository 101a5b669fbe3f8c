//! Per-program span-tree reconstruction from a recorded event stream.
//!
//! The event bus records a flat, time-ordered stream. This module folds it
//! back into the shape the kernel actually executed: a [`TraceForest`] of
//! root programs, each holding its threads, each thread holding its
//! syscall spans in order. Causal events (recorded when
//! `KernelConfig::causal` is on) decorate the tree:
//!
//! * [`EventKind::CausalEdge`] `Spawn` edges become [`ThreadTrace::spawned_by`];
//!   `Ipc`/`Join` edges become [`SyscallSpan::wake`], pointing at the source
//!   point (thread + time) whose progress unblocked the span.
//! * [`EventKind::PredExec`] plus `Batch{Begin,End}` pairs become
//!   [`ExecWindow`]s inside the owning `pred` span, splitting blocked time
//!   into GPU execution versus pool queueing, and carry the pred's pool
//!   entry time ([`SyscallSpan::enqueued_at`]).
//! * [`EventKind::KvSwap`] swap-ins issued by the executor while a `pred`
//!   waits in the pool become [`SyscallSpan::swap_ins`] windows, so the
//!   wait for the transfer is told apart from plain queueing.
//! * [`EventKind::ReplayAnswered`] marks a span as answered from the WAL
//!   effect journal during recovery ([`SyscallSpan::replayed`]).
//!
//! The reconstruction is total: every `SyscallEnter` in the stream lands in
//! exactly one program's tree (spans still open when the stream ends are
//! closed at the last recorded timestamp). [`crate::critical_path`] walks
//! this forest backwards to attribute wall-clock into phase buckets.

use std::collections::BTreeMap;

use symphony_sim::SimTime;

use crate::event::{EdgeKind, EventKind, SwapDir, TimedEvent};

/// A causal pointer to the source point that enabled some progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalLink {
    /// Why the destination made progress.
    pub edge: EdgeKind,
    /// Source thread's process.
    pub src_pid: u64,
    /// Source thread.
    pub src_tid: u64,
    /// When the source half happened (e.g. when the message was sent).
    pub src_at: SimTime,
}

/// One GPU execution window attributed to a `pred` span: the slice of a
/// batch/iteration in which this pred's tokens actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecWindow {
    /// Batch begin.
    pub start: SimTime,
    /// Batch end.
    pub end: SimTime,
    /// New tokens this member contributed (>1 ⇒ prefill, 1 ⇒ decode).
    pub tokens: u32,
}

/// One syscall span on a thread: entry to reply delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct SyscallSpan {
    /// Stable syscall name (`pred`, `recv`, `kv_swap_in`, …).
    pub name: &'static str,
    /// `SyscallEnter` time.
    pub start: SimTime,
    /// `SyscallExit` time (last recorded time for spans still open when
    /// the stream ended).
    pub end: SimTime,
    /// When the pred joined the inference pool (earliest across chunked
    /// iterations); `pred` spans only.
    pub enqueued_at: Option<SimTime>,
    /// GPU execution windows inside this span (`pred` spans only), in
    /// batch order.
    pub execs: Vec<ExecWindow>,
    /// Swap-in transfer windows `(issued, ready)` the span waited on, in
    /// time order (`pred` spans under the continuous executor).
    pub swap_ins: Vec<(SimTime, SimTime)>,
    /// Answered from the WAL effect journal during recovery replay.
    pub replayed: bool,
    /// The IPC send or thread exit that unblocked this span (`recv` and
    /// `join` spans, causal mode only).
    pub wake: Option<CausalLink>,
}

/// One LIP thread's reconstructed timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrace {
    /// Thread id (globally unique).
    pub tid: u64,
    /// `ThreadSpawn` time.
    pub started_at: SimTime,
    /// `ThreadExit` time (last recorded time if the thread never exited).
    pub ended_at: SimTime,
    /// The parent thread's `spawn` syscall (causal mode, sibling threads
    /// only; root main threads have no parent).
    pub spawned_by: Option<CausalLink>,
    /// Syscall spans in time order. At most one is open at a time — LIP
    /// threads block in the kernel for the duration of every syscall.
    pub spans: Vec<SyscallSpan>,
}

/// One root program's reconstructed tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramTrace {
    /// Process id.
    pub pid: u64,
    /// Program name from `ProcessSpawn` (empty if never observed).
    pub name: String,
    /// `ProcessSpawn` time.
    pub spawned_at: SimTime,
    /// `ProcessExit` time (last recorded time if the program never
    /// exited, e.g. the stream ends mid-run).
    pub exited_at: SimTime,
    /// Whether the program exited successfully.
    pub ok: bool,
    /// Threads in spawn order (the first is the main thread).
    pub threads: Vec<ThreadTrace>,
}

impl ProgramTrace {
    /// End-to-end wall-clock in virtual nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.exited_at.as_nanos().saturating_sub(self.spawned_at.as_nanos())
    }

    /// Total syscall spans across all threads.
    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }
}

/// All root programs reconstructed from one event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceForest {
    /// Programs in pid order.
    pub programs: Vec<ProgramTrace>,
}

impl TraceForest {
    /// Looks up a thread anywhere in the forest by `(pid, tid)`.
    pub fn thread(&self, pid: u64, tid: u64) -> Option<&ThreadTrace> {
        self.programs
            .iter()
            .find(|p| p.pid == pid)?
            .threads
            .iter()
            .find(|t| t.tid == tid)
    }

    /// Total syscall spans across every program.
    pub fn span_count(&self) -> usize {
        self.programs.iter().map(|p| p.span_count()).sum()
    }
}

struct ThreadBuilder {
    tid: u64,
    started_at: SimTime,
    ended_at: Option<SimTime>,
    spawned_by: Option<CausalLink>,
    spans: Vec<SyscallSpan>,
    open: Option<SyscallSpan>,
}

impl ThreadBuilder {
    fn new(tid: u64, at: SimTime) -> Self {
        ThreadBuilder {
            tid,
            started_at: at,
            ended_at: None,
            spawned_by: None,
            spans: Vec::new(),
            open: None,
        }
    }

    fn enter(&mut self, name: &'static str, at: SimTime) {
        // A new entry while a span is open means the exit event was lost
        // (e.g. a capacity-capped bus); close the stale span at the new
        // entry so the timeline stays a partition.
        if let Some(mut stale) = self.open.take() {
            stale.end = at;
            self.spans.push(stale);
        }
        self.open = Some(SyscallSpan {
            name,
            start: at,
            end: at,
            enqueued_at: None,
            execs: Vec::new(),
            swap_ins: Vec::new(),
            replayed: false,
            wake: None,
        });
    }

    fn exit(&mut self, at: SimTime) {
        if let Some(mut span) = self.open.take() {
            span.end = at;
            self.spans.push(span);
        }
    }

    fn finish(mut self, last_at: SimTime) -> ThreadTrace {
        let ended_at = self.ended_at.unwrap_or(last_at);
        if let Some(mut span) = self.open.take() {
            span.end = ended_at.max(span.start);
            self.spans.push(span);
        }
        ThreadTrace {
            tid: self.tid,
            started_at: self.started_at,
            ended_at: ended_at.max(self.started_at),
            spawned_by: self.spawned_by,
            spans: self.spans,
        }
    }
}

/// An open GPU batch: begin time plus the `(pid, tid, tokens)` members
/// seen via `PredExec`.
type OpenBatch = (SimTime, Vec<(u64, u64, u32)>);

struct ProgramBuilder {
    name: String,
    spawned_at: SimTime,
    exited_at: Option<SimTime>,
    ok: bool,
    /// Spawn order of this program's threads.
    tids: Vec<u64>,
}

/// Reconstructs the per-program span forest from a recorded event stream.
///
/// Works on streams recorded with or without causal mode: without it the
/// trees still carry full span timelines, just no wake/spawn edges, exec
/// windows or replay marks.
pub fn build_forest(events: &[TimedEvent]) -> TraceForest {
    let last_at = events.last().map(|e| e.at).unwrap_or(SimTime::ZERO);
    let mut programs: BTreeMap<u64, ProgramBuilder> = BTreeMap::new();
    let mut threads: BTreeMap<(u64, u64), ThreadBuilder> = BTreeMap::new();
    // Open batches: id → (begin time, members seen via PredExec).
    let mut batches: BTreeMap<u64, OpenBatch> = BTreeMap::new();

    let program = |programs: &mut BTreeMap<u64, ProgramBuilder>, pid: u64, at: SimTime| {
        programs.entry(pid).or_insert_with(|| ProgramBuilder {
            name: String::new(),
            spawned_at: at,
            exited_at: None,
            ok: false,
            tids: Vec::new(),
        });
    };

    for ev in events {
        let at = ev.at;
        match &ev.kind {
            EventKind::ProcessSpawn { pid, name } => {
                program(&mut programs, *pid, at);
                if let Some(p) = programs.get_mut(pid) {
                    if p.name.is_empty() {
                        p.name = name.clone();
                    }
                }
            }
            EventKind::ProcessExit { pid, ok } => {
                program(&mut programs, *pid, at);
                if let Some(p) = programs.get_mut(pid) {
                    p.exited_at = Some(at);
                    p.ok = *ok;
                }
            }
            EventKind::ThreadSpawn { pid, tid } => {
                program(&mut programs, *pid, at);
                if let Some(p) = programs.get_mut(pid) {
                    if !p.tids.contains(tid) {
                        p.tids.push(*tid);
                    }
                }
                threads
                    .entry((*pid, *tid))
                    .or_insert_with(|| ThreadBuilder::new(*tid, at));
            }
            EventKind::ThreadExit { pid, tid, .. } => {
                if let Some(t) = threads.get_mut(&(*pid, *tid)) {
                    t.ended_at = Some(at);
                    t.exit(at);
                }
            }
            EventKind::SyscallEnter { pid, tid, name } => {
                program(&mut programs, *pid, at);
                let t = threads
                    .entry((*pid, *tid))
                    .or_insert_with(|| ThreadBuilder::new(*tid, at));
                t.enter(name, at);
                if let Some(p) = programs.get_mut(pid) {
                    if !p.tids.contains(tid) {
                        p.tids.push(*tid);
                    }
                }
            }
            EventKind::SyscallExit { pid, tid, .. } => {
                if let Some(t) = threads.get_mut(&(*pid, *tid)) {
                    t.exit(at);
                }
            }
            EventKind::BatchBegin { id, .. } => {
                batches.entry(*id).or_insert((at, Vec::new()));
            }
            EventKind::PredExec {
                pid,
                tid,
                batch,
                tokens,
                enqueued_at,
            } => {
                if let Some((_, members)) = batches.get_mut(batch) {
                    members.push((*pid, *tid, *tokens));
                }
                if let Some(span) = threads.get_mut(&(*pid, *tid)).and_then(|t| t.open.as_mut())
                {
                    span.enqueued_at = Some(match span.enqueued_at {
                        Some(e) => e.min(*enqueued_at),
                        None => *enqueued_at,
                    });
                }
            }
            EventKind::BatchEnd { id } => {
                if let Some((begin, members)) = batches.remove(id) {
                    for (pid, tid, tokens) in members {
                        if let Some(span) =
                            threads.get_mut(&(pid, tid)).and_then(|t| t.open.as_mut())
                        {
                            span.execs.push(ExecWindow {
                                start: begin,
                                end: at,
                                tokens,
                            });
                        }
                    }
                }
            }
            EventKind::KvSwap {
                pid,
                tid,
                dir: SwapDir::In,
                done_at,
                ..
            } => {
                if let Some(span) = threads.get_mut(&(*pid, *tid)).and_then(|t| t.open.as_mut()) {
                    span.swap_ins.push((at, *done_at));
                }
            }
            EventKind::ReplayAnswered { pid, tid, .. } => {
                if let Some(span) = threads.get_mut(&(*pid, *tid)).and_then(|t| t.open.as_mut())
                {
                    span.replayed = true;
                }
            }
            EventKind::CausalEdge {
                edge,
                src_pid,
                src_tid,
                src_at,
                dst_pid,
                dst_tid,
            } => {
                let link = CausalLink {
                    edge: *edge,
                    src_pid: *src_pid,
                    src_tid: *src_tid,
                    src_at: *src_at,
                };
                match edge {
                    EdgeKind::Spawn => {
                        if let Some(t) = threads.get_mut(&(*dst_pid, *dst_tid)) {
                            t.spawned_by = Some(link);
                        }
                    }
                    EdgeKind::Ipc | EdgeKind::Join => {
                        if let Some(span) =
                            threads.get_mut(&(*dst_pid, *dst_tid)).and_then(|t| t.open.as_mut())
                        {
                            span.wake = Some(link);
                        }
                    }
                    // Tool completion and preemption edges carry no
                    // blocked-time jump: the issuing span itself is the
                    // attribution unit. They render as flow arrows only.
                    EdgeKind::Tool | EdgeKind::Preempt => {}
                }
            }
            _ => {}
        }
    }

    let mut thread_map: BTreeMap<(u64, u64), ThreadTrace> = threads
        .into_iter()
        .map(|((pid, tid), b)| ((pid, tid), b.finish(last_at)))
        .collect();

    let programs = programs
        .into_iter()
        .map(|(pid, p)| {
            let threads: Vec<ThreadTrace> = p
                .tids
                .iter()
                .filter_map(|tid| thread_map.remove(&(pid, *tid)))
                .collect();
            let spawned_at = p.spawned_at;
            let exited_at = p
                .exited_at
                .unwrap_or_else(|| {
                    threads
                        .iter()
                        .map(|t| t.ended_at)
                        .max()
                        .unwrap_or(last_at)
                })
                .max(spawned_at);
            ProgramTrace {
                pid,
                name: p.name,
                spawned_at,
                exited_at,
                ok: p.ok,
                threads,
            }
        })
        .collect();

    TraceForest { programs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn ev(at: u64, kind: EventKind) -> TimedEvent {
        TimedEvent { at: t(at), kind }
    }

    fn small_stream() -> Vec<TimedEvent> {
        vec![
            ev(0, EventKind::ProcessSpawn { pid: 1, name: "agent".into() }),
            ev(0, EventKind::ThreadSpawn { pid: 1, tid: 10 }),
            ev(100, EventKind::SyscallEnter { pid: 1, tid: 10, name: "spawn" }),
            ev(100, EventKind::ThreadSpawn { pid: 1, tid: 11 }),
            ev(
                100,
                EventKind::CausalEdge {
                    edge: EdgeKind::Spawn,
                    src_pid: 1,
                    src_tid: 10,
                    src_at: t(100),
                    dst_pid: 1,
                    dst_tid: 11,
                },
            ),
            ev(150, EventKind::SyscallExit { pid: 1, tid: 10, name: "spawn" }),
            ev(200, EventKind::SyscallEnter { pid: 1, tid: 11, name: "pred" }),
            ev(300, EventKind::BatchBegin { id: 7, requests: 1, occupancy_pct: 10, new_tokens: 4 }),
            ev(
                300,
                EventKind::PredExec { pid: 1, tid: 11, batch: 7, tokens: 4, enqueued_at: t(250) },
            ),
            ev(900, EventKind::BatchEnd { id: 7 }),
            ev(950, EventKind::SyscallExit { pid: 1, tid: 11, name: "pred" }),
            ev(960, EventKind::ThreadExit { pid: 1, tid: 11, ok: true }),
            ev(1000, EventKind::SyscallEnter { pid: 1, tid: 10, name: "join" }),
            ev(
                1000,
                EventKind::CausalEdge {
                    edge: EdgeKind::Join,
                    src_pid: 1,
                    src_tid: 11,
                    src_at: t(960),
                    dst_pid: 1,
                    dst_tid: 10,
                },
            ),
            ev(1050, EventKind::SyscallExit { pid: 1, tid: 10, name: "join" }),
            ev(1100, EventKind::ThreadExit { pid: 1, tid: 10, ok: true }),
            ev(1100, EventKind::ProcessExit { pid: 1, ok: true }),
        ]
    }

    #[test]
    fn forest_reconstructs_programs_threads_and_spans() {
        let forest = build_forest(&small_stream());
        assert_eq!(forest.programs.len(), 1);
        let p = &forest.programs[0];
        assert_eq!(p.pid, 1);
        assert_eq!(p.name, "agent");
        assert_eq!(p.elapsed_ns(), 1_100);
        assert!(p.ok);
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.threads[0].tid, 10);
        assert_eq!(p.span_count(), 3);
    }

    #[test]
    fn spawn_edges_set_parent_and_exec_windows_attach_to_pred() {
        let forest = build_forest(&small_stream());
        let sibling = forest.thread(1, 11).expect("sibling thread");
        let by = sibling.spawned_by.expect("spawn edge");
        assert_eq!(by.edge, EdgeKind::Spawn);
        assert_eq!((by.src_pid, by.src_tid), (1, 10));
        let pred = &sibling.spans[0];
        assert_eq!(pred.name, "pred");
        assert_eq!(pred.enqueued_at, Some(t(250)));
        assert_eq!(
            pred.execs,
            vec![ExecWindow { start: t(300), end: t(900), tokens: 4 }]
        );
    }

    #[test]
    fn join_edge_becomes_wake_on_the_joining_span() {
        let forest = build_forest(&small_stream());
        let main = forest.thread(1, 10).expect("main thread");
        let join = main.spans.iter().find(|s| s.name == "join").expect("join span");
        let wake = join.wake.expect("wake edge");
        assert_eq!(wake.edge, EdgeKind::Join);
        assert_eq!((wake.src_pid, wake.src_tid), (1, 11));
        assert_eq!(wake.src_at, t(960));
    }

    #[test]
    fn open_spans_and_missing_exits_close_at_stream_end() {
        let mut events = small_stream();
        events.truncate(9); // ends right after PredExec; pred still open
        let forest = build_forest(&events);
        let sibling = forest.thread(1, 11).expect("sibling thread");
        assert_eq!(sibling.spans.len(), 1);
        assert_eq!(sibling.spans[0].end, t(300));
        let p = &forest.programs[0];
        assert!(!p.ok);
        assert_eq!(p.exited_at, t(300));
    }

    #[test]
    fn replay_marks_the_open_span() {
        let events = vec![
            ev(0, EventKind::ProcessSpawn { pid: 2, name: "r".into() }),
            ev(0, EventKind::ThreadSpawn { pid: 2, tid: 20 }),
            ev(10, EventKind::SyscallEnter { pid: 2, tid: 20, name: "call_tool" }),
            ev(10, EventKind::ReplayAnswered { pid: 2, tid: 20, sys: "call_tool" }),
            ev(20, EventKind::SyscallExit { pid: 2, tid: 20, name: "call_tool" }),
            ev(30, EventKind::ThreadExit { pid: 2, tid: 20, ok: true }),
            ev(30, EventKind::ProcessExit { pid: 2, ok: true }),
        ];
        let forest = build_forest(&events);
        let t0 = forest.thread(2, 20).expect("thread");
        assert!(t0.spans[0].replayed);
    }
}
