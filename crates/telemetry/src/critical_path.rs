//! Critical-path extraction and wall-clock phase attribution.
//!
//! [`analyze`] walks each program's reconstructed tree
//! ([`crate::trace_tree::TraceForest`]) *backwards* from program exit,
//! always following the edge that explains why the current point had to
//! wait: a `recv`/`join` span follows its [`SyscallSpan::wake`] edge to the
//! sender/exiter (possibly in another process), a sibling thread's start
//! follows its spawn edge to the parent, and every interval walked is
//! attributed to exactly one [`Phase`] bucket. The walk partitions
//! `[spawn, exit]` with no gaps and no overlaps, so a program's phase
//! buckets always sum *exactly* to its end-to-end latency — coverage is
//! 100% by construction, and any uninstrumented time shows up honestly as
//! [`Phase::Other`] rather than vanishing.
//!
//! This is the program-level view the paper argues serving systems lack:
//! per-request metrics can say a `pred` took 4 ms, but only the critical
//! path can say the *program* spent 60% of its life queue-waiting behind
//! an unrelated fleet. [`render_report`] produces a byte-stable text
//! report (used as a golden regression artifact), and
//! [`crate::flame::collapsed_stacks`] renders the same attribution as
//! flamegraph.pl input.

use symphony_sim::SimTime;

use crate::trace_tree::{ProgramTrace, SyscallSpan, ThreadTrace, TraceForest};

/// Exclusive wall-clock buckets on a program's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pooled `pred` time before (or between) GPU execution windows.
    QueueWait,
    /// GPU execution windows contributing >1 new token.
    Prefill,
    /// GPU execution windows contributing exactly one token.
    Decode,
    /// Waiting on a transfer into HBM (PCIe/NVMe): `kv_swap_in` syscalls,
    /// and the part of a pooled `pred`'s wait during which the executor
    /// was swapping its file back in.
    KvSwapIn,
    /// `kv_swap_out` syscalls (transfer out of HBM).
    KvSwapOut,
    /// `call_tool` syscalls (virtual tool I/O).
    Tool,
    /// Blocked in `recv`/`join` waiting on another thread's progress.
    IpcBlocked,
    /// Syscalls answered from the WAL effect journal during recovery.
    RecoveryReplay,
    /// Everything else: on-CPU work between syscalls, cheap metadata
    /// syscalls, spawn/send overhead.
    Other,
}

/// All phases, in report order.
pub const PHASES: [Phase; 9] = [
    Phase::QueueWait,
    Phase::Prefill,
    Phase::Decode,
    Phase::KvSwapIn,
    Phase::KvSwapOut,
    Phase::Tool,
    Phase::IpcBlocked,
    Phase::RecoveryReplay,
    Phase::Other,
];

impl Phase {
    /// Stable kebab-case label used in reports and collapsed stacks.
    pub fn label(self) -> &'static str {
        match self {
            Phase::QueueWait => "queue-wait",
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::KvSwapIn => "kv-swap-in",
            Phase::KvSwapOut => "kv-swap-out",
            Phase::Tool => "tool",
            Phase::IpcBlocked => "ipc-blocked",
            Phase::RecoveryReplay => "recovery-replay",
            Phase::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::QueueWait => 0,
            Phase::Prefill => 1,
            Phase::Decode => 2,
            Phase::KvSwapIn => 3,
            Phase::KvSwapOut => 4,
            Phase::Tool => 5,
            Phase::IpcBlocked => 6,
            Phase::RecoveryReplay => 7,
            Phase::Other => 8,
        }
    }
}

/// One program's end-to-end latency attributed into phase buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBreakdown {
    /// Program pid.
    pub pid: u64,
    /// Program name.
    pub name: String,
    /// End-to-end latency (spawn → exit) in virtual nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds per phase, indexed in [`PHASES`] order.
    pub phase_ns: [u64; 9],
}

impl LatencyBreakdown {
    /// Nanoseconds attributed to one phase.
    pub fn get(&self, phase: Phase) -> u64 {
        self.phase_ns[phase.index()]
    }

    /// Sum across all buckets (equals [`Self::total_ns`] by construction).
    pub fn attributed_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Attributed fraction of end-to-end latency (1.0 by construction;
    /// anything lower signals a reconstruction bug).
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            1.0
        } else {
            self.attributed_ns() as f64 / self.total_ns as f64
        }
    }
}

/// Cap on backward-walk steps per program — a defensive bound far above
/// any real trace; on overrun the remainder is attributed to `Other`.
const MAX_STEPS: u32 = 1_000_000;

struct Walker<'a> {
    forest: &'a TraceForest,
    floor: SimTime,
    phase_ns: [u64; 9],
}

impl<'a> Walker<'a> {
    fn add(&mut self, phase: Phase, lo: SimTime, hi: SimTime) {
        let lo = lo.max(self.floor);
        if hi > lo {
            self.phase_ns[phase.index()] += hi.as_nanos() - lo.as_nanos();
        }
    }

    /// Attributes one clamped span interval `[span.start, end]`; returns
    /// the new cursor and, for wake jumps, the thread to continue on.
    fn attribute_span(
        &mut self,
        span: &SyscallSpan,
        end: SimTime,
    ) -> (SimTime, Option<(u64, u64)>) {
        if span.replayed {
            self.add(Phase::RecoveryReplay, span.start, end);
            return (span.start, None);
        }
        match span.name {
            "pred" => {
                self.attribute_pred(span, end);
                (span.start, None)
            }
            "kv_swap_in" => {
                self.add(Phase::KvSwapIn, span.start, end);
                (span.start, None)
            }
            "kv_swap_out" => {
                self.add(Phase::KvSwapOut, span.start, end);
                (span.start, None)
            }
            "call_tool" => {
                self.add(Phase::Tool, span.start, end);
                (span.start, None)
            }
            "recv" | "join" => {
                // Follow the wake edge: everything after the wake point is
                // wake-up latency here; everything before it is whatever
                // the *source* thread was doing, so the walk jumps there.
                match span.wake {
                    Some(w) if w.src_at > span.start => {
                        let jump = w.src_at.min(end);
                        self.add(Phase::IpcBlocked, jump, end);
                        if self.forest.thread(w.src_pid, w.src_tid).is_some() {
                            (jump, Some((w.src_pid, w.src_tid)))
                        } else {
                            self.add(Phase::IpcBlocked, span.start, jump);
                            (span.start, None)
                        }
                    }
                    _ => {
                        // Message already waiting (or no causal data):
                        // the span is pure dequeue cost, no jump.
                        self.add(Phase::IpcBlocked, span.start, end);
                        (span.start, None)
                    }
                }
            }
            _ => {
                self.add(Phase::Other, span.start, end);
                (span.start, None)
            }
        }
    }

    /// Splits a `pred` span into GPU execution windows (prefill/decode)
    /// and the waiting remainder, walking the windows back to front.
    fn attribute_pred(&mut self, span: &SyscallSpan, end: SimTime) {
        let mut cursor = end;
        for w in span.execs.iter().rev() {
            let ws = w.start.max(span.start).min(cursor);
            let we = w.end.min(cursor).max(ws);
            self.add_wait(span, we, cursor);
            let phase = if w.tokens > 1 { Phase::Prefill } else { Phase::Decode };
            self.add(phase, ws, we);
            cursor = ws;
        }
        self.add_wait(span, span.start, cursor);
    }

    /// Attributes a `pred`'s non-executing interval `[lo, hi]`: the parts
    /// inside one of its swap-in windows are transfer wait, the rest is
    /// queueing.
    fn add_wait(&mut self, span: &SyscallSpan, lo: SimTime, hi: SimTime) {
        if hi <= lo {
            return;
        }
        let mut cursor = lo;
        for &(issued, ready) in &span.swap_ins {
            let s = issued.clamp(cursor, hi);
            let e = ready.clamp(s, hi);
            self.add(Phase::QueueWait, cursor, s);
            self.add(Phase::KvSwapIn, s, e);
            cursor = e;
        }
        self.add(Phase::QueueWait, cursor, hi);
    }
}

/// Extracts the critical path of one program and attributes its
/// end-to-end latency into phase buckets. The walk may cross into other
/// programs' threads through IPC wake edges — time another program spent
/// producing a message this one waited for *is* this program's critical
/// path.
pub fn critical_path(forest: &TraceForest, program: &ProgramTrace) -> LatencyBreakdown {
    let floor = program.spawned_at;
    let mut walker = Walker {
        forest,
        floor,
        phase_ns: [0; 9],
    };
    // Walk back from the thread that finished last: program exit waits on
    // every thread, so the last exiter ends the critical path.
    let mut cur: Option<&ThreadTrace> = program
        .threads
        .iter()
        .max_by_key(|t| (t.ended_at, t.tid));
    let mut cursor = program.exited_at;
    let mut steps = 0u32;
    while cursor > floor {
        steps += 1;
        let Some(thread) = cur else { break };
        if steps > MAX_STEPS {
            break;
        }
        let span = thread.spans.iter().rev().find(|s| s.start < cursor);
        match span {
            Some(span) => {
                let end = span.end.min(cursor);
                // Gap between the span and the cursor: on-CPU user code.
                walker.add(Phase::Other, end, cursor);
                let (next, jump) = walker.attribute_span(span, end);
                cursor = next;
                if let Some((pid, tid)) = jump {
                    cur = walker.forest.thread(pid, tid);
                }
            }
            None => {
                // Below every span on this thread: its start region.
                match thread.spawned_by {
                    Some(link) if walker.forest.thread(link.src_pid, link.src_tid).is_some() => {
                        let jump = link.src_at.min(cursor);
                        walker.add(Phase::Other, jump, cursor);
                        cursor = jump;
                        cur = walker.forest.thread(link.src_pid, link.src_tid);
                    }
                    _ => break,
                }
            }
        }
    }
    // Anything left below the cursor (walk exhausted, step cap, or a
    // rootless thread) is honestly unexplained.
    walker.add(Phase::Other, floor, cursor);
    LatencyBreakdown {
        pid: program.pid,
        name: program.name.clone(),
        total_ns: program.elapsed_ns(),
        phase_ns: walker.phase_ns,
    }
}

/// Critical-path breakdowns for every program in the forest, pid order.
pub fn analyze(forest: &TraceForest) -> Vec<LatencyBreakdown> {
    forest
        .programs
        .iter()
        .map(|p| critical_path(forest, p))
        .collect()
}

/// Permille of `part` in `whole`, rendered as a one-decimal percentage —
/// integer arithmetic, so byte-stable across platforms.
fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "0.0".into();
    }
    let permille = (part as u128 * 1000 + whole as u128 / 2) / whole as u128;
    format!("{}.{}", permille / 10, permille % 10)
}

/// Renders breakdowns as a byte-stable text report (a golden artifact:
/// same seed → same trace → same report bytes).
pub fn render_report(breakdowns: &[LatencyBreakdown]) -> String {
    let mut out = String::from("critical-path report\n====================\n");
    for b in breakdowns {
        out.push_str(&format!(
            "\nprogram {} (pid {}): total {}ns\n",
            if b.name.is_empty() { "?" } else { &b.name },
            b.pid,
            b.total_ns
        ));
        for phase in PHASES {
            let ns = b.get(phase);
            if ns == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<16}{:>12}ns  {:>5}%\n",
                phase.label(),
                ns,
                pct(ns, b.total_ns)
            ));
        }
        out.push_str(&format!(
            "  {:<16}{:>12}ns  {:>5}%\n",
            "attributed",
            b.attributed_ns(),
            pct(b.attributed_ns(), b.total_ns)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EdgeKind, EventKind, TimedEvent};
    use crate::trace_tree::build_forest;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn ev(at: u64, kind: EventKind) -> TimedEvent {
        TimedEvent { at: t(at), kind }
    }

    /// Main thread spawns a worker, worker runs a pred (queue 100ns,
    /// prefill 600ns), main blocks in join for the duration.
    fn agent_stream() -> Vec<TimedEvent> {
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
            ev(200, EventKind::SyscallEnter { pid: 1, tid: 10, name: "join" }),
            ev(200, EventKind::SyscallEnter { pid: 1, tid: 11, name: "pred" }),
            ev(300, EventKind::BatchBegin { id: 1, requests: 1, occupancy_pct: 10, new_tokens: 4 }),
            ev(
                300,
                EventKind::PredExec { pid: 1, tid: 11, batch: 1, tokens: 4, enqueued_at: t(200) },
            ),
            ev(900, EventKind::BatchEnd { id: 1 }),
            ev(950, EventKind::SyscallExit { pid: 1, tid: 11, name: "pred" }),
            ev(960, EventKind::ThreadExit { pid: 1, tid: 11, ok: true }),
            ev(
                960,
                EventKind::CausalEdge {
                    edge: EdgeKind::Join,
                    src_pid: 1,
                    src_tid: 11,
                    src_at: t(960),
                    dst_pid: 1,
                    dst_tid: 10,
                },
            ),
            ev(1000, EventKind::SyscallExit { pid: 1, tid: 10, name: "join" }),
            ev(1100, EventKind::ThreadExit { pid: 1, tid: 10, ok: true }),
            ev(1100, EventKind::ProcessExit { pid: 1, ok: true }),
        ]
    }

    #[test]
    fn buckets_partition_the_whole_program() {
        let forest = build_forest(&agent_stream());
        let breakdowns = analyze(&forest);
        assert_eq!(breakdowns.len(), 1);
        let b = &breakdowns[0];
        assert_eq!(b.total_ns, 1_100);
        assert_eq!(b.attributed_ns(), b.total_ns, "exact partition");
        assert!((b.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn join_jump_walks_into_the_worker_pred() {
        let forest = build_forest(&agent_stream());
        let b = &analyze(&forest)[0];
        // Walk: [1000,1100] gap → other; join wake at 960 → ipc-blocked
        // [960,1000]; jump to worker tid 11: gap [950,960] other; pred
        // [200,950]: queue [900,950], prefill [300,900], queue [200,300];
        // below worker spans: spawn edge at 100 → other [100,200]; on main
        // below 100: gap [0,100] other.
        assert_eq!(b.get(Phase::IpcBlocked), 40);
        assert_eq!(b.get(Phase::Prefill), 600);
        assert_eq!(b.get(Phase::QueueWait), 150);
        assert_eq!(b.get(Phase::Decode), 0);
        assert_eq!(b.get(Phase::Other), 310);
    }

    #[test]
    fn decode_windows_and_swap_spans_bucket_separately() {
        let events = vec![
            ev(0, EventKind::ProcessSpawn { pid: 3, name: "rag".into() }),
            ev(0, EventKind::ThreadSpawn { pid: 3, tid: 30 }),
            ev(10, EventKind::SyscallEnter { pid: 3, tid: 30, name: "kv_swap_in" }),
            ev(60, EventKind::SyscallExit { pid: 3, tid: 30, name: "kv_swap_in" }),
            ev(60, EventKind::SyscallEnter { pid: 3, tid: 30, name: "pred" }),
            ev(70, EventKind::BatchBegin { id: 9, requests: 1, occupancy_pct: 5, new_tokens: 1 }),
            ev(
                70,
                EventKind::PredExec { pid: 3, tid: 30, batch: 9, tokens: 1, enqueued_at: t(60) },
            ),
            ev(100, EventKind::BatchEnd { id: 9 }),
            ev(110, EventKind::SyscallExit { pid: 3, tid: 30, name: "pred" }),
            ev(120, EventKind::ThreadExit { pid: 3, tid: 30, ok: true }),
            ev(120, EventKind::ProcessExit { pid: 3, ok: true }),
        ];
        let forest = build_forest(&events);
        let b = &analyze(&forest)[0];
        assert_eq!(b.get(Phase::KvSwapIn), 50);
        assert_eq!(b.get(Phase::Decode), 30);
        assert_eq!(b.get(Phase::QueueWait), 20);
        assert_eq!(b.get(Phase::Other), 20);
        assert_eq!(b.attributed_ns(), 120);
    }

    #[test]
    fn executor_swap_in_window_splits_a_pred_wait() {
        use crate::event::SwapDir;
        // pred [10,120]: queued [10,20], its file swapped in over [20,70],
        // then one more idle gap [70,80] before the decode step [80,110].
        let events = vec![
            ev(
                0,
                EventKind::ProcessSpawn {
                    pid: 4,
                    name: "rag".into(),
                },
            ),
            ev(0, EventKind::ThreadSpawn { pid: 4, tid: 40 }),
            ev(
                10,
                EventKind::SyscallEnter {
                    pid: 4,
                    tid: 40,
                    name: "pred",
                },
            ),
            ev(
                20,
                EventKind::KvSwap {
                    pid: 4,
                    tid: 40,
                    file: 1,
                    tokens: 64,
                    disk_tokens: 0,
                    dir: SwapDir::In,
                    done_at: t(70),
                },
            ),
            ev(
                80,
                EventKind::BatchBegin {
                    id: 2,
                    requests: 1,
                    occupancy_pct: 5,
                    new_tokens: 1,
                },
            ),
            ev(
                80,
                EventKind::PredExec {
                    pid: 4,
                    tid: 40,
                    batch: 2,
                    tokens: 1,
                    enqueued_at: t(10),
                },
            ),
            ev(110, EventKind::BatchEnd { id: 2 }),
            ev(
                120,
                EventKind::SyscallExit {
                    pid: 4,
                    tid: 40,
                    name: "pred",
                },
            ),
            ev(
                120,
                EventKind::ThreadExit {
                    pid: 4,
                    tid: 40,
                    ok: true,
                },
            ),
            ev(120, EventKind::ProcessExit { pid: 4, ok: true }),
        ];
        let b = &analyze(&build_forest(&events))[0];
        assert_eq!(b.get(Phase::KvSwapIn), 50);
        assert_eq!(b.get(Phase::QueueWait), 30);
        assert_eq!(b.get(Phase::Decode), 30);
        assert_eq!(b.attributed_ns(), 120);
    }

    #[test]
    fn report_is_byte_stable() {
        let forest = build_forest(&agent_stream());
        let breakdowns = analyze(&forest);
        let a = render_report(&breakdowns);
        let b = render_report(&breakdowns);
        assert_eq!(a, b);
        assert!(a.contains("program agent (pid 1): total 1100ns"));
        assert!(a.contains("prefill"));
        assert!(a.contains("100.0%"));
    }
}
