//! The typed event taxonomy recorded by the kernel on the virtual clock.
//!
//! Events are *data*, not strings: the hot path constructs an [`EventKind`]
//! only when a collector is installed (see [`crate::EventBus::emit`]), and
//! the Chrome exporter renders names/args at export time. Every event is
//! stamped with the [`SimTime`] at which the kernel observed it, so two
//! same-seed runs produce identical event streams.

use symphony_sim::SimTime;

/// Direction of a KV swap transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapDir {
    /// CPU DRAM → GPU HBM.
    In,
    /// GPU HBM → CPU DRAM.
    Out,
}

/// The causal relationship carried by an [`EventKind::CausalEdge`].
///
/// Each variant names *why* the destination thread made progress at the
/// edge's timestamp: the edge points from the event that enabled the
/// progress (the source, at `src_at`) to the thread that benefited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `spawn` syscall → the new thread's first instruction.
    Spawn,
    /// IPC `send_msg` → the `recv` that consumed the message.
    Ipc,
    /// A thread's exit → the `join` it unblocked.
    Join,
    /// `call_tool` issue → the I/O completion delivering the result.
    Tool,
    /// KV-swap preemption: the victim's swap-out → the beneficiary
    /// sequence whose swap-in it funded.
    Preempt,
}

impl EdgeKind {
    /// Stable lowercase label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Spawn => "spawn",
            EdgeKind::Ipc => "ipc",
            EdgeKind::Join => "join",
            EdgeKind::Tool => "tool",
            EdgeKind::Preempt => "preempt",
        }
    }
}

/// One telemetry event. Span events come in `*Enter`/`*Exit` (or
/// `Batch{Begin,End}`) pairs on the same logical track; everything else is
/// an instant.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A process record was created and its main thread started.
    ProcessSpawn { pid: u64, name: String },
    /// All of a process's threads exited; resources reclaimed.
    ProcessExit { pid: u64, ok: bool },
    /// A LIP thread started (main or sibling).
    ThreadSpawn { pid: u64, tid: u64 },
    /// A LIP thread exited.
    ThreadExit { pid: u64, tid: u64, ok: bool },
    /// Span begin: a thread entered the kernel with a system call.
    SyscallEnter {
        pid: u64,
        tid: u64,
        name: &'static str,
    },
    /// Span end: the kernel delivered the reply and the thread resumed.
    SyscallExit {
        pid: u64,
        tid: u64,
        name: &'static str,
    },
    /// The thread scheduler handed the CPU to a thread (scheduler track).
    SchedDispatch { tid: u64 },
    /// A `pred` call joined the inference pool (scheduler track).
    PredEnqueue { tid: u64, tokens: u32, pool: u32 },
    /// Span begin: a GPU batch launched (GPU track).
    BatchBegin {
        id: u64,
        requests: u32,
        /// Requests as a percentage of the global batch cap.
        occupancy_pct: u32,
        new_tokens: u64,
    },
    /// Span end: the GPU batch completed (GPU track).
    BatchEnd { id: u64 },
    /// One chunk of a chunked prefill ran inside an iteration (GPU track).
    /// `done`/`total` track the request's progress after this chunk.
    ChunkExec {
        tid: u64,
        batch: u64,
        tokens: u32,
        done: u32,
        total: u32,
    },
    /// A KV file was swapped out to free GPU pages for a `pred`, executing
    /// or arriving (scheduler track). `victim_tid` is the preempted
    /// sequence's thread, or 0 when the victim was an idle file.
    Preempt {
        file: u64,
        tokens: u64,
        victim_tid: u64,
    },
    /// A KVFS namespace/metadata/data operation (thread track).
    KvOp {
        pid: u64,
        tid: u64,
        op: &'static str,
        file: u64,
    },
    /// Copy-on-write page copies performed while executing a batch
    /// (GPU track; count is the delta for that batch).
    KvCow { copies: u64 },
    /// A KV swap across the PCIe boundary on behalf of a thread — its own
    /// `kv_swap_*` syscall, or the continuous executor bringing its file
    /// back for a pooled `pred` (thread track). `disk_tokens` counts the
    /// subset that crossed the NVMe lane too (disk-tier spill or load);
    /// zero for pure DRAM swaps. The transfer occupies its copy lane over
    /// `[at, done_at]`; the thread cannot run on the file before `done_at`.
    KvSwap {
        pid: u64,
        tid: u64,
        file: u64,
        tokens: u64,
        disk_tokens: u64,
        dir: SwapDir,
        done_at: SimTime,
    },
    /// A tool call was made: one attempt taking `latency_ns` of virtual
    /// I/O time (thread track).
    ToolInvoke {
        pid: u64,
        tid: u64,
        tool: String,
        latency_ns: u64,
    },
    /// The fault injector fired at a site (scheduler track).
    FaultInjected { site: &'static str },
    /// A process's wall-clock deadline passed (process track).
    DeadlineHit { pid: u64 },
    /// A KV file was offloaded to host memory during an I/O wait.
    KvOffload { pid: u64, file: u64 },
    /// Offloaded KV was restored after I/O completion.
    KvRestore { pid: u64, tokens: u64 },
    /// An IPC message was dropped in flight (scheduler track).
    IpcDrop { from: u64, to: u64 },
    /// The kernel crashed at an injected syscall-boundary kill point
    /// (scheduler track; the last event a crashed run records).
    KernelCrash { boundary: u64 },
    /// A WAL checkpoint frame was written; `wal_bytes` is the log's length
    /// after it (scheduler track).
    WalCheckpoint { wal_bytes: u64 },
    /// A recovered kernel re-admitted journalled programs (scheduler
    /// track; the first event a recovered run records).
    KernelRecovery { resumed: u64, replayed_frames: u64 },
    /// A causal edge between two points on the span DAG (emitted at the
    /// *destination* time; `src_at` records when the source half
    /// happened). Only recorded when `KernelConfig::causal` is on.
    CausalEdge {
        edge: EdgeKind,
        src_pid: u64,
        src_tid: u64,
        src_at: SimTime,
        dst_pid: u64,
        dst_tid: u64,
    },
    /// A pooled `pred` entered a GPU batch: the scheduler→GPU causal hop.
    /// `tokens` is the new tokens this member contributes to the batch
    /// (>1 ⇒ prefill work, 1 ⇒ a decode step); `enqueued_at` is when the
    /// pred joined the pool, so `at - enqueued_at` is its queue wait.
    /// Only recorded when `KernelConfig::causal` is on.
    PredExec {
        pid: u64,
        tid: u64,
        batch: u64,
        tokens: u32,
        enqueued_at: SimTime,
    },
    /// A syscall was answered from the WAL effect journal during recovery
    /// replay instead of executing (thread track). Only recorded when
    /// `KernelConfig::causal` is on.
    ReplayAnswered {
        pid: u64,
        tid: u64,
        sys: &'static str,
    },
    /// A front-door client connection opened (serving layer). Rendered on
    /// the dedicated serve track; absent from kernel-only traces.
    ConnOpen {
        /// Server-assigned connection id.
        conn: u64,
        /// Tenant the connection authenticated as.
        tenant: u64,
    },
    /// A front-door client connection closed (clean bye, drop fault, or
    /// protocol error).
    ConnClose {
        conn: u64,
        /// Close cause: `"bye"`, `"drop"`, `"error"`, `"slow"`.
        reason: &'static str,
    },
    /// A submitted program was accepted and spawned: the session span
    /// opens (serve track, one thread lane per connection).
    SessionBegin {
        conn: u64,
        /// Client-chosen session id (unique per connection).
        session: u64,
        /// Kernel process actually running the program.
        pid: u64,
        tenant: u64,
    },
    /// The session's program finished (or was cancelled): the span closes.
    SessionEnd {
        conn: u64,
        session: u64,
        pid: u64,
        ok: bool,
    },
}

/// An event stamped with virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Virtual time at which the kernel observed the event.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}
