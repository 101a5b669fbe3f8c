//! The Symphony kernel: event loop, syscall dispatch, the two-level
//! scheduler, and I/O with KV offload. The process table and a process's
//! way through it live in [`crate::proc`]; writing the WAL and recovering
//! from it in [`crate::recovery`].
//!
//! # Determinism
//!
//! The kernel is the only scheduler: it delivers one reply, then takes
//! *that* thread's next syscall (or exit) before touching anything else,
//! by stepping the thread's body on the kernel's own thread. Every body is
//! stepped the same way; a native closure is a body whose step waits for
//! the OS thread the closure runs on (see [`crate::syscall`]).
//! Combined with the virtual clock and seeded RNG streams, a whole serving
//! run replays bit-identically — the integration tests compare the typed
//! telemetry streams of two runs.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use symphony_gpu::{DeviceSpec, ExecError, GpuExecutor, GpuMetrics, PredRequest};
use symphony_kvfs::{
    FileId, KvError, KvStats, KvStore, KvStoreConfig, Mode, OwnerId, Residency, RestoreReport,
    SwapReport,
};
use symphony_model::surrogate::VocabInfo;
use symphony_model::{ModelConfig, Preds, Surrogate, TokenId, WorkEstimate};
use symphony_sim::{EventQueue, IdSlab, Rng, SimDuration, SimTime};
use symphony_telemetry::{
    export_chrome_trace, latency_bounds_ns, occupancy_bounds, percent_bounds, Counter, EdgeKind,
    EventBus, EventKind, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, SwapDir, TimedEvent,
};
use symphony_tokenizer::Bpe;

use crate::faults::{FaultInjector, FaultPlan, ToolFaultKind};
use crate::hosted::HostedMetrics;
use crate::proc::{Proc, ThreadState};
use crate::recovery::Asked;
use crate::sched::{
    threads_parked_gate, BatchGate, BatchPolicy, Decision, ExecMode, ProgramQueue, QueueDiscipline,
};
use crate::syscall::{Body, Ctx, Next, SysReply, Syscall};
use crate::tools::{ToolOutcome, ToolRegistry, ToolSpec};
use crate::types::{ExitStatus, Pid, ProcessUsage, SysError, Tid};
use crate::wal::{self, Effect, EffectClass, WalConfig, WalState};

/// A native program that can run again: unlike the plain `FnOnce` closures
/// accepted by [`Kernel::spawn_process`], an image can be invoked again
/// after a kernel crash, so a resolver handed to [`Kernel::recover`] can
/// map the program's name back to it (`Body::from(image)`) and the kernel
/// re-executes it from its start while answering journalled syscall
/// effects from the WAL. A LipScript program needs none: its admission
/// frame carries its text.
pub type ProgramImage = Arc<dyn Fn(&mut Ctx) -> Result<(), SysError> + Send + Sync + 'static>;

/// Kernel construction parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Served model shape (drives cost and KV footprint).
    pub model: ModelConfig,
    /// Seed of the surrogate model's behaviour.
    pub model_seed: u64,
    /// Simulated accelerator.
    pub device: DeviceSpec,
    /// Preset of the GPU loop (§4.4): run-to-completion batches gated by
    /// a [`BatchPolicy`] ([`ExecMode::Static`]) or iteration-level
    /// continuous batching with chunked prefill and KVFS preemption
    /// ([`ExecMode::Continuous`]).
    pub exec: ExecMode,
    /// Global cap on requests per GPU batch.
    pub max_batch: usize,
    /// Tokens per KVFS page.
    pub page_tokens: usize,
    /// Host-memory KV swap space in bytes.
    pub cpu_swap_bytes: u64,
    /// NVMe disk-tier KV spill space in bytes. Zero disables the disk tier:
    /// DRAM exhaustion surfaces as `NoCpuMemory` exactly as before.
    pub disk_swap_bytes: u64,
    /// Warm restart: boot the KV store from the KV batches of the kernel
    /// log at this path when the file exists — a log some kernel wrote
    /// with [`KernelConfig::wal`] set — the way [`Kernel::recover`] boots
    /// its store, with no program to re-execute.
    pub journal_path: Option<std::path::PathBuf>,
    /// Overrides the device-derived GPU KV budget (tests use tiny pools).
    pub gpu_kv_bytes_override: Option<u64>,
    /// Virtual CPU cost charged per system call.
    pub syscall_cost: SimDuration,
    /// Offload a process's KV files to host memory while it waits on I/O.
    pub offload_on_io_wait: bool,
    /// Only offload for tool calls at least this slow — and then only the
    /// files whose copy out and back over PCIe fits inside the call.
    pub offload_min_latency: SimDuration,
    /// Kernel RNG seed (tool latencies, LIP thread RNG streams).
    pub seed: u64,
    /// Record typed telemetry events for Chrome-trace export. When `false`
    /// (the default) the event bus is a no-op: no event is ever constructed.
    pub telemetry: bool,
    /// Additionally record *causal* events (spawn/IPC/join/tool/preempt
    /// edges, per-batch pred executions, replay hits) so the event stream
    /// reconstructs into per-program span DAGs
    /// (`symphony_telemetry::TraceForest`). Off by default: traces recorded
    /// without it stay byte-identical to the pre-causal format. Only
    /// meaningful together with `telemetry`.
    pub causal: bool,
    /// Fault-injection plan (all-zero = no faults, no extra RNG draws).
    pub faults: FaultPlan,
    /// Kernel write-ahead log for crash tolerance; `None` disables
    /// journalling (and [`Kernel::recover`] fails with
    /// [`WalError::Disabled`]).
    pub wal: Option<WalConfig>,
}

impl KernelConfig {
    /// Small, fast configuration for unit tests: tiny model, test device,
    /// immediate batching, zero syscall cost.
    pub fn for_tests() -> Self {
        KernelConfig {
            model: ModelConfig::tiny(),
            model_seed: 7,
            device: DeviceSpec::test_device(),
            exec: ExecMode::Static(BatchPolicy::Immediate),
            max_batch: 64,
            page_tokens: 4,
            cpu_swap_bytes: 4_000_000,
            // No disk tier in tests by default: golden traces and capacity
            // assertions depend on the two-tier behaviour.
            disk_swap_bytes: 0,
            journal_path: None,
            gpu_kv_bytes_override: None,
            syscall_cost: SimDuration::ZERO,
            offload_on_io_wait: false,
            offload_min_latency: SimDuration::from_millis(10),
            seed: 42,
            telemetry: false,
            causal: false,
            faults: FaultPlan::none(),
            wal: None,
        }
    }

    /// The paper's evaluation setup: Llama-13B on an A100-80G with adaptive
    /// batching.
    pub fn paper_setup() -> Self {
        KernelConfig {
            model: ModelConfig::llama_13b(),
            model_seed: 13,
            device: DeviceSpec::a100_80g(),
            exec: ExecMode::Static(BatchPolicy::Adaptive {
                target_batch: 16,
                max_wait: SimDuration::from_millis(10),
            }),
            max_batch: 64,
            page_tokens: 16,
            cpu_swap_bytes: 256_000_000_000,
            disk_swap_bytes: 1_000_000_000_000,
            journal_path: None,
            gpu_kv_bytes_override: None,
            syscall_cost: SimDuration::from_micros(2),
            offload_on_io_wait: true,
            offload_min_latency: SimDuration::from_millis(20),
            seed: 42,
            telemetry: false,
            causal: false,
            faults: FaultPlan::none(),
            wal: None,
        }
    }
}

/// What [`ExecMode`] lowers to, once, in `Kernel::build`: the four things
/// the GPU loop reads as data.
struct LoopPreset {
    /// The mode's `chunk_tokens`: the most tokens one sequence contributes
    /// to an iteration, and never more than that iteration's budget (or one
    /// KV page, if that is larger). Unbounded where a slice is the whole
    /// request.
    chunk: usize,
    /// The floor of the new tokens the sequences of one iteration share:
    /// the roofline ridge ([`GpuExecutor::ridge_tokens`]) where prefills
    /// are chunked, unbounded otherwise. Phase 2 of `launch_iteration`
    /// raises it to the most tokens that keep that iteration memory-bound
    /// ([`GpuExecutor::roofline_budget`]), hands it out shortest-remaining
    /// first, and once it is spent every remaining sequence still advances
    /// one KV page.
    budget: usize,
    gate: LaunchGate,
    /// The kernel keeps admitted sequences' KV on the GPU itself: swaps it
    /// in, evicts idle files, preempts peers. When `false`, residency is
    /// the program's business and a `pred` that does not fit or whose file
    /// is off the GPU fails.
    manages_residency: bool,
}

impl LoopPreset {
    /// The most tokens one sequence takes from an iteration whose budget
    /// is `budget`.
    fn cap(&self, budget: usize, page: usize) -> usize {
        self.chunk.min(budget.max(page))
    }

    /// A sequence's slice at the budget's floor: what a swap-in reserves
    /// headroom for beside the file's own pages.
    fn slice(&self, page: usize) -> usize {
        self.cap(self.budget, page)
    }
}

/// When an idle GPU with work waiting may start an iteration. Either gate
/// is asked once per virtual instant, after the thread level has run dry
/// (`maybe_launch_iteration`): `pred`s that pool at one instant are seen
/// together, by whichever gate.
enum LaunchGate {
    /// When the [`BatchPolicy`] says the pool is worth closing. The policy
    /// looks at the pool only: a thread still on the CPU at a *later*
    /// instant (non-zero syscall cost, staggered arrivals) is not waited
    /// for.
    Batch(BatchGate),
    /// When no LIP thread is runnable ([`threads_parked_gate`]). Sampling
    /// runs in the LIP, so the threads an iteration just woke are on the
    /// CPU for a few syscalls before their next `pred` pools; launching
    /// ahead of them would leave with whoever was already queued and split
    /// the live sequences into two cohorts that take turns. At zero
    /// per-syscall cost the whole cascade is one virtual instant, no thread
    /// is runnable once it has drained, and this gate is
    /// `Batch(Immediate)`.
    ThreadsParked,
}

/// Kernel events on the virtual clock.
pub(crate) enum Event {
    /// Deliver a reply once the per-syscall CPU charge has elapsed. The
    /// thread was runnable throughout (counted in `Kernel::on_cpu`).
    Resume(Tid, SysReply),
    /// Deliver a reply to a thread that was blocked on a device or a
    /// timer — `sleep`, a swap's copy lane, the post-I/O restore.
    Wake(Tid, SysReply),
    /// A GPU batch finished.
    BatchDone { batch_id: u64 },
    /// An I/O (tool) completion. `issued_at` is when the call entered the
    /// kernel (the causal tool edge's source time).
    IoDone {
        tid: Tid,
        result: Result<String, SysError>,
        issued_at: SimTime,
    },
    /// Re-evaluate the launch gate.
    BatchTimer,
    /// A scheduled program arrival: start its main thread.
    SpawnProgram { pid: Pid, body: Body },
    /// A process's wall-clock deadline passed: fail its blocked receivers.
    DeadlineCheck { pid: Pid },
}

pub(crate) struct PendingPred {
    tid: Tid,
    req: PredRequest,
    /// When the `pred` joined the pool: the queue-delay metric's start, and
    /// the batch gate's wait window runs from the oldest of these.
    enqueued_at: SimTime,
    /// Owning program (MLFQ service accounting).
    pid: Pid,
    /// `true` when issued by the program's main thread: a blocking,
    /// critical-path `pred`. Spawned threads' preds are treated as
    /// speculative/background work by the program-aware queue.
    critical: bool,
    // ---- progress across iterations ----
    /// Input tokens already executed in earlier iterations.
    done: usize,
    /// Context fingerprints accumulated across chunks, delivered as the
    /// reply when `done` reaches the request length.
    fps: Vec<symphony_model::CtxFingerprint>,
    /// File length at first admission, for rollback when a later chunk
    /// faults (a failed `pred` must leave no partial work).
    start_len: usize,
    /// Queue delay observed (once: not again when a preempted sequence is
    /// readmitted).
    delay_recorded: bool,
    /// Completion time of a copy this sequence waits on — its KV coming
    /// in over H2D, or victims leaving over D2H to free its pages. Set
    /// when the copy is booked (a swap-in as soon as the `pred` arrives,
    /// if there is room) and cleared when the sequence next
    /// executes: until then it sits out of iterations and is not a
    /// preemption candidate (its transfer was paid for but not yet used).
    ready_at: Option<SimTime>,
    /// Sequence id the call's completion is recorded under.
    seq: u64,
}

thread_local! {
    /// Set while this thread is inside an inline body's `resume`: a panic
    /// there is a LIP's, though no `lip-*` thread has its name on it.
    static STEPPING_LIP: Cell<bool> = const { Cell::new(false) };
}

/// Ensure LIP panics (crash tests, shutdown unwinds) do not spam stderr:
/// the hook suppresses output for threads named `lip-*` and for a thread
/// that is stepping an inline body.
fn install_quiet_lip_panics() {
    use std::sync::OnceLock;
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let is_lip = STEPPING_LIP.with(Cell::get)
                || std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("lip-"));
            if !is_lip {
                default(info);
            }
        }));
    });
}

/// Kernel-level latency/occupancy metrics in the unified registry.
pub(crate) struct KernelMetrics {
    /// Virtual time from process spawn to its first `pred` completion.
    ttft_ns: Histogram,
    /// Virtual time between consecutive `pred` completions of a process.
    inter_token_ns: Histogram,
    /// Virtual time a `pred` waited in the pool before batch launch.
    queue_delay_ns: Histogram,
    /// Batch size as a percentage of `max_batch`, one sample per batch.
    batch_occupancy_pct: Histogram,
    /// Tool-call virtual latency (clamped to the call's timeout).
    tool_latency_ns: Histogram,
    /// Tool calls clamped by their [`Limits::tool_timeout`](crate::Limits::tool_timeout).
    tool_timeouts: Counter,
    /// Processes killed by their [`Limits::deadline`](crate::Limits::deadline), each once.
    pub(crate) deadline_kills: Counter,
    /// GPU KV pages in use, sampled after each batch.
    gpu_pages_used: Gauge,
    /// Disk-tier KV pages in use, sampled after each batch.
    disk_pages_used: Gauge,
    /// GPU pages that keep a lower-tier backing copy, sampled after each
    /// batch.
    backing_pages: Gauge,
    /// Active sequences swapped out (and sent back to the wait queue) to
    /// free GPU pages for a peer (only where the loop manages residency).
    preemptions: Counter,
    /// Idle KV files swapped out to free GPU pages for a `pred` (only where
    /// the loop manages residency).
    evictions: Counter,
    /// Prefill chunks executed (requests that spanned more than one
    /// iteration).
    prefill_chunks: Counter,
    /// New tokens per iteration, one sample per `BatchBegin`.
    iteration_tokens: Histogram,
    /// The floor of the iteration token budget,
    /// [`GpuExecutor::ridge_tokens`]; set once at build.
    ridge_tokens: Gauge,
    /// Virtual time a launch was held for runnable threads, one sample per
    /// held launch.
    gate_hold_ns: Histogram,
    /// Held launches that left with threads still runnable because the
    /// hold reached the last iteration's duration.
    gate_hold_timeouts: Counter,
    /// `finish_io` observed `io_waiting == 0` for the owning process — a
    /// bookkeeping bug (the decrement is clamped; this makes it visible).
    io_waiting_underflow: Counter,
    /// Successful `Kernel::recover` boots.
    pub(crate) recoveries: Counter,
    /// WAL frames replayed across all recoveries.
    pub(crate) replayed_frames: Counter,
    /// WAL checkpoints written.
    pub(crate) checkpoints: Counter,
    /// Durable bytes in the kernel WAL (header + synced frames).
    pub(crate) wal_bytes: Gauge,
    /// Admission-time static cost hints installed on the scheduler
    /// ([`Kernel::set_cost_hint`]).
    cost_hints: Counter,
    /// Replies delivered by stepping a body on the kernel's thread.
    steps: Counter,
    /// What hosted bodies count (see [`crate::hosted`]).
    pub(crate) hosted: HostedMetrics,
    /// Processes that have exited and not been reaped: each is a record,
    /// its output, and nothing else (see [`crate::proc`]). Always 0 on a
    /// kernel with a session sink, which reaps as a process exits.
    pub(crate) zombies: Gauge,
    /// Processes finalized since boot ([`Kernel::run`] returns how far it
    /// moved).
    pub(crate) exited: Counter,
    /// Their usage, summed.
    pub(crate) usage: UsageTotals,
}

/// What every finalized process used, one `kernel.usage.<field>` counter
/// per [`ProcessUsage`] field: the totals a sum over [`Kernel::records`]
/// gives, kept in O(1) memory however many records were reaped.
pub(crate) struct UsageTotals {
    syscalls: Counter,
    pred_calls: Counter,
    pred_tokens: Counter,
    emitted_tokens: Counter,
    tool_calls: Counter,
    threads_spawned: Counter,
}

impl UsageTotals {
    fn register(registry: &MetricsRegistry) -> Self {
        UsageTotals {
            syscalls: registry.counter("kernel.usage.syscalls"),
            pred_calls: registry.counter("kernel.usage.pred_calls"),
            pred_tokens: registry.counter("kernel.usage.pred_tokens"),
            emitted_tokens: registry.counter("kernel.usage.emitted_tokens"),
            tool_calls: registry.counter("kernel.usage.tool_calls"),
            threads_spawned: registry.counter("kernel.usage.threads_spawned"),
        }
    }

    /// Adds one process's usage. The destructuring is exhaustive, so a new
    /// `ProcessUsage` field does not compile until it has a counter.
    pub(crate) fn add(&self, usage: &ProcessUsage) {
        let ProcessUsage {
            syscalls,
            pred_calls,
            pred_tokens,
            emitted_tokens,
            tool_calls,
            threads_spawned,
        } = *usage;
        self.syscalls.add(syscalls);
        self.pred_calls.add(pred_calls);
        self.pred_tokens.add(pred_tokens);
        self.emitted_tokens.add(emitted_tokens);
        self.tool_calls.add(tool_calls);
        self.threads_spawned.add(threads_spawned.into());
    }
}

impl KernelMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        KernelMetrics {
            ttft_ns: registry.histogram("kernel.ttft_ns", &latency_bounds_ns()),
            inter_token_ns: registry.histogram("kernel.inter_token_ns", &latency_bounds_ns()),
            queue_delay_ns: registry.histogram("sched.queue_delay_ns", &latency_bounds_ns()),
            batch_occupancy_pct: registry.histogram("gpu.batch_occupancy_pct", &percent_bounds()),
            tool_latency_ns: registry.histogram("tools.call_latency_ns", &latency_bounds_ns()),
            tool_timeouts: registry.counter("resilience.tool_timeouts"),
            deadline_kills: registry.counter("resilience.deadline_kills"),
            gpu_pages_used: registry.gauge("kvfs.gpu_pages_used"),
            disk_pages_used: registry.gauge("kvfs.disk_pages_used"),
            backing_pages: registry.gauge("kvfs.backing_pages"),
            preemptions: registry.counter("sched.preemptions"),
            evictions: registry.counter("sched.evictions"),
            prefill_chunks: registry.counter("sched.prefill_chunks"),
            iteration_tokens: registry.histogram("sched.iteration_tokens", &occupancy_bounds()),
            ridge_tokens: registry.gauge("sched.ridge_tokens"),
            gate_hold_ns: registry.histogram("sched.gate_hold_ns", &latency_bounds_ns()),
            gate_hold_timeouts: registry.counter("sched.gate_hold_timeouts"),
            io_waiting_underflow: registry.counter("kernel.io_waiting_underflow"),
            recoveries: registry.counter("kernel.recoveries"),
            replayed_frames: registry.counter("kernel.replayed_frames"),
            checkpoints: registry.counter("kernel.checkpoints"),
            wal_bytes: registry.gauge("kernel.wal_bytes"),
            cost_hints: registry.counter("sched.cost_hints"),
            steps: registry.counter("kernel.lip.steps"),
            hosted: HostedMetrics::register(registry),
            zombies: registry.gauge("kernel.procs.zombies"),
            exited: registry.counter("kernel.procs.exited"),
            usage: UsageTotals::register(registry),
        }
    }
}

/// The Symphony kernel. `impl Kernel` continues in [`crate::proc`] and
/// [`crate::recovery`]; the fields those two touch are `pub(crate)`.
pub struct Kernel {
    // Substrate.
    pub(crate) store: KvStore,
    /// What booting the store from a log's KV batches restored.
    pub(crate) restored: Option<RestoreReport>,
    pub(crate) gpu: GpuExecutor,
    pub(crate) tokenizer: &'static Bpe,
    tools: ToolRegistry,
    // Scheduling.
    pub(crate) events: EventQueue<Event>,
    pub(crate) ready: VecDeque<(Tid, SysReply)>,
    /// Threads whose reply is in flight for nothing but the per-syscall
    /// CPU charge ([`Event::Resume`]). With `ready` these are the runnable
    /// threads; everyone else is blocked on the GPU, a device or a timer.
    on_cpu: usize,
    /// What `KernelConfig::exec` lowered to.
    preset: LoopPreset,
    /// Waiting `pred`s (FIFO or program-aware MLFQ).
    pub(crate) cqueue: ProgramQueue<PendingPred>,
    /// Sequences admitted to the GPU, carried across iterations until they
    /// finish, fail or are preempted.
    active: Vec<PendingPred>,
    /// Swap-ins still crossing the H2D lane: `(file, ready_at)`. A peer
    /// whose file shares those pages (a fork of the same document) must
    /// wait for the same bytes.
    inflight: Vec<(FileId, SimTime)>,
    /// Since when the GPU has been idle with work waiting and the launch
    /// gate shut (`None`: busy, nothing waiting, or not yet asked).
    idle_since: Option<SimTime>,
    /// Compute time of the latest iteration: how long the continuous gate
    /// will hold a launch for runnable threads at most.
    last_iteration: SimDuration,
    /// The launched batch's id and the replies it delivers when done. One
    /// at most: the GPU is busy while this is `Some`, and no iteration
    /// launches then.
    in_flight: Option<(u64, Vec<(Tid, SysReply)>)>,
    /// Files of the sequences the in-flight iteration finishes: they left
    /// `active` at launch, but their `pred`s run until it is done.
    finishing: Vec<FileId>,
    next_batch: u64,
    timer_armed_until: Option<SimTime>,
    // Processes and threads (see `crate::proc`).
    pub(crate) threads: IdSlab<ThreadState>,
    pub(crate) next_tid: u64,
    pub(crate) procs: IdSlab<Proc>,
    pub(crate) next_pid: u64,
    pub(crate) names: BTreeMap<String, Pid>,
    pub(crate) live_threads: usize,
    /// What every LIP thread's RNG stream is derived from (`Kernel::start`).
    pub(crate) seed: u64,
    /// The kernel's own stream: tool latencies.
    pub(crate) rng: Rng,
    // Telemetry.
    pub(crate) registry: MetricsRegistry,
    pub(crate) bus: EventBus,
    pub(crate) kmetrics: KernelMetrics,
    // Fault injection.
    injector: FaultInjector,
    // Config extracts.
    pub(crate) causal: bool,
    syscall_cost: SimDuration,
    offload_on_io_wait: bool,
    offload_min_latency: SimDuration,
    max_batch: usize,
    // Crash tolerance.
    /// Open write-ahead log (`None` when journalling is disabled).
    pub(crate) wal: Option<WalState>,
    /// Journalled state being replayed after `recover`; consulted by
    /// effectful syscalls to answer from the log instead of re-firing.
    pub(crate) replay: Option<wal::Replay>,
    /// Syscall boundaries crossed (crash-injection kill-points).
    syscall_boundaries: u64,
    /// Set when an injected kernel crash fired; the run loop halts.
    pub(crate) crashed: Option<u64>,
    // Serving.
    /// Streaming upcall sink: invoked synchronously on `emit`/`emit_tokens`
    /// and process exit so a front door (crates/serve) can forward output
    /// incrementally instead of polling finished records. `None` costs one
    /// branch per emit.
    pub(crate) session_sink: Option<SessionSink>,
}

/// Incremental session notifications delivered to a [`SessionSink`].
///
/// Events fire in virtual-time order, synchronously from the kernel event
/// loop, which is what makes a serving front door deterministic: the same
/// run yields the same event sequence byte for byte.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// A process appended `text` to its output via `emit`/`emit_tokens`.
    Emitted {
        /// Emitting process.
        pid: Pid,
        /// Virtual emission time.
        at: SimTime,
        /// The appended text chunk.
        text: String,
        /// Tokens in the chunk (0 for plain-text `emit`).
        tokens: u64,
    },
    /// A process finished: its status and usage are final, and the
    /// kernel keeps no record of it (see [`Kernel::set_session_sink`]).
    Exited {
        /// Exiting process.
        pid: Pid,
        /// Virtual exit time.
        at: SimTime,
        /// Final status.
        status: ExitStatus,
        /// Final resource usage. Boxed: a session has one exit and an
        /// `Emitted` per chunk of text, often a token, so every queue a
        /// sink keeps holds the event at the size `Emitted` needs (56
        /// bytes, not 96).
        usage: Box<ProcessUsage>,
    },
}

/// Callback receiving [`SessionEvent`]s (see [`Kernel::set_session_sink`]).
pub type SessionSink = Box<dyn FnMut(SessionEvent) + Send>;

impl Kernel {
    /// Builds a kernel from a configuration.
    pub fn new(config: KernelConfig) -> Self {
        Self::build(config, None)
    }

    pub(crate) fn build(config: KernelConfig, mut replay: Option<wal::Replay>) -> Self {
        install_quiet_lip_panics();
        let tokenizer = Bpe::default_tokenizer();
        let model = Surrogate::new(config.model, config.model_seed)
            .with_vocab(VocabInfo::from_tokenizer(tokenizer));
        let gpu_kv_bytes = config
            .gpu_kv_bytes_override
            .unwrap_or_else(|| config.device.kv_budget_bytes(&config.model));
        let registry = MetricsRegistry::new();
        let store_config = KvStoreConfig::from_bytes(
            gpu_kv_bytes,
            config.cpu_swap_bytes,
            config.disk_swap_bytes,
            config.model.kv_bytes_per_token(),
            config.page_tokens,
        );
        let log = match replay.as_mut() {
            Some(r) => Some((std::mem::take(&mut r.kv), r.torn)),
            None => config
                .journal_path
                .as_deref()
                .and_then(wal::read_kv_batches),
        };
        let (store, restored) = Self::boot_store(store_config, &registry, log);
        let gpu = GpuExecutor::with_registry(config.device, model, &registry);
        let kmetrics = KernelMetrics::register(&registry);
        let ridge = gpu.ridge_tokens();
        kmetrics.ridge_tokens.set(ridge as i64);
        let (preset, discipline) = match config.exec {
            ExecMode::Static(policy) => (
                LoopPreset {
                    chunk: usize::MAX,
                    budget: usize::MAX,
                    gate: LaunchGate::Batch(BatchGate::new(policy, config.max_batch)),
                    manages_residency: false,
                },
                QueueDiscipline::Fifo,
            ),
            ExecMode::Continuous(c) => {
                // Chunked prefills share at least a ridge of tokens per
                // iteration; whole-request slices are by definition
                // unbudgeted.
                let (chunk, budget) = match c.chunk_tokens {
                    Some(chunk) => (chunk.max(1), ridge),
                    None => (usize::MAX, usize::MAX),
                };
                (
                    LoopPreset {
                        chunk,
                        budget,
                        gate: LaunchGate::ThreadsParked,
                        manages_residency: true,
                    },
                    c.discipline,
                )
            }
        };
        let mut kernel = Kernel {
            store,
            restored,
            gpu,
            tokenizer,
            tools: ToolRegistry::new(),
            events: EventQueue::new(),
            ready: VecDeque::new(),
            on_cpu: 0,
            preset,
            cqueue: ProgramQueue::new(discipline),
            active: Vec::new(),
            inflight: Vec::new(),
            idle_since: None,
            last_iteration: SimDuration::ZERO,
            in_flight: None,
            finishing: Vec::new(),
            next_batch: 0,
            timer_armed_until: None,
            threads: IdSlab::new(),
            next_tid: 1,
            procs: IdSlab::new(),
            next_pid: 1,
            names: BTreeMap::new(),
            live_threads: 0,
            seed: config.seed,
            rng: Rng::new(config.seed),
            bus: if config.telemetry {
                EventBus::recording()
            } else {
                EventBus::disabled()
            },
            kmetrics,
            injector: FaultInjector::with_registry(config.faults, config.seed, &registry),
            registry,
            causal: config.causal,
            syscall_cost: config.syscall_cost,
            offload_on_io_wait: config.offload_on_io_wait,
            offload_min_latency: config.offload_min_latency,
            max_batch: config.max_batch,
            wal: None,
            replay: None,
            syscall_boundaries: 0,
            crashed: None,
            session_sink: None,
        };
        kernel.open_wal(config.wal.as_ref(), config.seed, replay);
        kernel
    }

    // ---- setup API ------------------------------------------------------------

    /// Registers a server-side tool.
    pub fn register_tool(&mut self, name: &str, spec: ToolSpec) {
        self.tools.register(name, spec);
    }

    /// Preloads a KV file under `path` as the admin (e.g. a shared system
    /// prompt): the store extends the model's fingerprint chain over
    /// `tokens` itself ([`KvStore::append_chain`]), without charging GPU
    /// time — the moral equivalent of shipping precomputed KV with the
    /// deployment.
    /// A preload that fails leaves the store as it found it: a taken `path`
    /// is refused before any work is done, and a file that could not be
    /// filled (no GPU pages left) is removed again.
    pub fn preload_kv(
        &mut self,
        path: &str,
        tokens: &[TokenId],
        mode: Mode,
        pinned: bool,
    ) -> Result<FileId, SysError> {
        if self.store.lookup(path).is_some() {
            return Err(KvError::AlreadyExists.into());
        }
        let origin = self.gpu.model().fingerprinter().origin();
        let f = self.store.create(OwnerId::ADMIN)?;
        let filled = (|| {
            self.store.append_chain(f, OwnerId::ADMIN, tokens, origin)?;
            self.store.chmod(f, OwnerId::ADMIN, mode)?;
            if pinned {
                self.store.pin(f, OwnerId::ADMIN)?;
            }
            self.store.link(f, path, OwnerId::ADMIN)
        })();
        if let Err(e) = filled {
            let _ = self.store.remove(f, OwnerId::ADMIN);
            return Err(e.into());
        }
        Ok(f)
    }

    /// What booting the store from a log's KV batches restored — a warm
    /// restart (`KernelConfig::journal_path`) or [`Kernel::recover`];
    /// `None` after a cold start.
    pub fn restored(&self) -> Option<&RestoreReport> {
        self.restored.as_ref()
    }

    /// A forward kept for callers written against the KV store's own
    /// journal file, which is gone: the store's batches ride in the kernel
    /// log ([`KernelConfig::wal`]). `Ok(())` when that log is open,
    /// `Unsupported` otherwise; `path` and `config` are not read.
    pub fn open_kv_journal(
        &mut self,
        _path: &std::path::Path,
        _config: symphony_kvfs::JournalConfig,
    ) -> std::io::Result<()> {
        self.wal.as_ref().map(drop).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the KV store logs to the kernel WAL",
            )
        })
    }

    /// Appends the KV store's changes since the last batch to the kernel
    /// log now, as one batch, whether or not a published file changed (a
    /// no-op when no record changed or no log is open). Always `Ok(false)`:
    /// nothing is compacted.
    pub fn persist_kv_delta(&mut self) -> std::io::Result<bool> {
        self.log_kv_batch(true);
        Ok(false)
    }

    /// Installs an admission-time static cost hint for a program: the
    /// verifier's upper bound on critical-path pred tokens
    /// ([`EffectSummary::service_estimate`] in `symphony-lipscript`), or
    /// `None` when the bound is statically unbounded. The MLFQ adds the
    /// hint to observed service when picking a queue level, so known-cheap
    /// programs keep top priority and unbounded ones start at the bottom
    /// of the ladder. A no-op beyond bookkeeping under FIFO.
    pub fn set_cost_hint(&mut self, pid: Pid, est_service_tokens: Option<u64>) {
        self.cqueue.set_static_hint(pid.0, est_service_tokens);
        self.kmetrics.cost_hints.inc();
    }

    /// Syscall boundaries crossed so far — the kill-point space the
    /// chaos sweep iterates with `FaultPlan::crash_at_boundary`.
    pub fn syscall_boundaries(&self) -> u64 {
        self.syscall_boundaries
    }

    /// Tool-handler invocations in this kernel. Replayed tool calls answer
    /// from the WAL without re-invoking handlers, so summing this across a
    /// crashed run and its recovery must equal the crash-free count
    /// (exactly-once side-effects).
    // lint:allow(u1): a probe for exactly-once tool calls across crashes, which no other API observes
    pub fn tool_invocations(&self) -> u64 {
        self.tools.invocations()
    }

    // ---- introspection ----------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Discrete events processed by the kernel's virtual clock since boot:
    /// the numerator of symbench's `core.events_per_s` row, which times
    /// the run it divides by itself.
    pub fn events_processed(&self) -> u64 {
        self.events.events_processed()
    }

    /// GPU executor metrics.
    pub fn gpu_metrics(&self) -> GpuMetrics {
        self.gpu.metrics()
    }

    /// KV store statistics.
    pub fn kv_stats(&self) -> KvStats {
        self.store.stats()
    }

    /// Sequences preempted (KV swapped out) by the GPU loop to free GPU
    /// pages for a peer. Always 0 under the static preset, which leaves
    /// residency to the programs.
    pub fn preemptions(&self) -> u64 {
        self.registry
            .counter_value("sched.preemptions")
            .unwrap_or(0)
    }

    /// Idle KV files the GPU loop swapped out to free GPU pages. Always 0
    /// under the static preset.
    pub fn evictions(&self) -> u64 {
        self.registry.counter_value("sched.evictions").unwrap_or(0)
    }

    /// Prefill chunks executed (requests that spanned more than one GPU
    /// iteration).
    pub fn prefill_chunks(&self) -> u64 {
        self.registry
            .counter_value("sched.prefill_chunks")
            .unwrap_or(0)
    }

    /// Static cost hints installed via [`Kernel::set_cost_hint`].
    pub fn cost_hints(&self) -> u64 {
        self.registry.counter_value("sched.cost_hints").unwrap_or(0)
    }

    /// The unified metrics registry (counters, gauges, histograms for every
    /// subsystem: `kernel.*`, `sched.*`, `gpu.*`, `kvfs.*`, `tools.*`,
    /// `faults.*`, `resilience.*`).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A point-in-time snapshot of every registered metric, in name order.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Telemetry events recorded so far (empty unless
    /// [`KernelConfig::telemetry`] was set or a memory collector installed).
    pub fn telemetry_events(&self) -> &[TimedEvent] {
        self.bus.events()
    }

    /// Telemetry events constructed so far — stays 0 while the bus is
    /// disabled, which is the zero-cost property the tests assert.
    // lint:allow(u1): a probe that a disabled bus constructs no event, which no other API observes
    pub fn telemetry_constructed(&self) -> u64 {
        self.bus.constructed()
    }

    /// Renders the recorded telemetry events as Chrome trace-event JSON
    /// (Perfetto-loadable), with the causal events recorded under
    /// [`KernelConfig::causal`] as flow arrows (spawn, IPC, join, tool and
    /// preemption edges across tracks). Deterministic: same-seed runs
    /// export byte-identical traces.
    pub fn export_chrome_trace(&self) -> String {
        export_chrome_trace(self.bus.events())
    }

    /// Read access to the KV store (tests and harnesses).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Admin access to the KV store for setup/inspection.
    pub fn store_mut(&mut self) -> &mut KvStore {
        &mut self.store
    }

    /// LIP threads that are still alive (blocked or runnable).
    pub fn live_threads(&self) -> usize {
        self.live_threads
    }

    /// The tokenizer used by this kernel.
    pub fn tokenizer(&self) -> &'static Bpe {
        self.tokenizer
    }

    // ---- main loop -------------------------------------------------------------

    /// Runs the kernel until no thread is runnable and no event is pending:
    /// [`Kernel::run_for`] with no bound.
    ///
    /// Returns the number of processes that exited during the run. If
    /// [`Kernel::live_threads`] is non-zero afterwards, the remaining threads
    /// are deadlocked (e.g. blocked in `recv_msg` with no sender).
    pub fn run(&mut self) -> usize {
        let before = self.kmetrics.exited.get();
        self.run_for(SimDuration::MAX);
        (self.kmetrics.exited.get() - before) as usize
    }

    /// Runs every event due up to `slice` of virtual time past the first
    /// pending one (past `now` if a thread is already runnable), and
    /// returns whether the kernel is quiescent: nothing runnable, nothing
    /// pending, or an injected crash halted it.
    ///
    /// It never returns mid-instant. Everything due at the last instant it
    /// reached has run, the thread level has run dry and the GPU level has
    /// taken that instant's one launch decision, so a caller may feed input
    /// and call again: slices with nothing fed in between run exactly the
    /// events, batches and outputs one unbounded call would. A zero slice
    /// runs one instant.
    pub fn run_for(&mut self, slice: SimDuration) -> bool {
        let now = self.events.now();
        let first = if self.ready.is_empty() {
            self.events.peek_time().unwrap_or(now)
        } else {
            now
        };
        let deadline = first + slice;
        loop {
            while let Some((tid, reply)) = self.ready.pop_front() {
                if self.crashed.is_some() {
                    break;
                }
                self.resume(tid, reply);
            }
            if self.crashed.is_some() {
                break true;
            }
            // The ready queue is empty: the GPU level may decide, if this
            // was the instant's last event. Otherwise the next pop is at
            // `now` too and this line is reached again after it. A call that
            // stopped at the deadline asks again on entry, at the instant it
            // already decided, with nothing changed: the same answer.
            self.maybe_launch_iteration();
            if !self.ready.is_empty() {
                continue;
            }
            match self.events.peek_time() {
                None => break true,
                Some(t) if t > deadline => break false,
                Some(_) => {}
            }
            if let Some((_, ev)) = self.events.pop() {
                self.handle_event(ev);
            }
            self.maybe_checkpoint();
        }
    }

    /// Hands the CPU to thread `tid` with `reply` and takes what it does
    /// next: one step of its body, under `catch_unwind` — the body is a
    /// sandboxed program's state and nothing of the kernel's, so a step
    /// that panics exits the thread `Crashed` and the body is dropped at
    /// exit, never looked at again. Every body is stepped alike; a hosted
    /// closure's step is a hand-off to its OS thread (`crate::hosted`).
    fn resume(&mut self, tid: Tid, reply: SysReply) {
        let Some(ts) = self.threads.get_mut(tid.0) else {
            return;
        };
        // Thread already exited (e.g. killed reply raced): `handle_exit`
        // emptied its seat.
        let Some(seat) = ts.seat.as_mut() else {
            return;
        };
        // Every reply delivery funnels through here, so this is the single
        // point where a thread's syscall span closes and the CPU is handed
        // back to it.
        let (pid, open) = (ts.pid, ts.open_syscall.take());
        let at = self.events.now();
        if let Some(name) = open {
            self.bus.emit(at, || EventKind::SyscallExit {
                pid: pid.0,
                tid: tid.0,
                name,
            });
        }
        self.bus
            .emit(at, || EventKind::SchedDispatch { tid: tid.0 });
        self.kmetrics.steps.inc();
        STEPPING_LIP.with(|s| s.set(true));
        let next = catch_unwind(AssertUnwindSafe(|| seat.body.resume(&mut seat.env, reply)));
        STEPPING_LIP.with(|s| s.set(false));
        let status = match next {
            Ok(Next::Syscall(call)) => return self.handle_syscall(tid, call),
            Ok(Next::Exit(Ok(()))) => ExitStatus::Ok,
            Ok(Next::Exit(Err(e))) => ExitStatus::Error(e),
            Err(_) => ExitStatus::Crashed,
        };
        self.handle_exit(tid, status);
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Resume(tid, reply) => {
                self.on_cpu -= 1;
                self.ready.push_back((tid, reply));
            }
            Event::Wake(tid, reply) => self.ready.push_back((tid, reply)),
            Event::BatchDone { batch_id } => {
                // Results are recorded at launch; an unknown id would mean a
                // duplicate BatchDone. Drop it rather than panic the kernel.
                let done = self.in_flight.take_if(|(id, _)| *id == batch_id);
                let Some((_, results)) = done else {
                    debug_assert!(false, "BatchDone for unknown batch {batch_id}");
                    return;
                };
                self.finishing.clear();
                let now = self.events.now();
                self.bus.emit(now, || EventKind::BatchEnd { id: batch_id });
                for (tid, reply) in results {
                    // Token-latency metrics: a delivered distribution is a
                    // decoded token from the process's point of view.
                    if matches!(reply, SysReply::Dists(_)) {
                        let pid = self.threads.get(tid.0).map(|ts| ts.pid.0);
                        let proc = pid.and_then(|pid| self.procs.get_mut(pid));
                        if let Some((record, proc)) = proc.and_then(Proc::halves) {
                            if !proc.ttft_done {
                                proc.ttft_done = true;
                                let ttft = now - record.spawned_at;
                                self.kmetrics.ttft_ns.observe(ttft.as_nanos());
                            } else if let Some(prev) = proc.last_pred_done {
                                self.kmetrics
                                    .inter_token_ns
                                    .observe((now - prev).as_nanos());
                            }
                            proc.last_pred_done = Some(now);
                        }
                    }
                    self.ready.push_back((tid, reply));
                }
            }
            Event::IoDone {
                tid,
                result,
                issued_at,
            } => self.finish_io(tid, result, issued_at),
            Event::BatchTimer => {
                self.timer_armed_until = None;
            }
            Event::SpawnProgram { pid, body } => {
                self.start(pid, body);
            }
            Event::DeadlineCheck { pid } => self.enforce_deadline(pid),
        }
    }

    /// Installs the streaming upcall sink. Subsequent `emit`/`emit_tokens`
    /// completions and process exits invoke it synchronously with
    /// [`SessionEvent`]s, in virtual-time order.
    ///
    /// The sink then takes each exit whole. Emitted text goes to it and
    /// not to [`ProcessRecord::output`] (a durable process keeps its text
    /// in the record while it runs, for the WAL's exit frame, which takes
    /// it: a record recovered from that frame has it back), and
    /// [`SessionEvent::Exited`] carries the status and usage. So that
    /// event is the process's reap: once a process has exited,
    /// [`Kernel::record`] is `None` for it, the `kernel.procs.zombies`
    /// gauge stays 0, and only the `kernel.procs.exited` and
    /// `kernel.usage.*` counters carry its totals. Zombies buried before
    /// the sink was installed stay.
    pub fn set_session_sink(&mut self, sink: SessionSink) {
        self.session_sink = Some(sink);
    }

    /// Emits a telemetry event stamped with the current virtual time on
    /// the kernel's bus. Lets layers above the kernel (the serving front
    /// door) interleave their spans with kernel events in one trace.
    pub fn emit_event(&mut self, f: impl FnOnce() -> EventKind) {
        let at = self.events.now();
        self.bus.emit(at, f);
    }

    pub(crate) fn notify_session(&mut self, ev: SessionEvent) {
        if let Some(sink) = self.session_sink.as_mut() {
            sink(ev);
        }
    }

    /// Where `pid`'s emitted `text` goes: to the session sink if there is
    /// one, to the process record if there is none or the process is
    /// durable, until its exit frame takes it (see
    /// [`Kernel::set_session_sink`]).
    fn emit_text(&mut self, pid: Pid, at: SimTime, text: String, tokens: u64) {
        let sinkless = self.session_sink.is_none();
        if let Some(proc) = self.procs.get_mut(pid.0).filter(|p| sinkless || p.durable) {
            proc.record.output.push_str(&text);
        }
        self.notify_session(SessionEvent::Emitted {
            pid,
            at,
            text,
            tokens,
        });
    }

    // ---- the GPU loop -------------------------------------------------------------

    /// Adds a `pred` to the wait queue. Where the loop manages residency,
    /// a `pred` on a file with pages off the GPU has its swap-in booked
    /// now, not at the next launch: the copy lanes run beside the SMs, so
    /// the bytes cross while an iteration runs or the launch gate waits.
    fn pool_pred(&mut self, mut pred: PendingPred) {
        let now = self.events.now();
        if let LaunchGate::Batch(gate) = &mut self.preset.gate {
            gate.on_arrival(now);
        }
        if self.preset.manages_residency {
            let slice = self.preset.slice(self.store.page_tokens());
            let take = pred.req.tokens.len().min(slice);
            let who = (pred.pid, pred.tid);
            pred.ready_at = self.book_swap_in(pred.req.file, who, take, None);
        }
        self.cqueue.push(pred.pid.0, pred.critical, pred);
    }

    /// Makes sure the loop re-evaluates at `t`: arms a timer unless one is
    /// already due by then.
    fn arm_timer(&mut self, t: SimTime) {
        if self.timer_armed_until.is_none_or(|armed| armed > t) {
            self.events.schedule(t, Event::BatchTimer);
            self.timer_armed_until = Some(t);
        }
    }

    /// Iteration-level admission: runs one GPU iteration whenever the GPU
    /// is idle, work is admitted or waiting, and the launch gate is open.
    fn maybe_launch_iteration(&mut self) {
        if self.in_flight.is_some() {
            return;
        }
        if self.active.is_empty() && self.cqueue.is_empty() {
            self.idle_since = None;
            return;
        }
        let now = self.events.now();
        // One launch decision per virtual instant, whatever the gate: `run`
        // calls this with the ready queue drained, and while an event is
        // still due at `now` the thread level has not run dry — replies and
        // syscalls cascade at one instant, and a gate asked mid-cascade
        // would split `pred`s that arrived together. No timer is needed:
        // `run` pops that event next and comes straight back here.
        if self.events.peek_time() == Some(now) {
            return;
        }
        let runnable = self.ready.len() + self.on_cpu;
        let verdict = match &self.preset.gate {
            LaunchGate::ThreadsParked => {
                let idle_since = *self.idle_since.get_or_insert(now);
                threads_parked_gate(now, runnable, Some(idle_since), self.last_iteration)
            }
            LaunchGate::Batch(gate) => {
                let oldest = self.cqueue.peek().map(|p| p.enqueued_at);
                gate.decide(now, self.cqueue.len(), oldest)
            }
        };
        match verdict {
            Decision::LaunchNow => {}
            Decision::WaitUntil(t) => return self.arm_timer(t),
            Decision::Idle => return,
        }
        if let Some(since) = self.idle_since.take().filter(|&since| since < now) {
            self.kmetrics.gate_hold_ns.observe((now - since).as_nanos());
            if runnable > 0 {
                self.kmetrics.gate_hold_timeouts.inc();
            }
        }
        // Admit from the wait queue — the program-aware (or FIFO) order.
        while self.active.len() < self.max_batch {
            let Some(mut pred) = self.cqueue.pop() else {
                break;
            };
            if !pred.delay_recorded {
                pred.delay_recorded = true;
                self.kmetrics
                    .queue_delay_ns
                    .observe((now - pred.enqueued_at).as_nanos());
            }
            if pred.done == 0 {
                pred.start_len = self.store.len(pred.req.file).unwrap_or(0);
            }
            self.active.push(pred);
        }
        if self.active.is_empty() {
            return;
        }
        self.launch_iteration();
    }

    /// Picks the preemption victim among active peers of `i`: the
    /// lowest-priority (highest MLFQ level, then latest-arrived) sequence
    /// that is not pinned or locked and has GPU pages no file in `landing`
    /// also references. Sequences in `retire` or `preempted` are already
    /// leaving the active set, and one with a copy booked (`ready_at`, its
    /// file is in `landing`) has not yet used the transfer it paid for —
    /// evicting it now would trade places forever.
    fn lowest_priority_peer(
        &self,
        i: usize,
        retire: &[usize],
        preempted: &[usize],
        landing: &[FileId],
    ) -> Option<usize> {
        self.active
            .iter()
            .enumerate()
            .filter(|(j, s)| {
                *j != i
                    && !retire.contains(j)
                    && !preempted.contains(j)
                    && s.ready_at.is_none()
                    && self.store.movable_gpu_pages(s.req.file, landing) > 0
                    && self
                        .store
                        .stat(s.req.file)
                        .is_ok_and(|st| !st.pinned && st.locked_by.is_none())
            })
            .max_by_key(|(j, s)| {
                (
                    self.cqueue.level_for(s.pid.0, s.critical),
                    s.enqueued_at,
                    *j,
                )
            })
            .map(|(j, _)| j)
    }

    /// Books a swap-in on the H2D copy lane; returns when its bytes have
    /// landed. Every PCIe/NVMe charge in the kernel goes through this or
    /// [`Kernel::copy_out`], so contention for the link is modelled once.
    fn copy_in(&mut self, not_before: SimTime, moved: SwapReport) -> SimTime {
        let bpt = self.store.bytes_per_token();
        self.gpu.copy_in(not_before, moved, bpt)
    }

    /// Books a swap-out on the D2H copy lane; returns when the GPU pages
    /// it vacates are free (at once for clean drops).
    fn copy_out(&mut self, not_before: SimTime, moved: SwapReport) -> SimTime {
        let bpt = self.store.bytes_per_token();
        self.gpu.copy_out(not_before, moved, bpt)
    }

    /// The files of pending reads: every queued `pred`'s, every active
    /// sequence's not in `retire` or `preempted`, and those the in-flight
    /// iteration finishes. No idle-file eviction takes a page one of them
    /// references.
    fn pending_files(&self, retire: &[usize], preempted: &[usize]) -> Vec<FileId> {
        let active = self
            .active
            .iter()
            .enumerate()
            .filter(|(j, _)| !retire.contains(j) && !preempted.contains(j))
            .map(|(_, s)| s.req.file);
        active
            .chain(self.cqueue.iter().map(|s| s.req.file))
            .chain(self.finishing.iter().copied())
            .collect()
    }

    /// Swaps out the idle file LRU-2 picks ([`KvStore::evict_lru`]),
    /// leaving on the GPU every page a file in `exclude` references.
    /// Returns when the victim's dirty bytes have left over D2H, or `None`
    /// when no idle file has pages to give.
    fn evict_idle(&mut self, exclude: &[FileId]) -> Option<SimTime> {
        let now = self.events.now();
        let (victim, moved) = self.store.evict_lru(exclude)?;
        self.kmetrics.evictions.inc();
        self.bus.emit(now, || EventKind::Preempt {
            file: victim.0,
            tokens: moved.total() as u64,
            victim_tid: 0,
        });
        Some(self.copy_out(now, moved))
    }

    /// Frees GPU pages on behalf of active sequence `i`: evicts an idle
    /// file, else preempts the lowest-priority resident peer (highest
    /// MLFQ level, then latest arrival) and records it in `preempted`.
    /// Forks of one document share its pages, and swap moves whole pages:
    /// an idle victim leaves behind whatever a pending read also
    /// references, a preempted peer whatever a still-landing copy does.
    /// Returns when the victim's dirty bytes have left over D2H, or `None`
    /// when nothing is evictable.
    fn evict_for(
        &mut self,
        i: usize,
        retire: &[usize],
        preempted: &mut Vec<usize>,
    ) -> Option<SimTime> {
        let exclude = self.pending_files(retire, preempted);
        if let Some(done) = self.evict_idle(&exclude) {
            return Some(done);
        }
        let now = self.events.now();
        let landing: Vec<FileId> = self
            .active
            .iter()
            .chain(self.cqueue.iter())
            .filter(|s| s.ready_at.is_some())
            .map(|s| s.req.file)
            .collect();
        let j = self.lowest_priority_peer(i, retire, preempted, &landing)?;
        let (vfile, vtid, vpid) = {
            let v = &self.active[j];
            (v.req.file, v.tid, v.pid)
        };
        let moved = self
            .store
            .swap_out_except(vfile, OwnerId::ADMIN, &landing)
            .ok()?;
        if self.causal {
            // Swap dependency: the victim's eviction funds this
            // sequence's pages.
            let (spid, stid) = (self.active[i].pid, self.active[i].tid);
            self.bus.emit(now, || EventKind::CausalEdge {
                edge: EdgeKind::Preempt,
                src_pid: vpid.0,
                src_tid: vtid.0,
                src_at: now,
                dst_pid: spid.0,
                dst_tid: stid.0,
            });
        }
        preempted.push(j);
        self.kmetrics.preemptions.inc();
        self.bus.emit(now, || EventKind::Preempt {
            file: vfile.0,
            tokens: moved.total() as u64,
            victim_tid: vtid.0,
        });
        Some(self.copy_out(now, moved))
    }

    /// Undoes the chunks active sequence `i` appended before it failed (a
    /// failed `pred` leaves no partial work behind); returns its thread.
    fn roll_back(&mut self, i: usize) -> Tid {
        let s = &self.active[i];
        if s.done > 0 {
            let _ = self.store.truncate(s.req.file, s.req.owner, s.start_len);
        }
        // Work that did not happen is not counted: the tokens go back to
        // the process's `pred_tokens` and its `max_pred_tokens` budget.
        if let Some(p) = self.procs.get_mut(s.pid.0).filter(|p| p.live.is_some()) {
            let usage = &mut p.record.usage;
            usage.pred_tokens = usage.pred_tokens.saturating_sub(s.req.tokens.len() as u64);
        }
        s.tid
    }

    /// When the first copy an active sequence still waits on completes.
    fn earliest_landing(&self) -> Option<SimTime> {
        let now = self.events.now();
        self.active
            .iter()
            .filter_map(|s| s.ready_at)
            .filter(|&t| t > now)
            .min()
    }

    /// Moves preempted sequences back to the wait queue and drops retired
    /// ones (preemption only changes timing, never results: chunk progress
    /// travels with the sequence).
    fn rebuild_active(&mut self, retire: &[usize], preempted: &[usize]) {
        let mut kept = Vec::with_capacity(self.active.len());
        for (j, s) in std::mem::take(&mut self.active).into_iter().enumerate() {
            if retire.contains(&j) {
                continue;
            }
            if preempted.contains(&j) {
                let (spid, scrit) = (s.pid.0, s.critical);
                self.cqueue.push_front(spid, scrit, s);
            } else {
                kept.push(s);
            }
        }
        self.active = kept;
    }

    /// Books the H2D copy that brings `file`'s off-GPU pages back for the
    /// `pred` of `who` (pid, tid), whose next slice is `take` tokens. A
    /// swap-in is only worth its PCIe time if the sequence can then
    /// actually *run*, so require headroom for the file's off-GPU pages
    /// plus that slice — otherwise the swapped-in file refills exactly the
    /// pages a preemption just freed and the iteration appends nothing,
    /// forever. Headroom comes from idle files; in phase 1, where `peers`
    /// is the admitted sequence's index and the preempted list, also from
    /// preempting peers. A queued `pred` (`peers` is `None`) never
    /// preempts a running one. The copy starts once the victims' dirty
    /// bytes have left. Returns when it lands, or `None` when nothing is
    /// off the GPU or it cannot fit.
    fn book_swap_in(
        &mut self,
        file: FileId,
        who: (Pid, Tid),
        take: usize,
        mut peers: Option<(usize, &mut Vec<usize>)>,
    ) -> Option<SimTime> {
        let now = self.events.now();
        let off_gpu = self.store.pages_off_gpu(file).unwrap_or(0);
        if off_gpu == 0 {
            return None;
        }
        let need_pages = off_gpu + take.div_ceil(self.store.page_tokens().max(1));
        let mut freed_at = now;
        while self.store.gpu_pages_free() < need_pages {
            let freed = match &mut peers {
                Some((i, preempted)) => self.evict_for(*i, &[], preempted),
                None => {
                    let mut exclude = self.pending_files(&[], &[]);
                    exclude.push(file);
                    self.evict_idle(&exclude)
                }
            };
            match freed {
                Some(done) => freed_at = freed_at.max(done),
                None => return None,
            }
        }
        let moved = self.store.swap_in(file, OwnerId::ADMIN).ok()?;
        let ready_at = self.copy_in(freed_at, moved);
        self.inflight.push((file, ready_at));
        let (pid, tid) = who;
        self.bus.emit(now, || EventKind::KvSwap {
            pid: pid.0,
            tid: tid.0,
            file: file.0,
            tokens: moved.total() as u64,
            disk_tokens: moved.disk_tokens as u64,
            dir: SwapDir::In,
            done_at: ready_at,
        });
        Some(ready_at)
    }

    /// Brings admitted sequences' KV back to the GPU where no copy was
    /// booked at arrival (files evicted by an earlier preemption, or with
    /// no room then) and returns the peers preempted to make room. The
    /// sequence joins iterations once its copy lands.
    fn swap_in_admitted(&mut self) -> Vec<usize> {
        let chunk = self.preset.slice(self.store.page_tokens());
        let mut preempted: Vec<usize> = Vec::new();
        for i in 0..self.active.len() {
            if preempted.contains(&i) {
                continue;
            }
            let (file, who, take) = {
                let s = &self.active[i];
                let take = (s.req.tokens.len() - s.done).min(chunk);
                (s.req.file, (s.pid, s.tid), take)
            };
            if let Some(ready_at) = self.book_swap_in(file, who, take, Some((i, &mut preempted))) {
                self.active[i].ready_at = Some(ready_at);
            }
        }
        preempted
    }

    /// Runs one token iteration: start swapping admitted-but-evicted KV
    /// back in, execute one chunk of every sequence whose KV is on the
    /// GPU, retire finished sequences, and recover from KV exhaustion by
    /// preempting. Swap traffic rides the copy lanes beside the iteration;
    /// only the sequence that needs the bytes waits for them. Where the
    /// loop does not manage residency, phases 1 and 5 move nothing: a
    /// non-resident file's slice goes to the GPU and fails there.
    fn launch_iteration(&mut self) {
        let now = self.events.now();
        let page = self.store.page_tokens().max(1);
        let chunk = self.preset.slice(page);
        let manages_residency = self.preset.manages_residency;

        // 1. Where the loop manages residency, start swapping admitted
        // sequences' KV back in; `preempted` are the peers that made room.
        let mut preempted = if manages_residency {
            self.swap_in_admitted()
        } else {
            Vec::new()
        };

        // 2. One slice per sequence whose KV is on the GPU (or whose
        // residency is not the loop's to check). A sequence still waiting
        // on a copy sits out; so does one whose pages are part of a peer's
        // in-flight swap-in, and a phase-1 victim even if a sibling's
        // swap-in brought the pages they share straight back.
        self.inflight.retain(|&(_, ready_at)| ready_at > now);
        let mut parts: Vec<usize> = Vec::new();
        for (i, s) in self.active.iter_mut().enumerate() {
            if preempted.contains(&i)
                || (manages_residency
                    && !matches!(
                        self.store.residency(s.req.file),
                        Ok(Residency::Gpu | Residency::Empty)
                    ))
            {
                continue;
            }
            let shared = self
                .inflight
                .iter()
                .filter(|(f, _)| self.store.shares_gpu_page(*f, s.req.file))
                .map(|&(_, ready_at)| ready_at)
                .max();
            s.ready_at = s.ready_at.max(shared);
            if s.ready_at.is_some_and(|t| t > now) {
                continue;
            }
            s.ready_at = None;
            parts.push(i);
        }
        // The participants share the iteration's token budget, shortest
        // remaining first (ties in admission order): decoders, then short
        // prefills, then long ones, so nobody's next token waits behind a
        // chunk that is compute-bound whenever it runs. A sequence the
        // budget no longer covers still advances one KV page — a long
        // prefill cannot starve under a stream of short ones, and a
        // sub-page request is never cut or deferred.
        let remaining = |k: usize| {
            let s = &self.active[parts[k]];
            s.req.tokens.len() - s.done
        };
        let mut order: Vec<usize> = (0..parts.len()).collect();
        order.sort_by_key(|&k| remaining(k));
        let preset = &self.preset;
        let pack = |budget: usize, takes: &mut [usize]| {
            let cap = preset.cap(budget, page);
            let mut budget_left = budget;
            for &k in &order {
                takes[k] = remaining(k).min(cap).min(budget_left.max(page));
                budget_left = budget_left.saturating_sub(takes[k]);
            }
        };
        let mut takes = vec![0usize; parts.len()];
        pack(preset.budget, &mut takes);
        // Where the ridge cuts someone, the budget grows while the batch
        // stays memory-bound: decoders' KV reads leave compute idle that a
        // prefill's chunk can fill at no cost to the iteration.
        let most: usize = (0..parts.len())
            .map(|k| remaining(k).min(preset.chunk))
            .sum();
        if takes.iter().sum::<usize>() < most {
            let model = self.gpu.model().config();
            let pasts: Vec<u64> = parts
                .iter()
                .map(|&i| self.store.len(self.active[i].req.file).unwrap_or(0) as u64)
                .collect();
            let budget = self.gpu.roofline_budget(most, |b| {
                pack(b, &mut takes);
                let mut work = WorkEstimate::default();
                for (&take, &past) in takes.iter().zip(&pasts) {
                    work.accumulate(&model.forward_work(take as u64, past));
                }
                work
            });
            pack(budget, &mut takes);
        }
        // Requests go to the GPU in admission order, whatever the packing
        // order was: reply order, CoW order and fault draws do not move.
        let requests: Vec<PredRequest> = parts
            .iter()
            .zip(&takes)
            .map(|(&i, &take)| {
                let s = &self.active[i];
                PredRequest {
                    file: s.req.file,
                    owner: s.req.owner,
                    tokens: s.req.tokens[s.done..s.done + take].to_vec(),
                }
            })
            .collect();
        if parts.is_empty() {
            // Everyone admitted is waiting on a copy (or cannot fit yet):
            // hand phase 1's victims back to the queue and come back when
            // the first transfer lands.
            self.rebuild_active(&[], &preempted);
            if let Some(t) = self.earliest_landing() {
                self.arm_timer(t);
            }
            return;
        }

        // 3. Fault draws, one per participating request, in admission
        // order (all-zero plans draw nothing).
        let faulted: Vec<bool> = requests
            .iter()
            .map(|_| self.injector.pred_request())
            .collect();
        for f in &faulted {
            if *f {
                self.bus
                    .emit(now, || EventKind::FaultInjected { site: "gpu.pred" });
            }
        }
        let cow_before = self.store.stats().cow_copies;
        let (results, report) =
            self.gpu
                .execute_batch_with_faults(&mut self.store, &requests, &faulted);
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let occupancy_pct = (parts.len() * 100 / self.max_batch.max(1)).min(100) as u32;
        self.kmetrics
            .batch_occupancy_pct
            .observe(occupancy_pct as u64);
        let n_requests = parts.len() as u32;
        let new_tokens = report.new_tokens;
        self.kmetrics.iteration_tokens.observe(new_tokens);
        self.bus.emit(now, || EventKind::BatchBegin {
            id: batch_id,
            requests: n_requests,
            occupancy_pct,
            new_tokens,
        });
        if self.causal {
            // One scheduler→GPU hop per iteration member (chunked prefills
            // hop once per chunk, which is exactly their service pattern).
            // Batched: one reserve/capacity check for the whole iteration.
            let active = &self.active;
            self.bus.emit_batch(now, parts.len(), |k| {
                let s = &active[parts[k]];
                EventKind::PredExec {
                    pid: s.pid.0,
                    tid: s.tid.0,
                    batch: batch_id,
                    tokens: requests[k].tokens.len() as u32,
                    enqueued_at: s.enqueued_at,
                }
            });
        }
        let cow_delta = self.store.stats().cow_copies - cow_before;
        if cow_delta > 0 {
            self.bus
                .emit(now, || EventKind::KvCow { copies: cow_delta });
        }

        // 4. Apply results: accumulate chunk progress, retire finished or
        // terminally failed sequences, collect KV-exhausted ones.
        let mut replies: Vec<(usize, Tid, SysReply)> = Vec::new();
        let mut retire: Vec<usize> = Vec::new();
        let mut failed_mem: Vec<(usize, usize)> = Vec::new();
        for (k, res) in results.into_iter().enumerate() {
            let i = parts[k];
            let take = requests[k].tokens.len();
            match res {
                Ok(r) => {
                    let s = &mut self.active[i];
                    s.fps.extend_from_slice(r.fingerprints());
                    s.done += take;
                    let total = s.req.tokens.len();
                    if s.done < total || take < total {
                        self.kmetrics.prefill_chunks.inc();
                        let (ctid, ctk, cdone, ctotal) =
                            (s.tid.0, take as u32, s.done as u32, total as u32);
                        self.bus.emit(now, || EventKind::ChunkExec {
                            tid: ctid,
                            batch: batch_id,
                            tokens: ctk,
                            done: cdone,
                            total: ctotal,
                        });
                    }
                    let (cpid, ccrit, cseq, ctid) = (s.pid, s.critical, s.seq, s.tid);
                    if s.done == total {
                        let fps = std::mem::take(&mut s.fps);
                        let preds = Preds::new(Arc::clone(self.gpu.model()), fps);
                        self.record_pred(cpid, cseq, total as u32);
                        replies.push((i, ctid, SysReply::Dists(preds)));
                        retire.push(i);
                    }
                    self.cqueue.charge(cpid.0, ccrit, take as u64);
                }
                Err(ExecError::Kv(KvError::NoGpuMemory)) => failed_mem.push((i, take)),
                Err(e) => {
                    let stid = self.roll_back(i);
                    let reply = match e {
                        ExecError::NotResident => SysReply::Err(SysError::Kv(KvError::NotResident)),
                        ExecError::EmptyRequest => SysReply::Err(SysError::BadArgument),
                        ExecError::Faulted => SysReply::Err(SysError::Fault("gpu.pred")),
                        ExecError::Kv(ke) => SysReply::Err(SysError::Kv(ke)),
                    };
                    replies.push((i, stid, reply));
                    retire.push(i);
                }
            }
        }

        // 5. KV exhaustion: where the loop manages residency, free pages by
        // evicting idle files, then by preempting the lowest-priority
        // co-running sequence. When nothing is evictable (or may be
        // evicted), roll the `pred` back and fail it with `NoGpuMemory`:
        // what to do next is the program's policy. `preempted` carries over
        // phase 1's swap-in victims so phase 6 returns them to the queue too.
        for &(i, take) in &failed_mem {
            if preempted.contains(&i) {
                continue; // became a victim of an earlier recovery
            }
            let file = self.active[i].req.file;
            let need = (self.active[i].req.tokens.len() - self.active[i].done)
                .min(chunk)
                .max(take);
            let mut freed_at = now;
            while manages_residency && !self.store.can_append(file, need).unwrap_or(false) {
                match self.evict_for(i, &retire, &mut preempted) {
                    Some(done) => freed_at = freed_at.max(done),
                    None => break, // nothing evictable at all
                }
            }
            if manages_residency && self.store.can_append(file, need).unwrap_or(false) {
                // Stays active and makes progress once the victims' dirty
                // bytes have actually left the pages it needs.
                if freed_at > now {
                    self.active[i].ready_at = Some(freed_at);
                }
                continue;
            }
            // Peers whose swap-in is still landing hold pages nobody may
            // take yet; wait for the first of them instead of failing.
            if let Some(t) = self.earliest_landing() {
                self.active[i].ready_at = Some(t);
                continue;
            }
            let stid = self.roll_back(i);
            replies.push((i, stid, SysReply::Err(SysError::Kv(KvError::NoGpuMemory))));
            retire.push(i);
        }
        // Replies go out in admission order, whichever phase wrote them.
        replies.sort_by_key(|&(i, _, _)| i);
        let replies = replies.into_iter().map(|(_, tid, r)| (tid, r)).collect();

        // 6. Rebuild the active set: drop retired sequences (their files
        // stay `finishing` until the batch is done), move preempted ones
        // back to the wait queue.
        let active = &self.active;
        self.finishing
            .extend(retire.iter().map(|&i| active[i].req.file));
        self.rebuild_active(&retire, &preempted);

        self.kmetrics
            .gpu_pages_used
            .set(self.store.gpu_pages_used() as i64);
        self.kmetrics
            .disk_pages_used
            .set(self.store.disk_pages_used() as i64);
        self.kmetrics
            .backing_pages
            .set(self.store.backing_pages() as i64);
        debug_assert!(
            self.in_flight.is_none(),
            "a launch while a batch is in flight"
        );
        self.in_flight = Some((batch_id, replies));
        self.last_iteration = report.duration;
        self.events
            .schedule(now + report.duration, Event::BatchDone { batch_id });
    }

    // ---- syscall dispatch -----------------------------------------------------------

    /// Schedules a reply after the per-syscall CPU charge; the thread
    /// stays runnable until it is delivered.
    pub(crate) fn complete(&mut self, tid: Tid, reply: SysReply) {
        let at = self.events.now() + self.syscall_cost;
        self.on_cpu += 1;
        self.events.schedule(at, Event::Resume(tid, reply));
    }

    fn owner_of(&self, tid: Tid) -> Option<(Pid, OwnerId)> {
        let pid = self.threads.get(tid.0)?.pid;
        Some((pid, OwnerId(pid.0)))
    }

    fn handle_syscall(&mut self, tid: Tid, call: Syscall) {
        // A syscall from a thread the kernel no longer tracks has no owner
        // to charge or answer; drop it instead of panicking the kernel.
        let Some((pid, owner)) = self.owner_of(tid) else {
            debug_assert!(false, "syscall from unknown tid {}", tid.0);
            return;
        };
        // Crash injection: every syscall boundary is a kill-point. The
        // crash fires *before* the syscall executes, so a handler either
        // ran and journalled its effect pre-crash, or did neither —
        // effects are atomic with their WAL frames under this model.
        self.syscall_boundaries += 1;
        if self.injector.kernel_crash(self.syscall_boundaries) {
            self.crash_now(self.syscall_boundaries);
            return;
        }
        // Open a syscall span; `resume` closes it when the reply is
        // delivered back to the LIP.
        let sys_name = call.name();
        let sys_at = self.events.now();
        self.bus.emit(sys_at, || EventKind::SyscallEnter {
            pid: pid.0,
            tid: tid.0,
            name: sys_name,
        });
        if let Some(ts) = self.threads.get_mut(tid.0) {
            ts.open_syscall = Some(sys_name);
        }
        // Fails the syscall with a typed error when a bookkeeping lookup
        // that "cannot" miss does miss (lint rule k1: no kernel panics).
        macro_rules! sys {
            ($opt:expr, $what:literal) => {
                match $opt {
                    Some(v) => v,
                    None => {
                        self.complete(tid, SysReply::Err(SysError::Internal($what)));
                        return;
                    }
                }
            };
        }

        // Global syscall accounting and limit.
        let proc = self.procs.get_mut(pid.0).and_then(Proc::halves);
        let (record, proc) = sys!(proc, "process missing");
        record.usage.syscalls += 1;
        if let Some(max) = proc.limits.max_syscalls {
            if record.usage.syscalls > max {
                self.complete(tid, SysReply::Err(SysError::LimitExceeded("syscalls")));
                return;
            }
        }
        // Wall-clock deadline: once past it, every syscall fails.
        if let Some(t) = proc.deadline_at {
            if sys_at >= t {
                if !proc.deadline_hit {
                    proc.deadline_hit = true;
                    self.kmetrics.deadline_kills.inc();
                    self.bus
                        .emit(sys_at, || EventKind::DeadlineHit { pid: pid.0 });
                }
                self.complete(tid, SysReply::Err(SysError::DeadlineExceeded));
                return;
            }
        }
        // Cancellation: like a deadline hit, once set every syscall fails.
        if proc.cancelled {
            self.complete(tid, SysReply::Err(SysError::Cancelled));
            return;
        }

        macro_rules! kv {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => {
                        self.complete(tid, SysReply::Err(SysError::Kv(e)));
                        return;
                    }
                }
            };
        }

        // A KVFS call that made, opened or read `file`: its one event.
        let kv_op = |bus: &mut EventBus, file: FileId| {
            bus.emit(sys_at, || EventKind::KvOp {
                pid: pid.0,
                tid: tid.0,
                op: sys_name,
                file: file.0,
            });
        };

        match call {
            Syscall::Pred { kv, tokens } => {
                if tokens.is_empty() {
                    self.complete(tid, SysReply::Err(SysError::BadArgument));
                    return;
                }
                let usage = &mut record.usage;
                usage.pred_calls += 1;
                usage.pred_tokens += tokens.len() as u64;
                if let Some(max) = proc.limits.max_pred_tokens {
                    if usage.pred_tokens > max {
                        self.complete(tid, SysReply::Err(SysError::LimitExceeded("pred_tokens")));
                        return;
                    }
                }
                let n_tokens = tokens.len() as u32;
                let pool = self.cqueue.len() as u32;
                self.bus.emit(sys_at, || EventKind::PredEnqueue {
                    tid: tid.0,
                    tokens: n_tokens,
                    pool,
                });
                let critical = proc.main_tid == tid;
                // Recovery replay: a pred whose completion was durable at
                // the crash is answered without charging GPU time.
                let seq = proc.next_pred_seq();
                let asked = Asked::Pred {
                    kv,
                    tokens: &tokens,
                };
                if self.answer_from_journal(pid, tid, seq, asked) {
                    return;
                }
                let pending = PendingPred {
                    tid,
                    req: PredRequest {
                        file: kv,
                        owner,
                        tokens,
                    },
                    enqueued_at: self.events.now(),
                    pid,
                    critical,
                    done: 0,
                    fps: Vec::new(),
                    start_len: 0,
                    delay_recorded: false,
                    ready_at: None,
                    seq,
                };
                self.pool_pred(pending);
                // Thread stays parked; the GPU loop will resume it.
            }
            Syscall::KvCreate => {
                let f = kv!(self.store.create(owner));
                kv_op(&mut self.bus, f);
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvOpen { path } => {
                let f = kv!(self.store.open(&path, owner));
                kv_op(&mut self.bus, f);
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvLink { kv, path } => {
                kv!(self.store.link(kv, &path, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvUnlink { path } => {
                kv!(self.store.unlink(&path, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvFork { kv } => {
                let f = kv!(self.store.fork(kv, owner));
                kv_op(&mut self.bus, f);
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvRemove { kv } => {
                kv!(self.store.remove(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvLen { kv } => {
                let n = kv!(self.store.len(kv));
                self.complete(tid, SysReply::Len(n));
            }
            Syscall::KvNextPos { kv } => {
                let p = kv!(self.store.next_position(kv));
                self.complete(tid, SysReply::Pos(p));
            }
            Syscall::KvTruncate { kv, len } => {
                kv!(self.store.truncate(kv, owner, len));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvExtract { kv, ranges } => {
                let f = kv!(self.store.extract(kv, owner, &ranges));
                kv_op(&mut self.bus, f);
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvMerge { kvs } => {
                let f = kv!(self.store.merge(&kvs, owner));
                kv_op(&mut self.bus, f);
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvRead { kv, start, count } => {
                let e = kv!(self.store.read(kv, owner, start, count));
                kv_op(&mut self.bus, kv);
                self.complete(tid, SysReply::Entries(e));
            }
            Syscall::KvPin { kv } => {
                kv!(self.store.pin(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvUnpin { kv } => {
                kv!(self.store.unpin(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvLock { kv } => {
                kv!(self.store.lock(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvUnlock { kv } => {
                kv!(self.store.unlock(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvChmod { kv, mode } => {
                kv!(self.store.chmod(kv, owner, mode));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvStat { kv } => {
                let s = kv!(self.store.stat(kv));
                self.complete(tid, SysReply::Stat(Box::new(s)));
            }
            Syscall::KvSwapOut { kv } => {
                let moved = kv!(self.store.swap_out(kv, owner));
                let done_at = self.copy_out(sys_at, moved);
                self.bus.emit(sys_at, || EventKind::KvSwap {
                    pid: pid.0,
                    tid: tid.0,
                    file: kv.0,
                    tokens: moved.total() as u64,
                    disk_tokens: moved.disk_tokens as u64,
                    dir: SwapDir::Out,
                    done_at,
                });
                let at = done_at + self.syscall_cost;
                self.events.schedule(at, Event::Wake(tid, SysReply::Unit));
            }
            Syscall::KvSwapIn { kv } => {
                // Injected PCIe/host-memory fault: the transfer fails, the
                // file stays swapped out, and the LIP may retry.
                if self.injector.swap_in() {
                    self.bus
                        .emit(sys_at, || EventKind::FaultInjected { site: "kv.swap_in" });
                    self.complete(tid, SysReply::Err(SysError::Fault("kv.swap_in")));
                    return;
                }
                let moved = kv!(self.store.swap_in(kv, owner));
                let done_at = self.copy_in(sys_at, moved);
                self.bus.emit(sys_at, || EventKind::KvSwap {
                    pid: pid.0,
                    tid: tid.0,
                    file: kv.0,
                    tokens: moved.total() as u64,
                    disk_tokens: moved.disk_tokens as u64,
                    dir: SwapDir::In,
                    done_at,
                });
                let at = done_at + self.syscall_cost;
                self.events.schedule(at, Event::Wake(tid, SysReply::Unit));
            }
            Syscall::Spawn { body } => {
                if let Some(max) = proc.limits.max_threads {
                    if proc.live_threads >= max {
                        self.complete(tid, SysReply::Err(SysError::LimitExceeded("threads")));
                        return;
                    }
                }
                let new_tid = sys!(self.start(pid, body), "process missing");
                if self.causal {
                    self.bus.emit(sys_at, || EventKind::CausalEdge {
                        edge: EdgeKind::Spawn,
                        src_pid: pid.0,
                        src_tid: tid.0,
                        src_at: sys_at,
                        dst_pid: pid.0,
                        dst_tid: new_tid.0,
                    });
                }
                self.complete(tid, SysReply::NewTid(new_tid));
            }
            Syscall::Join { tid: target } => match self.threads.get_mut(target.0) {
                None => self.complete(tid, SysReply::Err(SysError::NotFound)),
                Some(ts) => match &ts.status {
                    Some(status) => {
                        let s = status.clone();
                        self.complete(tid, SysReply::Joined(s));
                    }
                    None => ts.join_waiters.push(tid),
                },
            },
            Syscall::CallTool { name, args } => {
                if let Some(max) = proc.limits.max_tool_calls {
                    if record.usage.tool_calls >= max {
                        self.complete(tid, SysReply::Err(SysError::LimitExceeded("tool_calls")));
                        return;
                    }
                }
                // Unknown tool: typed error before any RNG draw, so adding
                // a tool elsewhere never shifts unrelated latency streams.
                if !self.tools.contains(&name) {
                    self.complete(tid, SysReply::Err(SysError::NoSuchTool(name)));
                    return;
                }
                record.usage.tool_calls += 1;
                let timeout = proc.limits.tool_timeout;
                // Recovery replay: a journalled outcome answers without
                // re-invoking the handler — the side-effect already happened
                // pre-crash, and firing it again would double it.
                let seq = proc.next_seq(EffectClass::Tool);
                if self.answer_from_journal(pid, tid, seq, Asked::Tool) {
                    return;
                }
                let now = self.events.now();
                // One attempt: what to do about a failure is the program's
                // policy. The attempt draws its fault decision and latency,
                // a hang stalls it, and the timeout clamps it.
                let fault = self.injector.tool_attempt();
                if fault.is_some() {
                    self.bus
                        .emit(now, || EventKind::FaultInjected { site: "tool" });
                }
                // Existence was checked above and the registry is
                // append-only; if the lookup fails anyway, that error is the
                // call's result instead of a panic.
                let (mut latency, mut result) = match self.tools.invoke(&name, &args, &mut self.rng)
                {
                    Ok((latency, outcome)) => (
                        latency,
                        match outcome {
                            ToolOutcome::Ok(s) => Ok(s),
                            ToolOutcome::Failed(msg) => Err(SysError::ToolFailed(msg)),
                        },
                    ),
                    Err(e) => (SimDuration::ZERO, Err(e)),
                };
                match fault {
                    Some(ToolFaultKind::Hang) => latency = latency * self.injector.stall_factor(),
                    Some(ToolFaultKind::Fail) => result = Err(SysError::Fault("tool")),
                    None => {}
                }
                if let Some(to) = timeout.filter(|&to| latency > to) {
                    latency = to;
                    result = Err(SysError::Timeout);
                    self.kmetrics.tool_timeouts.inc();
                }
                self.kmetrics.tool_latency_ns.observe(latency.as_nanos());
                if self.bus.is_enabled() {
                    let tool = name.clone();
                    let latency_ns = latency.as_nanos();
                    self.bus.emit(now, || EventKind::ToolInvoke {
                        pid: pid.0,
                        tid: tid.0,
                        tool,
                        latency_ns,
                    });
                }
                // The handler fired and its outcome is decided: make it
                // durable *now*, atomically with the effect under the
                // syscall-boundary crash model, so recovery never re-fires
                // the tool (exactly-once side-effects).
                self.journal(pid, None, seq, || Effect::Tool {
                    result: result.clone(),
                });
                self.begin_io(pid, latency);
                self.events.schedule(
                    now + latency,
                    Event::IoDone {
                        tid,
                        result,
                        issued_at: now,
                    },
                );
            }
            Syscall::SendMsg { to, data } => {
                // Recovery replay: re-delivering would duplicate the message.
                let seq = proc.next_seq(EffectClass::Send);
                if self.answer_from_journal(pid, tid, seq, Asked::Send) {
                    return;
                }
                let alive = self.procs.get(to.0).is_some_and(|t| t.live.is_some());
                // Injected drop: the message vanishes in flight. The sender
                // still sees success — IPC is at-most-once, like UDP — so
                // resilient LIPs need acks/timeouts, which the chaos tests
                // exercise.
                let dropped = alive && self.injector.ipc_send();
                self.journal(pid, Some(to), seq, || Effect::Send {
                    to: to.0,
                    ok: alive,
                    delivered: alive && !dropped,
                    data: data.clone(),
                });
                if !alive {
                    self.complete(tid, SysReply::Err(SysError::NotFound));
                    return;
                }
                if dropped {
                    self.bus.emit(sys_at, || EventKind::IpcDrop {
                        from: pid.0,
                        to: to.0,
                    });
                    self.complete(tid, SysReply::Unit);
                    return;
                }
                let target = self.procs.get_mut(to.0).and_then(Proc::live_mut);
                let target = sys!(target, "ipc target missing");
                match target.recv_waiters.pop_front() {
                    None => target.mailbox.push_back((pid, data, sys_at, tid.0)),
                    Some(wtid) => {
                        if self.causal {
                            // Direct delivery: this send wakes the parked recv.
                            self.bus.emit(sys_at, || EventKind::CausalEdge {
                                edge: EdgeKind::Ipc,
                                src_pid: pid.0,
                                src_tid: tid.0,
                                src_at: sys_at,
                                dst_pid: to.0,
                                dst_tid: wtid.0,
                            });
                        }
                        self.complete(wtid, SysReply::Msg { from: pid, data });
                    }
                }
                self.complete(tid, SysReply::Unit);
            }
            Syscall::Recv => {
                // Recovery replay: the `seq`-th delivery to this process,
                // as its send frame journalled it.
                let seq = proc.next_recv_seq();
                if self.answer_from_journal(pid, tid, seq, Asked::Recv) {
                    return;
                }
                let proc = self.procs.get_mut(pid.0).and_then(Proc::live_mut);
                let proc = sys!(proc, "process missing");
                let Some((from, data, sent_at, sender_tid)) = proc.mailbox.pop_front() else {
                    proc.recv_waiters.push_back(tid);
                    return;
                };
                if self.causal {
                    // Mailbox hit: the buffered send (at `sent_at`) is
                    // what answers this recv.
                    self.bus.emit(sys_at, || EventKind::CausalEdge {
                        edge: EdgeKind::Ipc,
                        src_pid: from.0,
                        src_tid: sender_tid,
                        src_at: sent_at,
                        dst_pid: pid.0,
                        dst_tid: tid.0,
                    });
                }
                self.complete(tid, SysReply::Msg { from, data });
            }
            Syscall::LookupProcess { name } => {
                let seq = proc.next_seq(EffectClass::Lookup);
                if self.answer_from_journal(pid, tid, seq, Asked::Lookup) {
                    return;
                }
                // A name is bound while its process lives: exit unbinds it.
                let found = self.names.get(&name).copied();
                self.journal(pid, None, seq, || Effect::Lookup {
                    found: found.map(|p| p.0),
                });
                self.complete(tid, SysReply::MaybePid(found));
            }
            Syscall::Sleep { dur } => {
                let at = self.events.now() + dur;
                self.events.schedule(at, Event::Wake(tid, SysReply::Unit));
            }
            Syscall::Emit { text } => {
                self.emit_text(pid, sys_at, text, 0);
                self.complete(tid, SysReply::Unit);
            }
            Syscall::EmitTokens { tokens } => {
                let text = self.tokenizer.decode(&tokens);
                record.usage.emitted_tokens += tokens.len() as u64;
                self.emit_text(pid, sys_at, text, tokens.len() as u64);
                self.complete(tid, SysReply::Unit);
            }
            Syscall::Tokenize { text } => {
                let tokens = self.tokenizer.encode(&text);
                self.complete(tid, SysReply::Tokens(tokens));
            }
            Syscall::Detokenize { tokens } => {
                let text = self.tokenizer.decode(&tokens);
                self.complete(tid, SysReply::Text(text));
            }
            Syscall::Now => {
                let seq = proc.next_seq(EffectClass::Now);
                if self.answer_from_journal(pid, tid, seq, Asked::Now) {
                    return;
                }
                let t = self.events.now();
                self.journal(pid, None, seq, || Effect::Now { t });
                self.complete(tid, SysReply::Time(t));
            }
        }
    }

    // ---- I/O with KV offload (§4.3) ------------------------------------------------

    fn begin_io(&mut self, pid: Pid, latency: SimDuration) {
        let Some(proc) = self.procs.get_mut(pid.0).and_then(Proc::live_mut) else {
            debug_assert!(false, "begin_io: unknown pid {}", pid.0);
            return;
        };
        proc.io_waiting += 1;
        if !self.offload_on_io_wait || latency < self.offload_min_latency {
            return;
        }
        // Offload the process's GPU-resident, unpinned files to host memory
        // — those whose round trip over PCIe fits inside the wait. A file
        // that takes longer to copy out and back than the tool runs would
        // resume its thread late for pages nobody had time to use.
        let owner = OwnerId(pid.0);
        let bpt = self.store.bytes_per_token();
        let device = self.gpu.device();
        let victims: Vec<FileId> = self
            .store
            .list_files()
            .into_iter()
            .filter(|s| s.owner == owner && !s.pinned && s.residency == Residency::Gpu)
            .filter(|s| device.transfer_time(s.len as u64 * bpt) * 2 <= latency)
            .map(|s| s.id)
            .collect();
        for f in victims {
            if let Ok(moved) = self.store.swap_out(f, owner) {
                let at = self.events.now();
                // Nobody waits for the offload itself, but it occupies the
                // D2H lane and the restore cannot overtake it.
                let done = self.copy_out(at, moved);
                if let Some(proc) = self.procs.get_mut(pid.0).and_then(Proc::live_mut) {
                    proc.offloaded.push(f);
                    proc.offload_done = proc.offload_done.max(done);
                }
                self.bus.emit(at, || EventKind::KvOffload {
                    pid: pid.0,
                    file: f.0,
                });
            }
        }
    }

    fn finish_io(&mut self, tid: Tid, result: Result<String, SysError>, issued_at: SimTime) {
        let Some(ts) = self.threads.get(tid.0) else {
            return;
        };
        let pid = ts.pid;
        if self.causal {
            // Tool edge: the call issued at `issued_at` is what lets this
            // thread resume now.
            let at = self.events.now();
            self.bus.emit(at, || EventKind::CausalEdge {
                edge: EdgeKind::Tool,
                src_pid: pid.0,
                src_tid: tid.0,
                src_at: issued_at,
                dst_pid: pid.0,
                dst_tid: tid.0,
            });
        }
        // A missing process record still must not swallow the reply: skip
        // the offload bookkeeping but deliver the result to the thread.
        let Some(proc) = self.procs.get_mut(pid.0).and_then(Proc::live_mut) else {
            debug_assert!(false, "finish_io: unknown pid {}", pid.0);
            let reply = match result {
                Ok(s) => SysReply::Text(s),
                Err(e) => SysReply::Err(e),
            };
            self.ready.push_back((tid, reply));
            return;
        };
        // An underflow here means an IoDone fired for a process that never
        // entered `begin_io` — a bookkeeping bug that a silent clamp would
        // hide (and with it the offload-restore trigger below).
        let underflow = proc.io_waiting == 0;
        debug_assert!(!underflow, "finish_io: io_waiting underflow pid={}", pid.0);
        proc.io_waiting = proc.io_waiting.saturating_sub(1);
        if underflow {
            self.kmetrics.io_waiting_underflow.inc();
        }
        let mut restored = SwapReport::default();
        let offload_done = proc.offload_done;
        if proc.io_waiting == 0 && !proc.offloaded.is_empty() {
            let files = std::mem::take(&mut proc.offloaded);
            let owner = OwnerId(pid.0);
            for f in files {
                // Injected restore fault: the file stays in host memory.
                // The LIP's next `pred` on it sees `Kv(NotResident)` and
                // can swap it in explicitly — containment, not a crash.
                if self.injector.swap_in() {
                    let at = self.events.now();
                    self.bus
                        .emit(at, || EventKind::FaultInjected { site: "kv.restore" });
                    continue;
                }
                if let Ok(moved) = self.store.swap_in(f, owner) {
                    restored.dram_tokens += moved.dram_tokens;
                    restored.disk_tokens += moved.disk_tokens;
                }
            }
        }
        let reply = match result {
            Ok(s) => SysReply::Text(s),
            Err(e) => SysReply::Err(e),
        };
        let restore_tokens = restored.total();
        if restore_tokens > 0 {
            // The thread resumes once the restore has crossed the H2D lane
            // (and NVMe, for disk-spilled pages).
            let at = self.events.now();
            let done = self.copy_in(at.max(offload_done), restored);
            self.bus.emit(at, || EventKind::KvRestore {
                pid: pid.0,
                tokens: restore_tokens as u64,
            });
            self.events.schedule(done, Event::Wake(tid, reply));
        } else {
            self.ready.push_back((tid, reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exited_threads_hold_no_reply_sender() {
        let mut k = Kernel::new(KernelConfig::for_tests());
        for i in 0..3 {
            // The main thread outlives its child: it parks in a `recv`
            // nobody answers.
            k.spawn_process(&format!("p{i}"), "a b c", |ctx| {
                let child = ctx.spawn(|ctx| ctx.tokenize("child").map(drop))?;
                ctx.join(child)?;
                ctx.recv_msg().map(drop)
            });
        }
        k.run();
        assert_eq!(k.threads.len(), 6);
        for (tid, ts) in k.threads.iter() {
            let main = k.procs[ts.pid.0].live.as_ref().expect("live").main_tid.0 == tid;
            assert_eq!(ts.status.is_none(), main, "thread {tid}");
            assert_eq!(
                ts.seat.is_some(),
                main,
                "exited thread {tid} kept its sender"
            );
        }
        // Once the process exits too, its threads' entries go with it.
        for pid in 1..=3 {
            assert!(k.cancel_process(Pid(pid)));
        }
        assert_eq!(k.run(), 3);
        assert!(k.threads.is_empty());
    }
}
