//! The Symphony kernel: event loop, syscall dispatch, the two-level
//! scheduler, and I/O with KV offload. The process table and a process's
//! way through it live in [`crate::proc`]; writing the WAL and recovering
//! from it in [`crate::recovery`].
//!
//! # Determinism
//!
//! The kernel is the only scheduler: it delivers one reply, then takes
//! *that* thread's next syscall (or exit) before touching anything else —
//! by stepping an inline body on its own thread, or by blocking until a
//! hosted closure's OS thread sends it up (see [`crate::syscall`]).
//! Combined with the virtual clock and seeded RNG streams, a whole serving
//! run replays bit-identically — the integration tests compare the typed
//! telemetry streams of two runs.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use symphony_gpu::{DeviceSpec, ExecError, GpuExecutor, GpuMetrics, PredRequest};
use symphony_kvfs::{
    FileId, KvError, KvStats, KvStore, KvStoreConfig, Mode, OwnerId, Residency, RestoreReport,
    SwapReport,
};
use symphony_model::surrogate::VocabInfo;
use symphony_model::{ModelConfig, Surrogate, TokenId};
use symphony_sim::seglog::SegLog;
use symphony_sim::{EventQueue, IdSlab, RetryPolicy, Rng, SimDuration, SimTime};
use symphony_telemetry::{
    export_chrome_trace, export_chrome_trace_with_flows, latency_bounds_ns, occupancy_bounds,
    percent_bounds, Collector, Counter, EdgeKind, EventBus, EventKind, Gauge, Histogram,
    MetricsRegistry, MetricsSnapshot, SwapDir, TimedEvent,
};
use symphony_tokenizer::Bpe;

use crate::faults::{FaultInjector, FaultPlan, FaultStats, ToolFaultKind};
use crate::proc::{Proc, Seat, ThreadState};
use crate::recovery::Asked;
use crate::resilience::{
    AdmissionPolicy, BreakerBank, BreakerPolicy, BreakerVerdict, ResilienceCounters,
    ResilienceStats,
};
use crate::sched::{
    threads_parked_gate, BatchGate, BatchPolicy, Decision, ExecMode, ProgramQueue, QueueDiscipline,
};
use crate::syscall::{Body, Ctx, Next, SysReply, Syscall, UpCall};
use crate::tools::{ToolOutcome, ToolRegistry, ToolSpec};
use crate::types::{ExitStatus, Limits, Pid, ProcessUsage, SysError, Tid};
use crate::wal::{self, Effect, EffectClass, WalConfig, WalState};

/// A re-constructible program body for crash recovery. Unlike the plain
/// `FnOnce` closures accepted by [`Kernel::spawn_process`], an image can be
/// invoked again after a kernel crash, so [`Kernel::resume_programs`] can
/// re-execute the program deterministically from its start while answering
/// journalled syscall effects from the WAL.
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
    /// Restore the KV store from this journal at boot when the file exists
    /// (warm restart); [`Kernel::persist_kv`] writes it at shutdown.
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
    /// Default per-process limits.
    pub default_limits: Limits,
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
    /// Kernel-wide tool retry policy; a [`ToolSpec::with_retry`] overrides
    /// it per tool. `None` means one attempt.
    pub tool_retry: Option<RetryPolicy>,
    /// Per-tool circuit breaker; `None` disables breaking.
    pub breaker: Option<BreakerPolicy>,
    /// `pred` admission control under KV-pool pressure; `None` disables
    /// shedding and requeueing (KV exhaustion surfaces as `Kv(NoGpuMemory)`).
    pub admission: Option<AdmissionPolicy>,
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
            default_limits: Limits::default(),
            telemetry: false,
            causal: false,
            faults: FaultPlan::none(),
            tool_retry: None,
            breaker: None,
            admission: None,
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
            default_limits: Limits::default(),
            telemetry: false,
            causal: false,
            faults: FaultPlan::none(),
            tool_retry: None,
            breaker: None,
            admission: None,
            wal: None,
        }
    }
}

/// What [`ExecMode`] lowers to, once, in `Kernel::build`: the four things
/// the GPU loop reads as data.
struct LoopPreset {
    /// Most tokens one sequence contributes to an iteration: the mode's
    /// `chunk_tokens`, and never more than the budget (or one KV page, if
    /// that is larger).
    slice: usize,
    /// New tokens the sequences of one iteration share: the roofline ridge
    /// ([`GpuExecutor::ridge_tokens`]) where prefills are chunked,
    /// unbounded where a slice is the whole request. Handed out
    /// shortest-remaining first; once it is spent every remaining sequence
    /// still advances one KV page (see `launch_iteration`, phase 2).
    budget: usize,
    gate: LaunchGate,
    /// The kernel keeps admitted sequences' KV on the GPU itself: swaps it
    /// in, evicts idle files, preempts peers. When `false`, residency is
    /// the program's business and a `pred` that does not fit or whose file
    /// is off the GPU fails.
    manages_residency: bool,
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
    /// A scheduled program arrival. `main_tid` is pre-assigned for durable
    /// programs so their per-thread RNG stream survives a crash before the
    /// arrival fires.
    SpawnProgram {
        pid: Pid,
        body: Body,
        main_tid: Option<Tid>,
    },
    /// A process's wall-clock deadline passed: fail its blocked receivers.
    DeadlineCheck { pid: Pid },
    /// Re-pool a `pred` that was backed off after KV-pool exhaustion.
    RequeuePred { pred: PendingPred },
}

pub(crate) struct PendingPred {
    tid: Tid,
    req: PredRequest,
    /// Times this request was requeued after KV-pool exhaustion.
    requeues: u32,
    /// When the `pred` first joined the pool (queue-delay metric; preserved
    /// across requeues so the delay covers the whole wait).
    enqueued_at: SimTime,
    /// When the `pred` last joined the pool: `enqueued_at`, or the end of
    /// its latest requeue backoff. The batch gate's wait window runs from
    /// the oldest of these.
    pooled_at: SimTime,
    /// Owning program (MLFQ service accounting).
    pid: Pid,
    /// `true` when issued by the program's main thread: a blocking,
    /// critical-path `pred`. Spawned threads' preds are treated as
    /// speculative/background work by the program-aware queue.
    critical: bool,
    // ---- progress across iterations ----
    /// Input tokens already executed in earlier iterations.
    done: usize,
    /// Distributions accumulated across chunks, delivered when `done`
    /// reaches the request length.
    dists: Vec<symphony_model::Dist>,
    /// File length at first admission, for rollback when a later chunk
    /// faults (a failed `pred` must leave no partial work).
    start_len: usize,
    /// Queue delay observed (once per pooling: not again when a preempted
    /// sequence is readmitted).
    delay_recorded: bool,
    /// Completion time of a copy this sequence waits on — its KV coming
    /// in over H2D, or victims leaving over D2H to free its pages. Set
    /// when the copy is booked and cleared when the sequence next
    /// executes: until then it sits out of iterations and is not a
    /// preemption candidate (its transfer was paid for but not yet used).
    ready_at: Option<SimTime>,
    /// Sequence id the call's completion is journalled under.
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
    /// Whole-tool-call virtual latency (all attempts plus backoff).
    tool_latency_ns: Histogram,
    /// GPU KV pages in use, sampled after each batch.
    gpu_pages_used: Gauge,
    /// Disk-tier KV pages in use, sampled after each batch.
    disk_pages_used: Gauge,
    /// GPU pages that keep a lower-tier backing copy, sampled after each
    /// batch.
    backing_pages: Gauge,
    /// KV files swapped out to free GPU pages for an executing sequence
    /// (only where the loop manages residency).
    preemptions: Counter,
    /// Prefill chunks executed (requests that spanned more than one
    /// iteration).
    prefill_chunks: Counter,
    /// New tokens per iteration, one sample per `BatchBegin`.
    iteration_tokens: Histogram,
    /// The iteration token budget's source, [`GpuExecutor::ridge_tokens`];
    /// set once at build.
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
    /// Wall-clock DES throughput of the latest [`Kernel::run`]: events
    /// processed per real second. Observability only — never read back
    /// into scheduling, so it cannot perturb determinism.
    events_per_sec: Gauge,
    /// Replies delivered by stepping an inline body on the kernel's thread.
    inline_steps: Counter,
    /// Replies delivered over a hosted body's channel: one OS-thread
    /// hand-off there and one back.
    hosted_handoffs: Counter,
    /// Hosted bodies alive, each holding a pool worker.
    pub(crate) hosted_threads: Gauge,
    /// Processes that have exited and not been reaped: each is a record,
    /// its output, and nothing else (see [`crate::proc`]).
    pub(crate) zombies: Gauge,
}

impl KernelMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        KernelMetrics {
            ttft_ns: registry.histogram("kernel.ttft_ns", &latency_bounds_ns()),
            inter_token_ns: registry.histogram("kernel.inter_token_ns", &latency_bounds_ns()),
            queue_delay_ns: registry.histogram("sched.queue_delay_ns", &latency_bounds_ns()),
            batch_occupancy_pct: registry.histogram("gpu.batch_occupancy_pct", &percent_bounds()),
            tool_latency_ns: registry.histogram("tools.call_latency_ns", &latency_bounds_ns()),
            gpu_pages_used: registry.gauge("kvfs.gpu_pages_used"),
            disk_pages_used: registry.gauge("kvfs.disk_pages_used"),
            backing_pages: registry.gauge("kvfs.backing_pages"),
            preemptions: registry.counter("sched.preemptions"),
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
            events_per_sec: registry.gauge("sim.events_per_sec"),
            inline_steps: registry.counter("kernel.lip.inline_steps"),
            hosted_handoffs: registry.counter("kernel.lip.hosted_handoffs"),
            hosted_threads: registry.gauge("kernel.lip.hosted_threads"),
            zombies: registry.gauge("kernel.procs.zombies"),
        }
    }
}

/// The Symphony kernel. `impl Kernel` continues in [`crate::proc`] and
/// [`crate::recovery`]; the fields those two touch are `pub(crate)`.
pub struct Kernel {
    // Substrate.
    pub(crate) store: KvStore,
    /// Warm-restart report when the store was restored from a journal.
    restored: Option<RestoreReport>,
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
    gpu_busy: bool,
    /// Since when the GPU has been idle with work waiting and the launch
    /// gate shut (`None`: busy, nothing waiting, or not yet asked).
    idle_since: Option<SimTime>,
    /// Compute time of the latest iteration: how long the continuous gate
    /// will hold a launch for runnable threads at most.
    last_iteration: SimDuration,
    pending_batches: IdSlab<Vec<(Tid, SysReply)>>,
    next_batch: u64,
    timer_armed_until: Option<SimTime>,
    // Processes and threads (see `crate::proc`).
    pub(crate) threads: IdSlab<ThreadState>,
    pub(crate) next_tid: u64,
    pub(crate) procs: IdSlab<Proc>,
    pub(crate) next_pid: u64,
    pub(crate) names: BTreeMap<String, Pid>,
    pub(crate) live_threads: usize,
    /// Processes finalized since boot ([`Kernel::run`] returns how far it
    /// moved).
    pub(crate) exited: usize,
    // Plumbing.
    pub(crate) up_tx: Sender<UpCall>,
    up_rx: Receiver<UpCall>,
    pub(crate) rng: Rng,
    // Telemetry.
    pub(crate) registry: MetricsRegistry,
    pub(crate) bus: EventBus,
    pub(crate) kmetrics: KernelMetrics,
    // Resilience.
    injector: FaultInjector,
    pub(crate) breakers: Option<BreakerBank>,
    admission: Option<AdmissionPolicy>,
    tool_retry: Option<RetryPolicy>,
    pub(crate) res_counters: ResilienceCounters,
    // Config extracts.
    pub(crate) causal: bool,
    syscall_cost: SimDuration,
    offload_on_io_wait: bool,
    offload_min_latency: SimDuration,
    pub(crate) default_limits: Limits,
    max_batch: usize,
    /// Open incremental KV journal ([`Kernel::open_kv_journal`]): deltas
    /// appended by [`Kernel::persist_kv_delta`], bounded by compaction.
    kv_journal: Option<symphony_kvfs::Journal>,
    // Crash tolerance.
    /// Open write-ahead log (`None` when journalling is disabled).
    pub(crate) wal: Option<WalState>,
    /// Journalled state being replayed after `recover`; consulted by
    /// effectful syscalls to answer from the log instead of re-firing.
    pub(crate) replay: Option<wal::Replay>,
    /// `resume_programs` already ran (it must run at most once).
    pub(crate) programs_resumed: bool,
    /// Syscall boundaries crossed (crash-injection kill-points).
    syscall_boundaries: u64,
    /// Set when an injected kernel crash fired; the run loop halts.
    pub(crate) crashed: Option<u64>,
    // Serving.
    /// Streaming upcall sink: invoked synchronously on `emit`/`emit_tokens`
    /// and process exit so a front door (crates/serve) can forward output
    /// incrementally instead of polling finished records. `None` costs one
    /// branch per emit.
    session_sink: Option<SessionSink>,
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
    /// A process finished and its record is final.
    Exited {
        /// Exiting process.
        pid: Pid,
        /// Virtual exit time.
        at: SimTime,
        /// Final status.
        status: ExitStatus,
        /// Final resource usage.
        usage: ProcessUsage,
    },
}

/// Callback receiving [`SessionEvent`]s (see [`Kernel::set_session_sink`]).
pub type SessionSink = Box<dyn FnMut(SessionEvent) + Send>;

impl Kernel {
    /// Builds a kernel from a configuration.
    pub fn new(config: KernelConfig) -> Self {
        Self::build(config, None)
    }

    pub(crate) fn build(config: KernelConfig, replay: Option<wal::Replay>) -> Self {
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
        // Warm restart: replay the journal when one exists at the configured
        // path. Any failure (missing file, incompatible geometry) falls back
        // to a cold store — a serving kernel must boot either way.
        let mut restored = None;
        let store = match config
            .journal_path
            .as_deref()
            .filter(|p| p.exists())
            .and_then(|p| KvStore::restore_from_journal(p, store_config, &registry).ok())
        {
            Some((store, report)) => {
                restored = Some(report);
                store
            }
            None => KvStore::with_registry(store_config, &registry),
        };
        let (up_tx, up_rx) = unbounded();
        let gpu = GpuExecutor::with_registry(config.device, model, &registry);
        let kmetrics = KernelMetrics::register(&registry);
        let ridge = gpu.ridge_tokens();
        kmetrics.ridge_tokens.set(ridge as i64);
        let (preset, discipline) = match config.exec {
            ExecMode::Static(policy) => (
                LoopPreset {
                    slice: usize::MAX,
                    budget: usize::MAX,
                    gate: LaunchGate::Batch(BatchGate::new(policy, config.max_batch)),
                    manages_residency: false,
                },
                QueueDiscipline::Fifo,
            ),
            ExecMode::Continuous(c) => {
                // Chunked prefills share one ridge of tokens per iteration;
                // whole-request slices are by definition unbudgeted.
                let (slice, budget) = match c.chunk_tokens {
                    Some(chunk) => (chunk.clamp(1, ridge.max(store.page_tokens())), ridge),
                    None => (usize::MAX, usize::MAX),
                };
                (
                    LoopPreset {
                        slice,
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
            gpu_busy: false,
            idle_since: None,
            last_iteration: SimDuration::ZERO,
            pending_batches: IdSlab::new(),
            next_batch: 0,
            timer_armed_until: None,
            threads: IdSlab::new(),
            next_tid: 1,
            procs: IdSlab::new(),
            next_pid: 1,
            names: BTreeMap::new(),
            live_threads: 0,
            exited: 0,
            up_tx,
            up_rx,
            rng: Rng::new(config.seed),
            bus: {
                // The drop counter registers unconditionally so metrics
                // snapshots are identical with telemetry on or off.
                let dropped = registry.counter("telemetry.events_dropped");
                if config.telemetry {
                    let mut bus = EventBus::recording();
                    bus.set_drop_counter(dropped);
                    bus
                } else {
                    EventBus::disabled()
                }
            },
            kmetrics,
            injector: FaultInjector::with_registry(config.faults, config.seed, &registry),
            breakers: config
                .breaker
                .map(|p| BreakerBank::with_registry(p, &registry)),
            admission: config.admission,
            tool_retry: config.tool_retry,
            res_counters: ResilienceCounters::register(&registry),
            registry,
            causal: config.causal,
            syscall_cost: config.syscall_cost,
            offload_on_io_wait: config.offload_on_io_wait,
            offload_min_latency: config.offload_min_latency,
            default_limits: config.default_limits,
            max_batch: config.max_batch,
            kv_journal: None,
            wal: None,
            replay: None,
            programs_resumed: false,
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
    /// prompt), computing its fingerprint chain without charging GPU time —
    /// the moral equivalent of shipping precomputed KV with the deployment.
    pub fn preload_kv(
        &mut self,
        path: &str,
        tokens: &[TokenId],
        mode: Mode,
        pinned: bool,
    ) -> Result<FileId, SysError> {
        let fpr = self.gpu.model().fingerprinter();
        let mut fp = fpr.origin();
        let entries: Vec<symphony_kvfs::KvEntry> = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                fp = fpr.advance(fp, t, i as u32);
                symphony_kvfs::KvEntry::new(t, i as u32, fp)
            })
            .collect();
        let f = self.store.create(OwnerId::ADMIN)?;
        self.store.append(f, OwnerId::ADMIN, &entries)?;
        self.store.chmod(f, OwnerId::ADMIN, mode)?;
        if pinned {
            self.store.pin(f, OwnerId::ADMIN)?;
        }
        self.store.link(f, path, OwnerId::ADMIN)?;
        Ok(f)
    }

    /// The warm-restart report when this kernel booted from a journal
    /// (`KernelConfig::journal_path`); `None` after a cold start.
    pub fn restored(&self) -> Option<&RestoreReport> {
        self.restored.as_ref()
    }

    /// Snapshots the KV store to an append-only journal at `path` for a
    /// later warm restart, atomically replacing any journal already there.
    /// Returns `Ok(true)` when the journal landed complete; under an
    /// injected `kv.journal_write` fault the write is torn mid-record (the
    /// tail third is lost) and `Ok(false)` is returned — replay will
    /// recover the valid prefix.
    pub fn persist_kv(&mut self, path: &std::path::Path) -> std::io::Result<bool> {
        let mut bytes = self.store.journal_bytes();
        let torn = self.injector.journal_write();
        if torn {
            let cut = bytes.len() - bytes.len() / 3;
            bytes.truncate(cut);
            let at = self.events.now();
            self.bus.emit(at, || EventKind::FaultInjected {
                site: "kv.journal_write",
            });
        }
        SegLog::create(path, &bytes)?;
        Ok(!torn)
    }

    /// Opens an incremental KV journal at `path`: writes the current store
    /// as its base snapshot and starts delta tracking. From here on,
    /// [`Kernel::persist_kv_delta`] appends only what changed, and the
    /// journal is rewritten snapshot-equivalent whenever it crosses
    /// `config.compact_threshold_bytes` — so its size is bounded by the
    /// threshold plus one delta batch, not by history length.
    pub fn open_kv_journal(
        &mut self,
        path: &std::path::Path,
        config: symphony_kvfs::JournalConfig,
    ) -> std::io::Result<()> {
        let snapshot = self.store.journal_bytes();
        let journal = symphony_kvfs::Journal::create(path, &snapshot, config)?;
        self.store.enable_delta_log();
        self.store.set_journal_len_metric(journal.bytes());
        self.kv_journal = Some(journal);
        Ok(())
    }

    /// Appends the store's changes since the last call to the open KV
    /// journal, flushes them to disk, and compacts when the journal has
    /// crossed its threshold. Returns `Ok(true)` when a compaction ran;
    /// a no-op `Ok(false)` without an open journal.
    pub fn persist_kv_delta(&mut self) -> std::io::Result<bool> {
        let Some(journal) = self.kv_journal.as_mut() else {
            return Ok(false);
        };
        for rec in self.store.take_delta() {
            journal.append(&rec);
        }
        journal.flush()?;
        let mut compacted = false;
        if journal.needs_compaction() {
            let snapshot = self.store.journal_bytes();
            journal.compact(&snapshot)?;
            self.store.note_compaction();
            compacted = true;
        }
        self.store.set_journal_len_metric(journal.bytes());
        Ok(compacted)
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
    pub fn tool_invocations(&self) -> u64 {
        self.tools.invocations()
    }

    // ---- introspection ----------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Discrete events processed by the kernel's virtual clock since boot.
    /// The numerator of the `sim.events_per_sec` gauge and of symbench's
    /// `core.events_per_s` row.
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
    /// pages. Always 0 under the static preset, which leaves residency to
    /// the programs.
    pub fn preemptions(&self) -> u64 {
        self.registry
            .counter_value("sched.preemptions")
            .unwrap_or(0)
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

    /// Injected-fault counters for this run.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Resilience counters (retries, timeouts, breaker trips, shedding).
    /// A snapshot of the `resilience.*` registry counters; the breaker bank
    /// increments the same entries, so no merging is needed.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.res_counters.snapshot()
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
    pub fn telemetry_constructed(&self) -> u64 {
        self.bus.constructed()
    }

    /// Replaces the telemetry collector, returning the old one (tests use
    /// this to install a counting collector mid-run).
    pub fn set_event_collector(&mut self, collector: Collector) -> Collector {
        self.bus.set_collector(collector)
    }

    /// Renders the recorded telemetry events as Chrome trace-event JSON
    /// (Perfetto-loadable). Deterministic: same-seed runs export
    /// byte-identical traces.
    pub fn export_chrome_trace(&self) -> String {
        export_chrome_trace(self.bus.events())
    }

    /// Like [`Kernel::export_chrome_trace`], but renders the causal events
    /// recorded under [`KernelConfig::causal`] as Perfetto flow arrows
    /// (spawn, IPC, join, tool and preemption edges across tracks).
    pub fn export_chrome_trace_with_flows(&self) -> String {
        export_chrome_trace_with_flows(self.bus.events())
    }

    /// Telemetry events the bus discarded. The kernel's bus is unbounded,
    /// so this stays 0; goldens assert it to catch a bus that ever drops.
    pub fn events_dropped(&self) -> u64 {
        self.bus.dropped()
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
        let before = self.exited;
        self.run_for(SimDuration::MAX);
        self.exited - before
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
        // lint:allow(d1): sim.events_per_sec measures real host throughput — the gauge is observation-only and is never read back into simulation state
        let wall_start = std::time::Instant::now();
        let events_before = self.events.events_processed();
        let now = self.events.now();
        let first = if self.ready.is_empty() {
            self.events.peek_time().unwrap_or(now)
        } else {
            now
        };
        let deadline = first + slice;
        let quiescent = loop {
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
        };
        let processed = self.events.events_processed() - events_before;
        let secs = wall_start.elapsed().as_secs_f64();
        if processed > 0 && secs > 0.0 {
            self.kmetrics
                .events_per_sec
                .set((processed as f64 / secs) as i64);
        }
        quiescent
    }

    /// Hands the CPU to thread `tid` with `reply` and takes what it does
    /// next. The one place that knows where a body sits: a hosted one gets
    /// the reply over its channel and the kernel blocks for its upcall, an
    /// inline one is stepped right here. Everything around that — the span
    /// close, the dispatch event, `handle_syscall`, `handle_exit` — is the
    /// same code for both.
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
        let up = match seat {
            Seat::Hosted { reply_tx, .. } => {
                if reply_tx.send(reply).is_err() {
                    return;
                }
                self.kmetrics.hosted_handoffs.inc();
                self.up_rx
                    .recv()
                    // lint:allow(k1): the kernel holds up_tx, so the channel cannot close
                    .expect("a resumed LIP thread must issue a syscall or exit")
            }
            Seat::Inline { body, env } => {
                self.kmetrics.inline_steps.inc();
                STEPPING_LIP.with(|s| s.set(true));
                // The body is a sandboxed program's state and nothing of
                // the kernel's: if stepping it panics, it is dropped at
                // exit and never looked at again.
                let next = catch_unwind(AssertUnwindSafe(|| body.resume(env, reply)));
                STEPPING_LIP.with(|s| s.set(false));
                let status = match next {
                    Ok(Next::Syscall(call)) => return self.handle_syscall(tid, call),
                    Ok(Next::Exit(Ok(()))) => ExitStatus::Ok,
                    Ok(Next::Exit(Err(e))) => ExitStatus::Error(e),
                    Err(_) => ExitStatus::Crashed,
                };
                UpCall::Exited { tid, status }
            }
        };
        match up {
            UpCall::Syscall { tid, call } => self.handle_syscall(tid, call),
            UpCall::Exited { tid, status } => self.handle_exit(tid, status),
        }
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Resume(tid, reply) => {
                self.on_cpu -= 1;
                self.ready.push_back((tid, reply));
            }
            Event::Wake(tid, reply) => self.ready.push_back((tid, reply)),
            Event::BatchDone { batch_id } => {
                self.gpu_busy = false;
                // Results are recorded at launch; an unknown id would mean a
                // duplicate BatchDone. Drop it rather than panic the kernel.
                let Some(results) = self.pending_batches.remove(batch_id) else {
                    debug_assert!(false, "BatchDone for unknown batch {batch_id}");
                    return;
                };
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
            Event::SpawnProgram {
                pid,
                body,
                main_tid,
            } => {
                self.start(pid, main_tid, body);
            }
            Event::DeadlineCheck { pid } => self.enforce_deadline(pid),
            Event::RequeuePred { pred } => self.pool_pred(pred),
        }
    }

    /// Installs the streaming upcall sink. Subsequent `emit`/`emit_tokens`
    /// completions and process exits invoke it synchronously with
    /// [`SessionEvent`]s, in virtual-time order.
    ///
    /// The sink then owns the output stream: emitted text goes to it and
    /// nowhere else, so [`ProcessRecord::output`] stays empty and a
    /// finished process's zombie is its record alone. A durable process is
    /// the exception — its text is kept in the record as well, because the
    /// WAL's exit frame carries the finished record through recovery.
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
    /// durable (see [`Kernel::set_session_sink`]).
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

    /// Adds a `pred` to the wait queue: a fresh call, or one whose requeue
    /// backoff has run out.
    fn pool_pred(&mut self, mut pred: PendingPred) {
        let now = self.events.now();
        pred.pooled_at = now;
        if let LaunchGate::Batch(gate) = &mut self.preset.gate {
            gate.on_arrival(now);
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
        if self.gpu_busy {
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
                let oldest = self.cqueue.peek().map(|p| p.pooled_at);
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

    /// Frees GPU pages on behalf of active sequence `i`: evicts the idle
    /// LRU file, else preempts the lowest-priority resident peer (highest
    /// MLFQ level, then latest arrival) and records it in `preempted`.
    /// Forks of one document share its pages, and swap moves whole pages:
    /// an idle victim leaves behind whatever a running sequence also
    /// references, a preempted peer whatever a still-landing one does.
    /// Returns when the victim's dirty bytes have left over D2H, or `None`
    /// when nothing is evictable.
    fn evict_for(
        &mut self,
        i: usize,
        retire: &[usize],
        preempted: &mut Vec<usize>,
    ) -> Option<SimTime> {
        let now = self.events.now();
        let exclude: Vec<FileId> = self
            .active
            .iter()
            .enumerate()
            .filter(|(j, _)| !retire.contains(j) && !preempted.contains(j))
            .map(|(_, s)| s.req.file)
            .collect();
        let (victim, moved, vtid) = match self.store.evict_lru(&exclude) {
            Some((victim, moved)) => (victim, moved, 0),
            None => {
                let landing: Vec<FileId> = self
                    .active
                    .iter()
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
                (vfile, moved, vtid.0)
            }
        };
        self.kmetrics.preemptions.inc();
        self.bus.emit(now, || EventKind::Preempt {
            file: victim.0,
            tokens: moved.total() as u64,
            victim_tid: vtid,
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

    /// Moves preempted and requeued sequences out of the active set and
    /// drops retired ones (preemption only changes timing, never results:
    /// chunk progress travels with the sequence).
    fn rebuild_active(&mut self, retire: &[usize], preempted: &[usize], requeued: &[usize]) {
        let now = self.events.now();
        let mut kept = Vec::with_capacity(self.active.len());
        for (j, mut s) in std::mem::take(&mut self.active).into_iter().enumerate() {
            if retire.contains(&j) {
                continue;
            }
            if preempted.contains(&j) {
                let (spid, scrit) = (s.pid.0, s.critical);
                self.cqueue.push_front(spid, scrit, s);
            } else if requeued.contains(&j) {
                s.requeues += 1;
                // The next pooling's wait is its own queue-delay sample.
                s.delay_recorded = false;
                let delay = self.admission.map(|a| a.retry_delay).unwrap_or_default();
                self.events
                    .schedule(now + delay, Event::RequeuePred { pred: s });
            } else {
                kept.push(s);
            }
        }
        self.active = kept;
    }

    /// Brings non-resident participants' KV back to the GPU (files evicted
    /// by an earlier preemption, or swapped while their owner was between
    /// `pred`s) and returns the peers preempted to make room. A swap-in is
    /// only worth its PCIe time if the sequence can then actually *run*,
    /// so require headroom for the file's off-GPU pages plus its next
    /// chunk — otherwise the swapped-in file refills exactly the pages a
    /// preemption just freed and the iteration appends nothing, forever.
    /// Make headroom by evicting idle LRU files first, then by preempting
    /// the lowest-priority resident peer. The copy starts once the
    /// victims' dirty bytes have left, and the sequence joins iterations
    /// once it lands.
    fn swap_in_admitted(&mut self) -> Vec<usize> {
        let now = self.events.now();
        let chunk = self.preset.slice;
        let pt = self.store.page_tokens().max(1);
        let mut preempted: Vec<usize> = Vec::new();
        for i in 0..self.active.len() {
            if preempted.contains(&i) {
                continue;
            }
            let (file, spid, stid, take) = {
                let s = &self.active[i];
                let take = (s.req.tokens.len() - s.done).min(chunk);
                (s.req.file, s.pid, s.tid, take)
            };
            let off_gpu = self.store.pages_off_gpu(file).unwrap_or(0);
            if off_gpu == 0 {
                continue;
            }
            let need_pages = off_gpu + take.div_ceil(pt);
            let mut freed_at = now;
            while self.store.gpu_pages_free() < need_pages {
                match self.evict_for(i, &[], &mut preempted) {
                    Some(done) => freed_at = freed_at.max(done),
                    None => break,
                }
            }
            if self.store.gpu_pages_free() < need_pages {
                continue; // cannot fit this iteration; retry later
            }
            if let Ok(moved) = self.store.swap_in(file, OwnerId::ADMIN) {
                let ready_at = self.copy_in(freed_at, moved);
                self.active[i].ready_at = Some(ready_at);
                self.inflight.push((file, ready_at));
                self.bus.emit(now, || EventKind::KvSwap {
                    pid: spid.0,
                    tid: stid.0,
                    file: file.0,
                    tokens: moved.total() as u64,
                    disk_tokens: moved.disk_tokens as u64,
                    dir: SwapDir::In,
                    done_at: ready_at,
                });
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
        let chunk = self.preset.slice;
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
        let page = self.store.page_tokens().max(1);
        let mut budget_left = self.preset.budget;
        let mut takes = vec![0usize; parts.len()];
        for k in order {
            takes[k] = remaining(k).min(chunk).min(budget_left.max(page));
            budget_left = budget_left.saturating_sub(takes[k]);
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
            self.rebuild_active(&[], &preempted, &[]);
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
        let adm = self.admission;
        let mut replies: Vec<(usize, Tid, SysReply)> = Vec::new();
        let mut retire: Vec<usize> = Vec::new();
        let mut failed_mem: Vec<usize> = Vec::new();
        for (k, res) in results.into_iter().enumerate() {
            let i = parts[k];
            let take = requests[k].tokens.len();
            match res {
                Ok(r) => {
                    let s = &mut self.active[i];
                    s.dists.extend(r.dists);
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
                        let dists = std::mem::take(&mut s.dists);
                        let n_tokens = total as u32;
                        self.journal(cpid, None, cseq, || Effect::Pred { n_tokens });
                        replies.push((i, ctid, SysReply::Dists(dists)));
                        retire.push(i);
                    }
                    self.cqueue.charge(cpid.0, ccrit, take as u64);
                }
                Err(ExecError::Kv(KvError::NoGpuMemory)) => failed_mem.push(i),
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
        // evicted), fall back to admission-control requeue/shed, or fail
        // the `pred`. `preempted` carries over phase 1's swap-in victims so
        // phase 6 requeues them too.
        let mut requeued: Vec<usize> = Vec::new();
        for &i in &failed_mem {
            if preempted.contains(&i) {
                continue; // became a victim of an earlier recovery
            }
            let file = self.active[i].req.file;
            let need = (self.active[i].req.tokens.len() - self.active[i].done).min(chunk);
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
            let (stid, srequeues) = (self.active[i].tid, self.active[i].requeues);
            if adm.is_some_and(|a| srequeues < a.max_retries) {
                self.res_counters.preds_requeued.inc();
                let attempt = srequeues + 1;
                self.bus.emit(now, || EventKind::PredRequeue {
                    tid: stid.0,
                    attempt,
                });
                requeued.push(i);
            } else {
                self.roll_back(i);
                let reply = if adm.is_some() {
                    self.res_counters.preds_shed.inc();
                    self.bus.emit(now, || EventKind::PredShed { tid: stid.0 });
                    SysReply::Err(SysError::Busy)
                } else {
                    SysReply::Err(SysError::Kv(KvError::NoGpuMemory))
                };
                replies.push((i, stid, reply));
                retire.push(i);
            }
        }
        // Replies go out in admission order, whichever phase wrote them.
        replies.sort_by_key(|&(i, _, _)| i);
        let replies = replies.into_iter().map(|(_, tid, r)| (tid, r)).collect();

        // 6. Rebuild the active set: drop retired sequences, move preempted
        // and requeued ones back to the wait queue.
        self.rebuild_active(&retire, &preempted, &requeued);

        self.kmetrics
            .gpu_pages_used
            .set(self.store.gpu_pages_used() as i64);
        self.kmetrics
            .disk_pages_used
            .set(self.store.disk_pages_used() as i64);
        self.kmetrics
            .backing_pages
            .set(self.store.backing_pages() as i64);
        self.pending_batches.insert(batch_id, replies);
        self.gpu_busy = true;
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
                    self.res_counters.deadline_kills.inc();
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

        match call {
            Syscall::Pred { kv, tokens } => {
                if tokens.is_empty() {
                    self.complete(tid, SysReply::Err(SysError::BadArgument));
                    return;
                }
                // Bounded admission queue: shed before accounting the work.
                if let Some(adm) = self.admission {
                    if self.cqueue.len() >= adm.max_queue {
                        self.res_counters.preds_shed.inc();
                        self.bus.emit(sys_at, || EventKind::PredShed { tid: tid.0 });
                        self.complete(tid, SysReply::Err(SysError::Busy));
                        return;
                    }
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
                let seq = proc.next_seq(EffectClass::Pred);
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
                    requeues: 0,
                    enqueued_at: self.events.now(),
                    pooled_at: self.events.now(),
                    pid,
                    critical,
                    done: 0,
                    dists: Vec::new(),
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
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_create",
                    file: f.0,
                });
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvOpen { path } => {
                let f = kv!(self.store.open(&path, owner));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_open",
                    file: f.0,
                });
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
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_fork",
                    file: f.0,
                });
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
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_extract",
                    file: f.0,
                });
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvMerge { kvs } => {
                let f = kv!(self.store.merge(&kvs, owner));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_merge",
                    file: f.0,
                });
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvRead { kv, start, count } => {
                let e = kv!(self.store.read(kv, owner, start, count));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_read",
                    file: kv.0,
                });
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
                let new_tid = sys!(self.start(pid, None, body), "process missing");
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
                if self.answer_from_journal(pid, tid, seq, Asked::Tool { name: &name }) {
                    return;
                }
                let now = self.events.now();
                // Circuit breaker: fast-fail while open (no latency charge
                // beyond the syscall cost — that is the point of breaking).
                if let Some(bank) = self.breakers.as_mut() {
                    match bank.admit(&name, now) {
                        BreakerVerdict::Allow | BreakerVerdict::AllowTrial => {}
                        BreakerVerdict::Reject => {
                            if self.bus.is_enabled() {
                                let tool = name.clone();
                                self.bus.emit(now, || EventKind::BreakerReject {
                                    pid: pid.0,
                                    tid: tid.0,
                                    tool,
                                });
                            }
                            self.journal(pid, None, seq, || Effect::Tool {
                                latency_ns: 0,
                                result: Err(SysError::Unavailable),
                            });
                            self.complete(tid, SysReply::Err(SysError::Unavailable));
                            return;
                        }
                    }
                }
                // Per-tool policy overrides the kernel-wide default.
                let policy = self
                    .tools
                    .retry_policy(&name)
                    .or(self.tool_retry)
                    .unwrap_or_default();
                // All attempts are planned synchronously: the virtual time
                // the call occupies is the sum of per-attempt charges
                // (latency clamped to the timeout) plus backoff delays, and
                // one IoDone at the end delivers the final result.
                let mut total = SimDuration::ZERO;
                let mut failures = 0u32;
                let final_result = loop {
                    let fault = self.injector.tool_attempt();
                    if fault.is_some() {
                        self.bus
                            .emit(now, || EventKind::FaultInjected { site: "tool" });
                    }
                    // Existence was checked above and the registry is
                    // append-only; if the lookup fails anyway, that error
                    // becomes the call's final result instead of a panic.
                    let (latency, outcome) = match self.tools.invoke(&name, &args, &mut self.rng) {
                        Ok(v) => v,
                        Err(e) => break Err(e),
                    };
                    let mut eff_latency = match fault {
                        Some(ToolFaultKind::Hang) => latency * self.injector.stall_factor(),
                        _ => latency,
                    };
                    let mut attempt_result = match fault {
                        Some(ToolFaultKind::Fail) => Err(SysError::Fault("tool")),
                        _ => match outcome {
                            ToolOutcome::Ok(s) => Ok(s),
                            ToolOutcome::Failed(msg) => Err(SysError::ToolFailed(msg)),
                        },
                    };
                    if let Some(to) = timeout {
                        if eff_latency > to {
                            eff_latency = to;
                            attempt_result = Err(SysError::Timeout);
                            self.res_counters.tool_timeouts.inc();
                        }
                    }
                    total += eff_latency;
                    match attempt_result {
                        Ok(s) => break Ok(s),
                        Err(e) => {
                            failures += 1;
                            if policy.should_retry(failures) {
                                self.res_counters.tool_retries.inc();
                                if self.bus.is_enabled() {
                                    let tool = name.clone();
                                    self.bus.emit(now, || EventKind::ToolRetry {
                                        pid: pid.0,
                                        tid: tid.0,
                                        tool,
                                        failures,
                                    });
                                }
                                total += policy.backoff_after(failures, &mut self.rng);
                            } else {
                                self.res_counters.tool_calls_exhausted.inc();
                                break Err(e);
                            }
                        }
                    }
                };
                if let Some(bank) = self.breakers.as_mut() {
                    let trips_before = bank.trips();
                    bank.report(&name, final_result.is_ok(), now + total);
                    if bank.trips() > trips_before && self.bus.is_enabled() {
                        let tool = name.clone();
                        self.bus.emit(now, || EventKind::BreakerTrip { tool });
                    }
                }
                self.kmetrics.tool_latency_ns.observe(total.as_nanos());
                if self.bus.is_enabled() {
                    let tool = name.clone();
                    let attempts = failures + u32::from(final_result.is_ok());
                    let latency_ns = total.as_nanos();
                    self.bus.emit(now, || EventKind::ToolInvoke {
                        pid: pid.0,
                        tid: tid.0,
                        tool,
                        attempts,
                        latency_ns,
                    });
                }
                // The handler fired and its outcome is decided: make it
                // durable *now*, atomically with the effect under the
                // syscall-boundary crash model, so recovery never re-fires
                // the tool (exactly-once side-effects).
                self.journal(pid, None, seq, || Effect::Tool {
                    latency_ns: total.as_nanos(),
                    result: final_result.clone(),
                });
                self.begin_io(pid, total);
                self.events.schedule(
                    now + total,
                    Event::IoDone {
                        tid,
                        result: final_result,
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
                    Some((wtid, rseq)) => {
                        self.journal(to, None, rseq, || Effect::Recv {
                            from: pid.0,
                            data: data.clone(),
                        });
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
                let seq = proc.next_seq(EffectClass::Recv);
                if self.answer_from_journal(pid, tid, seq, Asked::Recv) {
                    return;
                }
                let proc = self.procs.get_mut(pid.0).and_then(Proc::live_mut);
                let proc = sys!(proc, "process missing");
                let Some((from, data, sent_at, sender_tid)) = proc.mailbox.pop_front() else {
                    proc.recv_waiters.push_back((tid, seq));
                    return;
                };
                self.journal(pid, None, seq, || Effect::Recv {
                    from: from.0,
                    data: data.clone(),
                });
                if self.causal && sender_tid != 0 {
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

impl Drop for Kernel {
    fn drop(&mut self) {
        // Unblock every parked hosted thread (their recv fails once the
        // reply sender drops), then join the OS threads. Parked inline
        // bodies are values: they drop here, unstepped.
        let mut threads = std::mem::take(&mut self.threads);
        let mut handles = Vec::new();
        for (_, ts) in threads.drain() {
            if let Some(Seat::Hosted { reply_tx, handle }) = ts.seat {
                drop(reply_tx);
                handles.push(handle);
            }
        }
        for h in handles {
            h.join();
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
