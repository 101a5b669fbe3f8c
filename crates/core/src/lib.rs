//! Symphony — an operating system for LLM Inference Programs (LIPs).
//!
//! This crate is the reproduction's core contribution, implementing §3–§4 of
//! *Serve Programs, Not Prompts* (HotOS '25): the unit of service is a
//! *program*, not a prompt. A LIP is ordinary code that drives generation
//! through fine-grained system calls:
//!
//! - **`pred` as a system call** (§4.1): one model forward pass over explicit
//!   `(token, position)` pairs against a KV *file*, returning the full
//!   next-token distribution for every input token. The autoregressive loop,
//!   constrained decoding, speculative decoding — all live in the LIP.
//! - **KV cache as files** (§4.2): LIPs create, fork (copy-on-write), extract,
//!   merge, link, lock, pin and swap KV files through KVFS syscalls.
//! - **Generations as threads** (§4.3): LIPs spawn threads for parallel
//!   generation (Tree-of-Thought), call tools server-side, and talk to other
//!   LIPs over IPC. While a thread waits on I/O, the kernel can offload its
//!   process's KV files to host memory and restore them on completion.
//! - **Two-level scheduling** (§4.4): a thread scheduler resumes LIP threads
//!   deterministically; a batch inference scheduler aggregates `pred` calls
//!   into GPU batches under a pluggable policy (immediate, fixed window, or
//!   adaptive Poisson-rate).
//!
//! # Execution model
//!
//! The kernel resumes LIP threads **one at a time** on a discrete-event
//! virtual clock and takes each thread's next syscall before touching
//! another, so whole serving runs are deterministic given a seed. Every
//! thread's body is an [`InlineBody`] the kernel steps on its own thread:
//! a LipScript program is one ([`Body::Inline`], through [`Kernel::admit`]),
//! and a native closure ([`Body::Hosted`]) is made one that
//! hands each step to the pooled OS thread the closure blocks on, since
//! blocking code needs a stack; see [`syscall`]. LIP compute is *charged*
//! (per-syscall virtual cost), not measured.
//!
//! # Examples
//!
//! A miniature text-completion LIP (the paper's Figure 2 without the fork):
//!
//! ```
//! use symphony::{Kernel, KernelConfig, SysError};
//!
//! let mut kernel = Kernel::new(KernelConfig::for_tests());
//! let pid = kernel.spawn_process("quickstart", "the system", |ctx| {
//!     let prompt = ctx.tokenize(&ctx.args())?;
//!     let kv = ctx.kv_create()?;
//!     let mut dist = ctx
//!         .pred_positions(kv, &prompt, 0)?
//!         .last()
//!         .ok_or(SysError::BadArgument)?;
//!     let mut pos = prompt.len() as u32;
//!     for _ in 0..8 {
//!         let tok = dist.argmax();
//!         if tok == ctx.eos() {
//!             break;
//!         }
//!         ctx.emit_tokens(&[tok])?;
//!         dist = ctx
//!             .pred(kv, &[(tok, pos)])?
//!             .last()
//!             .ok_or(SysError::BadArgument)?;
//!         pos += 1;
//!     }
//!     ctx.kv_remove(kv)?;
//!     Ok(())
//! });
//! kernel.run();
//! assert!(kernel.record(pid).unwrap().status.is_ok());
//! ```

pub mod faults;
mod hosted;
pub mod kernel;
mod proc;
mod recovery;
pub mod sched;
pub mod syscall;
pub mod tools;
pub mod types;
pub mod wal;

pub use faults::{FaultInjector, FaultPlan, ToolFaultKind};
pub use kernel::{Kernel, KernelConfig, ProgramImage, SessionEvent, SessionSink};
pub use sched::{
    BatchPolicy, ContinuousConfig, ExecMode, MlfqConfig, ProgramQueue, QueueDiscipline,
};
pub use syscall::{Body, Ctx, InlineBody, Next, SysReply, Syscall, ThreadEnv};
pub use tools::{ToolOutcome, ToolRegistry, ToolSpec};
pub use types::{ExitStatus, Limits, Pid, ProcessRecord, ProcessUsage, SpawnOpts, SysError, Tid};
pub use wal::{RecoveryReport, WalConfig, WalError, DEFAULT_CHECKPOINT_EVERY};

// Re-export the substrate types LIPs interact with.
pub use symphony_kvfs::{
    FileId, FileStat, KvEntry, KvError, KvStats, Mode, OwnerId, Residency, RestoreReport,
};
pub use symphony_model::{CtxFingerprint, Dist, ModelConfig, Preds, TokenId};
pub use symphony_sim::{SimDuration, SimTime};

// Re-export the telemetry substrate so embedders can inspect traces and
// metrics without depending on `symphony-telemetry` directly.
pub use symphony_telemetry as telemetry;
pub use symphony_telemetry::{
    analyze, build_forest, collapsed_stacks, render_report, EdgeKind, EventBus, EventKind,
    LatencyBreakdown, MetricValue, MetricsRegistry, MetricsSnapshot, Phase, SwapDir, TimedEvent,
    TraceForest, PHASES,
};
