//! Kernel-level identifiers, errors, limits and per-process records.

use symphony_kvfs::KvError;
use symphony_sim::SimTime;

/// Process identifier. Each LIP runs as one process owning its KV files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

/// Thread identifier; a process has one main thread and may spawn more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(pub u64);

/// Errors surfaced to LIPs by system calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysError {
    /// A KVFS operation failed.
    Kv(KvError),
    /// Unknown KV handle, thread or process.
    NotFound,
    /// `call_tool` named a tool that is not registered.
    NoSuchTool(String),
    /// A syscall argument was malformed (e.g. empty `pred` token list).
    BadArgument,
    /// The joined thread crashed or exited with an error.
    ThreadFailed,
    /// The tool reported an application-level failure.
    ToolFailed(String),
    /// A tool call exceeded its per-call timeout.
    Timeout,
    /// The process ran past its wall-clock (virtual time) deadline.
    DeadlineExceeded,
    /// A transient injected/hardware fault hit the operation. The payload
    /// names the fault site.
    Fault(&'static str),
    /// A per-process resource limit was exceeded.
    LimitExceeded(&'static str),
    /// The process was cancelled from outside (e.g. a serving client tore
    /// the session down). Like a deadline hit, every subsequent syscall
    /// fails and blocked receivers are woken with this error.
    Cancelled,
    /// A kernel bookkeeping invariant did not hold (e.g. a live thread
    /// without a process record). Never expected in practice; surfaced as a
    /// typed error instead of a panic so one corrupted record cannot take
    /// down every in-flight program (lint rule `k1`). The payload names the
    /// violated invariant.
    Internal(&'static str),
}

impl From<KvError> for SysError {
    fn from(e: KvError) -> Self {
        SysError::Kv(e)
    }
}

impl core::fmt::Display for SysError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SysError::Kv(e) => write!(f, "kv: {e}"),
            SysError::NotFound => write!(f, "not found"),
            SysError::NoSuchTool(name) => write!(f, "no such tool: {name}"),
            SysError::BadArgument => write!(f, "bad argument"),
            SysError::ThreadFailed => write!(f, "joined thread failed"),
            SysError::ToolFailed(msg) => write!(f, "tool failed: {msg}"),
            SysError::Timeout => write!(f, "tool call timed out"),
            SysError::DeadlineExceeded => write!(f, "process deadline exceeded"),
            SysError::Fault(site) => write!(f, "transient fault: {site}"),
            SysError::LimitExceeded(what) => write!(f, "limit exceeded: {what}"),
            SysError::Cancelled => write!(f, "cancelled"),
            SysError::Internal(what) => write!(f, "kernel invariant violated: {what}"),
        }
    }
}

impl std::error::Error for SysError {}

/// How a thread (and ultimately a process) finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitStatus {
    /// Returned `Ok(())`.
    Ok,
    /// Returned an error.
    Error(SysError),
    /// Panicked; the kernel reclaimed its resources.
    Crashed,
}

impl ExitStatus {
    /// Returns `true` for a clean exit.
    pub fn is_ok(&self) -> bool {
        matches!(self, ExitStatus::Ok)
    }
}

/// Per-process resource limits (§6 "Security implications": resource
/// accounting for user-supplied code). `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Maximum system calls across all threads.
    pub max_syscalls: Option<u64>,
    /// Maximum tokens run through `pred`.
    pub max_pred_tokens: Option<u64>,
    /// Maximum tool invocations.
    pub max_tool_calls: Option<u64>,
    /// Maximum live threads.
    pub max_threads: Option<u32>,
    /// KVFS page quota (enforced by the store).
    pub kv_quota_pages: Option<usize>,
    /// Per-tool-call timeout: a call (one attempt) slower than this fails
    /// with [`SysError::Timeout`] when it expires. `None` waits forever.
    pub tool_timeout: Option<symphony_sim::SimDuration>,
    /// Process wall-clock (virtual time) deadline measured from spawn.
    /// Once past it, every further syscall fails with
    /// [`SysError::DeadlineExceeded`] and blocked receives are woken.
    pub deadline: Option<symphony_sim::SimDuration>,
}

/// How [`crate::Kernel::admit`] enters a program. The default is now,
/// with [`Limits::default`], not durable.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpawnOpts {
    /// Virtual arrival of the main thread; `None` (or a past time) is now.
    pub at: Option<symphony_sim::SimTime>,
    /// The process's resource limits.
    pub limits: Limits,
    /// Journal the admission and the effectful system calls to the WAL,
    /// so that [`crate::Kernel::recover`] re-executes it after a crash.
    pub durable: bool,
}

impl SpawnOpts {
    /// Arrival at `at`, the rest default: a workload's admission.
    pub fn at(at: symphony_sim::SimTime) -> Self {
        SpawnOpts {
            at: Some(at),
            ..SpawnOpts::default()
        }
    }
}

/// Cumulative per-process accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessUsage {
    /// System calls issued.
    pub syscalls: u64,
    /// `pred` invocations.
    pub pred_calls: u64,
    /// Tokens run through `pred`.
    pub pred_tokens: u64,
    /// Tokens emitted to the client.
    pub emitted_tokens: u64,
    /// Tool invocations.
    pub tool_calls: u64,
    /// Threads ever spawned (including the main thread).
    pub threads_spawned: u32,
}

/// The kernel's record of one process, kept after exit for the harness
/// on a kernel without a session sink (see `Kernel::set_session_sink`).
#[derive(Debug, Clone)]
pub struct ProcessRecord {
    /// Process ID.
    pub pid: Pid,
    /// Name given at spawn (for traces and lookup).
    pub name: String,
    /// Virtual arrival/spawn time.
    pub spawned_at: SimTime,
    /// Virtual exit time of the last thread (`None` while running).
    pub exited_at: Option<SimTime>,
    /// Exit status of the *main* thread.
    pub status: ExitStatus,
    /// Concatenated `emit`/`emit_tokens` output — on a kernel without a
    /// session sink. Once a sink is installed it owns the stream, and the
    /// record goes at exit (a durable process holds its text here while it
    /// runs, for its WAL exit frame; see `Kernel::set_session_sink`).
    pub output: String,
    /// Resource usage.
    pub usage: ProcessUsage,
}

impl ProcessRecord {
    /// End-to-end latency, if the process has exited.
    pub fn latency(&self) -> Option<symphony_sim::SimDuration> {
        self.exited_at.map(|t| t.duration_since(self.spawned_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_error_display() {
        assert_eq!(SysError::NotFound.to_string(), "not found");
        assert_eq!(
            SysError::Kv(KvError::NoGpuMemory).to_string(),
            "kv: out of GPU pages"
        );
        assert_eq!(
            SysError::LimitExceeded("syscalls").to_string(),
            "limit exceeded: syscalls"
        );
        assert_eq!(
            SysError::NoSuchTool("webcam".into()).to_string(),
            "no such tool: webcam"
        );
        assert_eq!(SysError::Timeout.to_string(), "tool call timed out");
        assert_eq!(
            SysError::DeadlineExceeded.to_string(),
            "process deadline exceeded"
        );
        assert_eq!(
            SysError::Fault("gpu.pred").to_string(),
            "transient fault: gpu.pred"
        );
        assert_eq!(
            SysError::Internal("process record missing").to_string(),
            "kernel invariant violated: process record missing"
        );
    }

    #[test]
    fn exit_status_predicates() {
        assert!(ExitStatus::Ok.is_ok());
        assert!(!ExitStatus::Crashed.is_ok());
        assert!(!ExitStatus::Error(SysError::NotFound).is_ok());
    }

    #[test]
    fn record_latency() {
        let mut r = ProcessRecord {
            pid: Pid(1),
            name: "x".into(),
            spawned_at: SimTime::from_nanos(100),
            exited_at: None,
            status: ExitStatus::Ok,
            output: String::new(),
            usage: ProcessUsage::default(),
        };
        assert!(r.latency().is_none());
        r.exited_at = Some(SimTime::from_nanos(250));
        assert_eq!(r.latency().unwrap().as_nanos(), 150);
    }
}
