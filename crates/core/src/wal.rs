//! The kernel write-ahead log: crash-tolerant serving state.
//!
//! The file is a `symphony_sim::seglog` log (header, frames, torn-tail
//! rule: docs/RESILIENCE.md, "Log file format"); its header carries the
//! kernel seed. What is the WAL's own:
//!
//! | tag | frame | written |
//! |---|---|---|
//! | 32 | process spawn | synchronously |
//! | 33 | process exit | synchronously |
//! | 34 | tool effect | synchronously |
//! | 35 | IPC send | synchronously |
//! | 36 | IPC receive | synchronously |
//! | 37 | name lookup | synchronously |
//! | 38 | `now` read | synchronously |
//! | 39 | `pred` completion marker | buffered |
//! | 40 | checkpoint | synchronously, after the buffered markers |
//! | 41 | process scheduled for a future arrival | synchronously |
//!
//! # Durability classes
//!
//! - **Synchronous** frames go to `write(2)` before the effect they record
//!   is observable. They are small and must never be lost — a re-executed
//!   LIP that cannot find its tool call in the log would fire the tool
//!   twice.
//! - **Buffered** frames (`pred` markers) wait for the next checkpoint. A
//!   marker only saves GPU time on replay, so losing one costs
//!   re-execution, never correctness, and is not worth a write per token.
//!   A crash loses the buffer; wasted work therefore scales with the
//!   checkpoint interval, which E14 measures.
//!
//! # Recovery model
//!
//! LIPs are closures on OS threads — there is no portable way to
//! snapshot one mid-flight. Recovery instead *re-executes* every
//! unfinished program from its start with the same pid, main tid and
//! per-thread RNG stream, answering every journalled syscall effect from
//! the log (same tool results, same IPC data) so the re-execution
//! deterministically reaches the pre-crash state without re-firing
//! side effects, then falls through to live execution. A `pred` reply is
//! a pure function of the model and the file's fingerprint chain, so the
//! log records only *that* a pred completed; replay rebuilds its KV
//! append and re-derives the distributions bit-exactly. A sequence number
//! per `(pid, effect class)` keys the one replay map ([`EffectClass`]).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use symphony_kvfs::KvError;
use symphony_sim::frame::{push_opt_u64, push_str, push_u32, push_u64, Cursor};
use symphony_sim::seglog::{self, Head, HeadError, SegLog};
use symphony_sim::{SimDuration, SimTime};

use crate::resilience::BreakerStateView;
use crate::types::{ExitStatus, Limits, ProcessUsage, SysError};

/// WAL file magic: "SYMW" (sibling of the KVFS journal's "SYMJ").
pub const WAL_MAGIC: [u8; 4] = *b"SYMW";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 3;

/// Default virtual-time spacing between checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(5);

/// The header's one field is the writing kernel's seed.
const HEAD: Head<1> = Head {
    magic: WAL_MAGIC,
    version: WAL_VERSION,
};

const TAG_PROC_SPAWN: u8 = 32;
const TAG_PROC_EXIT: u8 = 33;
const TAG_TOOL_EFFECT: u8 = 34;
const TAG_IPC_SEND: u8 = 35;
const TAG_IPC_RECV: u8 = 36;
const TAG_LOOKUP: u8 = 37;
const TAG_NOW: u8 = 38;
const TAG_PRED_EFFECT: u8 = 39;
const TAG_CHECKPOINT: u8 = 40;
const TAG_PROC_SCHED: u8 = 41;

/// Enables the kernel WAL: where it lives and how often buffered pred
/// frames are checkpointed to disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// WAL file path. Created (truncating any previous log) by
    /// `Kernel::new`; appended to by `Kernel::recover`.
    pub path: PathBuf,
    /// Virtual-time interval between checkpoints. Shorter intervals lose
    /// less pred work to a crash but write more often.
    pub checkpoint_every: SimDuration,
}

impl WalConfig {
    /// A config at the default checkpoint interval.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalConfig {
            path: path.into(),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }

    /// Overrides the checkpoint interval.
    pub fn with_checkpoint_every(mut self, every: SimDuration) -> Self {
        self.checkpoint_every = every;
        self
    }
}

/// Why a WAL could not be read back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// `KernelConfig::wal` is `None` — there is nothing to recover from.
    Disabled,
    /// The file is missing or its header is unusable.
    Unreadable,
    /// Magic/version mismatch, or the log was written under a different
    /// kernel seed (replay would diverge).
    Incompatible,
}

impl From<HeadError> for WalError {
    fn from(e: HeadError) -> Self {
        match e {
            HeadError::Torn => WalError::Unreadable,
            HeadError::Incompatible => WalError::Incompatible,
        }
    }
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Disabled => write!(f, "kernel WAL is not configured"),
            WalError::Unreadable => write!(f, "kernel WAL missing or header unusable"),
            WalError::Incompatible => write!(f, "kernel WAL incompatible (magic/version/seed)"),
        }
    }
}

/// What `Kernel::resume_programs` recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Unfinished programs re-admitted for deterministic re-execution.
    pub resumed: usize,
    /// Finished programs restored as records without re-execution.
    pub finished: usize,
    /// Unfinished programs whose image could not be resolved; recorded as
    /// crashed.
    pub lost: usize,
    /// Valid frames read from the log.
    pub frames: u64,
    /// WAL bytes read.
    pub wal_bytes: u64,
    /// Whether a torn tail was truncated.
    pub torn: bool,
    /// The virtual clock restored from the last durable frame.
    pub clock: SimTime,
}

// ---- records ---------------------------------------------------------------

/// The class of a journalled syscall effect. The discriminant *is* the
/// frame tag; each process draws sequence ids per class, and
/// `(pid, class, seq)` is what matches a frame back to its call site on
/// re-execution (per-class streams stay aligned when a sibling thread's
/// un-journalled syscalls interleave differently under replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub(crate) enum EffectClass {
    Tool = TAG_TOOL_EFFECT,
    Send = TAG_IPC_SEND,
    Recv = TAG_IPC_RECV,
    Lookup = TAG_LOOKUP,
    Now = TAG_NOW,
    Pred = TAG_PRED_EFFECT,
}

impl EffectClass {
    pub(crate) const COUNT: usize = 6;

    /// Position in a process's per-class counter array.
    pub(crate) fn index(self) -> usize {
        (self as u8 - EffectClass::Tool as u8) as usize
    }
}

/// What one effectful syscall observed or caused: everything replay needs
/// to answer the re-executed call without performing it again.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Effect {
    /// A whole tool call (all attempts plus backoff) and its outcome.
    Tool {
        latency_ns: u64,
        result: Result<String, SysError>,
    },
    /// A send: `ok` is what the sender saw, `delivered` whether the
    /// message reached `to`'s mailbox (an injected drop is `ok` only).
    Send {
        to: u64,
        ok: bool,
        delivered: bool,
        data: String,
    },
    Recv {
        from: u64,
        data: String,
    },
    Lookup {
        found: Option<u64>,
    },
    Now {
        t: SimTime,
    },
    /// A `pred` that completed: a marker, not its reply (see the module
    /// docs). `n_tokens` guards against matching a different call.
    Pred {
        n_tokens: u32,
    },
}

impl Effect {
    pub(crate) fn class(&self) -> EffectClass {
        match self {
            Effect::Tool { .. } => EffectClass::Tool,
            Effect::Send { .. } => EffectClass::Send,
            Effect::Recv { .. } => EffectClass::Recv,
            Effect::Lookup { .. } => EffectClass::Lookup,
            Effect::Now { .. } => EffectClass::Now,
            Effect::Pred { .. } => EffectClass::Pred,
        }
    }
}

/// One journalled frame. Every payload starts with the virtual time it
/// was recorded at, which recovery uses to restore the clock.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    ProcSpawn {
        at: SimTime,
        pid: u64,
        main_tid: u64,
        name: String,
        args: String,
        limits: Limits,
    },
    ProcExit {
        at: SimTime,
        pid: u64,
        status: ExitStatus,
        output: String,
        usage: ProcessUsage,
    },
    /// The `seq`-th effect of its class drawn by `pid`; the frame tag is
    /// the class.
    Effect {
        at: SimTime,
        pid: u64,
        seq: u64,
        effect: Effect,
    },
    Checkpoint {
        at: SimTime,
        next_pid: u64,
        next_tid: u64,
        breakers: Vec<(String, BreakerStateView)>,
    },
    /// A program admitted for a *future* arrival. Journalled at schedule
    /// time so a crash before the arrival event fires does not silently
    /// drop the program; superseded by `ProcSpawn` once it starts. The
    /// main tid is pre-assigned at schedule time so the program's
    /// per-thread RNG stream is identical whether or not a crash
    /// intervened before it started.
    ProcSched {
        at: SimTime,
        pid: u64,
        main_tid: u64,
        arrival: SimTime,
        name: String,
        args: String,
        limits: Limits,
    },
}

impl WalRecord {
    pub(crate) fn at(&self) -> SimTime {
        match self {
            WalRecord::ProcSpawn { at, .. }
            | WalRecord::ProcExit { at, .. }
            | WalRecord::Effect { at, .. }
            | WalRecord::Checkpoint { at, .. }
            | WalRecord::ProcSched { at, .. } => *at,
        }
    }
}

// ---- error codecs ----------------------------------------------------------

const KV_ERRORS: &[KvError] = &[
    KvError::NoGpuMemory,
    KvError::NoCpuMemory,
    KvError::NoDiskMemory,
    KvError::NotFound,
    KvError::AlreadyExists,
    KvError::PermissionDenied,
    KvError::Locked,
    KvError::NotLockHolder,
    KvError::QuotaExceeded,
    KvError::BadRange,
    KvError::NotResident,
    KvError::Pinned,
    KvError::EmptyInput,
    KvError::JournalTorn,
    KvError::JournalIncompatible,
];

fn encode_kv_error(e: KvError) -> u8 {
    KV_ERRORS.iter().position(|k| *k == e).unwrap_or(3) as u8
}

fn decode_kv_error(b: u8) -> KvError {
    KV_ERRORS
        .get(b as usize)
        .copied()
        .unwrap_or(KvError::NotFound)
}

/// Re-materialises a `&'static str` error payload. Each distinct string
/// is leaked once and handed back on every later decode, so the leak is
/// bounded by the (small, fixed) set of payloads the kernel can produce.
fn intern(s: String) -> &'static str {
    static LEAKED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    // An insert cannot leave the set half-updated, so a poisoned lock
    // still guards valid data.
    let mut leaked = LEAKED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&known) = leaked.get(s.as_str()) {
        return known;
    }
    let fresh: &'static str = Box::leak(s.into_boxed_str());
    leaked.insert(fresh);
    fresh
}

fn encode_sys_error(out: &mut Vec<u8>, e: &SysError) {
    let (kind, payload): (u8, &str) = match e {
        SysError::Kv(k) => {
            out.push(0);
            out.push(encode_kv_error(*k));
            push_str(out, "");
            return;
        }
        SysError::NotFound => (1, ""),
        SysError::NoSuchTool(name) => (2, name.as_str()),
        SysError::BadArgument => (3, ""),
        SysError::ThreadFailed => (4, ""),
        SysError::ToolFailed(msg) => (5, msg.as_str()),
        SysError::Timeout => (6, ""),
        SysError::DeadlineExceeded => (7, ""),
        SysError::Unavailable => (8, ""),
        SysError::Busy => (9, ""),
        SysError::Fault(site) => (10, site),
        SysError::LimitExceeded(what) => (11, what),
        SysError::Shutdown => (12, ""),
        SysError::Internal(what) => (13, what),
        SysError::Cancelled => (14, ""),
    };
    out.push(kind);
    out.push(0);
    push_str(out, payload);
}

fn decode_sys_error(c: &mut Cursor<'_>) -> Option<SysError> {
    let kind = c.u8()?;
    let kv = c.u8()?;
    let payload = c.str()?;
    Some(match kind {
        0 => SysError::Kv(decode_kv_error(kv)),
        1 => SysError::NotFound,
        2 => SysError::NoSuchTool(payload),
        3 => SysError::BadArgument,
        4 => SysError::ThreadFailed,
        5 => SysError::ToolFailed(payload),
        6 => SysError::Timeout,
        7 => SysError::DeadlineExceeded,
        8 => SysError::Unavailable,
        9 => SysError::Busy,
        10 => SysError::Fault(intern(payload)),
        11 => SysError::LimitExceeded(intern(payload)),
        12 => SysError::Shutdown,
        13 => SysError::Internal(intern(payload)),
        14 => SysError::Cancelled,
        _ => return None,
    })
}

fn encode_limits(out: &mut Vec<u8>, l: &Limits) {
    push_opt_u64(out, l.max_syscalls);
    push_opt_u64(out, l.max_pred_tokens);
    push_opt_u64(out, l.max_tool_calls);
    push_opt_u64(out, l.max_threads.map(u64::from));
    push_opt_u64(out, l.kv_quota_pages.map(|p| p as u64));
    push_opt_u64(out, l.tool_timeout.map(|d| d.as_nanos()));
    push_opt_u64(out, l.deadline.map(|d| d.as_nanos()));
}

fn decode_limits(c: &mut Cursor<'_>) -> Option<Limits> {
    Some(Limits {
        max_syscalls: c.opt_u64()?,
        max_pred_tokens: c.opt_u64()?,
        max_tool_calls: c.opt_u64()?,
        max_threads: c.opt_u64()?.map(|v| v as u32),
        kv_quota_pages: c.opt_u64()?.map(|v| v as usize),
        tool_timeout: c.opt_u64()?.map(SimDuration::from_nanos),
        deadline: c.opt_u64()?.map(SimDuration::from_nanos),
    })
}

// ---- record codec ----------------------------------------------------------

fn record_tag(rec: &WalRecord) -> u8 {
    match rec {
        WalRecord::ProcSpawn { .. } => TAG_PROC_SPAWN,
        WalRecord::ProcExit { .. } => TAG_PROC_EXIT,
        WalRecord::Effect { effect, .. } => effect.class() as u8,
        WalRecord::Checkpoint { .. } => TAG_CHECKPOINT,
        WalRecord::ProcSched { .. } => TAG_PROC_SCHED,
    }
}

/// A record's frame payload: the time it was recorded at, then its fields.
fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    let out = &mut buf;
    push_u64(out, rec.at().as_nanos());
    match rec {
        WalRecord::ProcSpawn {
            pid,
            main_tid,
            name,
            args,
            limits,
            ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *main_tid);
            push_str(out, name);
            push_str(out, args);
            encode_limits(out, limits);
        }
        WalRecord::ProcExit {
            pid,
            status,
            output,
            usage,
            ..
        } => {
            push_u64(out, *pid);
            match status {
                ExitStatus::Ok => out.push(0),
                ExitStatus::Crashed => out.push(1),
                ExitStatus::Error(e) => {
                    out.push(2);
                    encode_sys_error(out, e);
                }
            }
            push_str(out, output);
            push_u64(out, usage.syscalls);
            push_u64(out, usage.pred_calls);
            push_u64(out, usage.pred_tokens);
            push_u64(out, usage.emitted_tokens);
            push_u64(out, usage.tool_calls);
            push_u32(out, usage.threads_spawned);
        }
        // One shape for every class: `(at, pid, seq, payload)`.
        WalRecord::Effect {
            pid, seq, effect, ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *seq);
            match effect {
                Effect::Tool { latency_ns, result } => {
                    push_u64(out, *latency_ns);
                    match result {
                        Ok(text) => {
                            out.push(0);
                            push_str(out, text);
                        }
                        Err(e) => {
                            out.push(1);
                            encode_sys_error(out, e);
                        }
                    }
                }
                Effect::Send {
                    to,
                    ok,
                    delivered,
                    data,
                } => {
                    push_u64(out, *to);
                    out.push(u8::from(*ok));
                    out.push(u8::from(*delivered));
                    push_str(out, data);
                }
                Effect::Recv { from, data } => {
                    push_u64(out, *from);
                    push_str(out, data);
                }
                Effect::Lookup { found } => push_opt_u64(out, *found),
                Effect::Now { t } => push_u64(out, t.as_nanos()),
                Effect::Pred { n_tokens } => push_u32(out, *n_tokens),
            }
        }
        WalRecord::Checkpoint {
            next_pid,
            next_tid,
            breakers,
            ..
        } => {
            push_u64(out, *next_pid);
            push_u64(out, *next_tid);
            push_u32(out, breakers.len() as u32);
            for (tool, state) in breakers {
                push_str(out, tool);
                match state {
                    BreakerStateView::Closed {
                        consecutive_failures,
                    } => {
                        out.push(0);
                        push_u64(out, u64::from(*consecutive_failures));
                    }
                    BreakerStateView::Open { until } => {
                        out.push(1);
                        push_u64(out, until.as_nanos());
                    }
                    BreakerStateView::HalfOpen => {
                        out.push(2);
                        push_u64(out, 0);
                    }
                }
            }
        }
        WalRecord::ProcSched {
            pid,
            main_tid,
            arrival,
            name,
            args,
            limits,
            ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *main_tid);
            push_u64(out, arrival.as_nanos());
            push_str(out, name);
            push_str(out, args);
            encode_limits(out, limits);
        }
    }
    buf
}

/// The payload of an effect frame; its tag says which class it is.
fn decode_effect(tag: u8, c: &mut Cursor<'_>) -> Option<Effect> {
    Some(match tag {
        TAG_TOOL_EFFECT => Effect::Tool {
            latency_ns: c.u64()?,
            result: match c.u8()? {
                0 => Ok(c.str()?),
                1 => Err(decode_sys_error(c)?),
                _ => return None,
            },
        },
        TAG_IPC_SEND => Effect::Send {
            to: c.u64()?,
            ok: c.u8()? != 0,
            delivered: c.u8()? != 0,
            data: c.str()?,
        },
        TAG_IPC_RECV => Effect::Recv {
            from: c.u64()?,
            data: c.str()?,
        },
        TAG_LOOKUP => Effect::Lookup {
            found: c.opt_u64()?,
        },
        TAG_NOW => Effect::Now {
            t: SimTime::from_nanos(c.u64()?),
        },
        TAG_PRED_EFFECT => Effect::Pred { n_tokens: c.u32()? },
        _ => return None,
    })
}

fn decode_payload(tag: u8, payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let at = SimTime::from_nanos(c.u64()?);
    let rec = match tag {
        TAG_PROC_SPAWN => WalRecord::ProcSpawn {
            at,
            pid: c.u64()?,
            main_tid: c.u64()?,
            name: c.str()?,
            args: c.str()?,
            limits: decode_limits(&mut c)?,
        },
        TAG_PROC_EXIT => {
            let pid = c.u64()?;
            let status = match c.u8()? {
                0 => ExitStatus::Ok,
                1 => ExitStatus::Crashed,
                2 => ExitStatus::Error(decode_sys_error(&mut c)?),
                _ => return None,
            };
            WalRecord::ProcExit {
                at,
                pid,
                status,
                output: c.str()?,
                usage: ProcessUsage {
                    syscalls: c.u64()?,
                    pred_calls: c.u64()?,
                    pred_tokens: c.u64()?,
                    emitted_tokens: c.u64()?,
                    tool_calls: c.u64()?,
                    threads_spawned: c.u32()?,
                },
            }
        }
        TAG_CHECKPOINT => {
            let next_pid = c.u64()?;
            let next_tid = c.u64()?;
            let n = c.u32()? as usize;
            let mut breakers = Vec::with_capacity(n.min(payload.len()));
            for _ in 0..n {
                let tool = c.str()?;
                let kind = c.u8()?;
                let value = c.u64()?;
                let state = match kind {
                    0 => BreakerStateView::Closed {
                        consecutive_failures: value as u32,
                    },
                    1 => BreakerStateView::Open {
                        until: SimTime::from_nanos(value),
                    },
                    2 => BreakerStateView::HalfOpen,
                    _ => return None,
                };
                breakers.push((tool, state));
            }
            WalRecord::Checkpoint {
                at,
                next_pid,
                next_tid,
                breakers,
            }
        }
        TAG_PROC_SCHED => WalRecord::ProcSched {
            at,
            pid: c.u64()?,
            main_tid: c.u64()?,
            arrival: SimTime::from_nanos(c.u64()?),
            name: c.str()?,
            args: c.str()?,
            limits: decode_limits(&mut c)?,
        },
        _ => WalRecord::Effect {
            at,
            pid: c.u64()?,
            seq: c.u64()?,
            effect: decode_effect(tag, &mut c)?,
        },
    };
    c.done().then_some(rec)
}

/// Human-readable name for a WAL frame tag (unknown tags are possible in
/// logs written by newer kernels).
pub fn tag_name(tag: u8) -> &'static str {
    match tag {
        TAG_PROC_SPAWN => "proc_spawn",
        TAG_PROC_EXIT => "proc_exit",
        TAG_TOOL_EFFECT => "tool_effect",
        TAG_IPC_SEND => "ipc_send",
        TAG_IPC_RECV => "ipc_recv",
        TAG_LOOKUP => "lookup",
        TAG_NOW => "now",
        TAG_PRED_EFFECT => "pred_effect",
        TAG_CHECKPOINT => "checkpoint",
        TAG_PROC_SCHED => "proc_sched",
        _ => "unknown",
    }
}

/// Parses WAL bytes and counts valid frames per tag — the journal-growth
/// observability hook `exp_recovery` reports, answering "what is this log
/// made of" without replaying it.
pub fn frame_counts(bytes: &[u8]) -> Result<BTreeMap<&'static str, u64>, WalError> {
    let name_of = |tag, payload: &[u8]| decode_payload(tag, payload).map(|_| tag_name(tag));
    Ok(seglog::tag_counts(bytes, &HEAD, name_of)?)
}

/// Parses WAL bytes: the writing kernel's seed, the longest valid record
/// prefix, the byte length of that prefix (header included, for torn-tail
/// truncation on reopen), and whether a torn tail (or an undecodable
/// frame) was cut. An unknown tag or malformed payload ends the valid
/// prefix exactly like a torn frame — forward-compatible and crash-safe
/// in the same code path.
pub(crate) fn read_wal(bytes: &[u8]) -> Result<(u64, Vec<WalRecord>, u64, bool), WalError> {
    let ([seed], body) = seglog::parse_head(&HEAD, bytes)?;
    let (records, valid_len, torn) = seglog::scan(body, decode_payload);
    Ok((seed, records, (Head::<1>::LEN + valid_len) as u64, torn))
}

// ---- writer ----------------------------------------------------------------

/// The open WAL: the log handle, which frames may wait in its buffer, and
/// when the next checkpoint flushes them.
#[derive(Debug)]
pub(crate) struct WalState {
    pub(crate) log: SegLog,
    /// Checkpoint spacing on the virtual clock.
    checkpoint_every: SimDuration,
    /// Next checkpoint due at this virtual time.
    next_checkpoint_at: SimTime,
}

impl WalState {
    /// Creates the WAL for a fresh kernel, replacing any previous log.
    pub(crate) fn create(config: &WalConfig, seed: u64) -> std::io::Result<Self> {
        let log = SegLog::create(&config.path, &seglog::encode_head(&HEAD, [seed]))?;
        Ok(Self::over(log, config, SimTime::ZERO))
    }

    /// Opens the WAL for appending after recovery. `durable_len` is how
    /// many bytes of the existing file were valid; a torn tail past it is
    /// truncated so new frames land on a clean boundary.
    pub(crate) fn open_append(
        config: &WalConfig,
        durable_len: u64,
        clock: SimTime,
    ) -> std::io::Result<Self> {
        let mut log = SegLog::open(&config.path)?;
        log.truncate_to(durable_len)?;
        Ok(Self::over(log, config, clock))
    }

    fn over(log: SegLog, config: &WalConfig, clock: SimTime) -> Self {
        // A zero interval would make the checkpoint catch-up loop spin.
        let every = config.checkpoint_every.max(SimDuration::from_nanos(1));
        WalState {
            log,
            checkpoint_every: every,
            next_checkpoint_at: clock + every,
        }
    }

    /// Journals one record under its durability class (module docs): a
    /// `pred` marker waits in the buffer, anything else is on its way to
    /// disk when this returns.
    pub(crate) fn write(&mut self, rec: &WalRecord) -> std::io::Result<()> {
        match record_tag(rec) {
            TAG_PRED_EFFECT => self.log.push(TAG_PRED_EFFECT, &encode_payload(rec)),
            tag => self.log.append(tag, &encode_payload(rec))?,
        }
        Ok(())
    }

    /// Whether a checkpoint is due at virtual time `now`.
    pub(crate) fn checkpoint_due(&self, now: SimTime) -> bool {
        now >= self.next_checkpoint_at
    }

    /// Writes the buffered markers and then `rec`, a checkpoint frame, and
    /// moves the next checkpoint past `rec`'s time. Returns the number of
    /// frames made durable.
    pub(crate) fn checkpoint(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        self.log.push(record_tag(rec), &encode_payload(rec));
        let frames = self.log.pending_frames();
        self.log.flush()?;
        while self.next_checkpoint_at <= rec.at() {
            self.next_checkpoint_at += self.checkpoint_every;
        }
        Ok(frames)
    }
}

// ---- replay state ----------------------------------------------------------

/// One journalled process, assembled from its schedule and/or spawn (and
/// maybe exit) frames.
#[derive(Debug, Clone)]
pub(crate) struct ReplayProc {
    pub(crate) name: String,
    pub(crate) args: String,
    /// When it started (spawn frame) or is due to (schedule frame only).
    pub(crate) arrival: SimTime,
    pub(crate) main_tid: u64,
    pub(crate) limits: Limits,
    pub(crate) exit: Option<ReplayExit>,
}

/// A journalled process exit.
#[derive(Debug, Clone)]
pub(crate) struct ReplayExit {
    pub(crate) at: SimTime,
    pub(crate) status: ExitStatus,
    pub(crate) output: String,
    pub(crate) usage: ProcessUsage,
}

/// Everything recovery needs, keyed for O(log n) replay hits.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    pub(crate) clock: SimTime,
    pub(crate) next_pid: u64,
    pub(crate) next_tid: u64,
    /// Programs that started (a `ProcSpawn` frame exists).
    pub(crate) procs: BTreeMap<u64, ReplayProc>,
    /// Scheduled-but-never-started programs (no `ProcSpawn` frame).
    pub(crate) scheduled: BTreeMap<u64, ReplayProc>,
    /// Every journalled syscall effect, by `(pid, class, seq)`.
    pub(crate) effects: BTreeMap<(u64, EffectClass, u64), Effect>,
    /// `(from, seq)` of the delivered sends in journal (= delivery) order,
    /// for mailbox reconstruction; the payloads are in `effects`.
    pub(crate) sends: Vec<(u64, u64)>,
    pub(crate) breakers: Vec<(String, BreakerStateView)>,
    pub(crate) frames: u64,
    pub(crate) wal_bytes: u64,
    pub(crate) torn: bool,
}

impl Replay {
    /// Count of journalled recvs per receiver, used to skip the consumed
    /// prefix when rebuilding mailboxes.
    pub(crate) fn recv_counts(&self) -> BTreeMap<u64, usize> {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for &(pid, class, _) in self.effects.keys() {
            if class == EffectClass::Recv {
                *counts.entry(pid).or_default() += 1;
            }
        }
        counts
    }
}

/// Folds a record stream into replay state. Re-journalled frames from a
/// previous recovery are idempotent: later frames for the same key simply
/// overwrite identical content.
pub(crate) fn build_replay(records: Vec<WalRecord>, wal_bytes: u64, torn: bool) -> Replay {
    let mut r = Replay {
        wal_bytes,
        torn,
        frames: records.len() as u64,
        ..Replay::default()
    };
    for rec in records {
        r.clock = r.clock.max(rec.at());
        match rec {
            WalRecord::ProcSpawn {
                at,
                pid,
                main_tid,
                name,
                args,
                limits,
            } => {
                r.next_pid = r.next_pid.max(pid + 1);
                r.next_tid = r.next_tid.max(main_tid + 1);
                // A spawn frame supersedes the schedule frame for its pid.
                r.scheduled.remove(&pid);
                r.procs.entry(pid).or_insert(ReplayProc {
                    name,
                    args,
                    arrival: at,
                    main_tid,
                    limits,
                    exit: None,
                });
            }
            WalRecord::ProcExit {
                at,
                pid,
                status,
                output,
                usage,
            } => {
                if let Some(p) = r.procs.get_mut(&pid) {
                    p.exit = Some(ReplayExit {
                        at,
                        status,
                        output,
                        usage,
                    });
                }
            }
            WalRecord::Effect {
                pid, seq, effect, ..
            } => {
                let delivered = matches!(
                    effect,
                    Effect::Send {
                        ok: true,
                        delivered: true,
                        ..
                    }
                );
                // Journal order is delivery order; only first sight counts.
                let first = r
                    .effects
                    .insert((pid, effect.class(), seq), effect)
                    .is_none();
                if first && delivered {
                    r.sends.push((pid, seq));
                }
            }
            WalRecord::Checkpoint {
                next_pid,
                next_tid,
                breakers,
                ..
            } => {
                r.next_pid = r.next_pid.max(next_pid);
                r.next_tid = r.next_tid.max(next_tid);
                r.breakers = breakers;
            }
            WalRecord::ProcSched {
                pid,
                main_tid,
                arrival,
                name,
                args,
                limits,
                ..
            } => {
                r.next_pid = r.next_pid.max(pid + 1);
                r.next_tid = r.next_tid.max(main_tid + 1);
                if !r.procs.contains_key(&pid) {
                    r.scheduled.entry(pid).or_insert(ReplayProc {
                        name,
                        args,
                        arrival,
                        main_tid,
                        limits,
                        exit: None,
                    });
                }
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_sim::frame::{append_frame, fnv1a, FRAME_OVERHEAD};

    const HEADER_LEN: usize = Head::<1>::LEN;

    /// One record as a complete frame.
    fn encode_frame(rec: &WalRecord) -> Vec<u8> {
        let mut frame = Vec::new();
        append_frame(&mut frame, record_tag(rec), &encode_payload(rec));
        frame
    }

    fn effect(at: u64, pid: u64, seq: u64, effect: Effect) -> WalRecord {
        WalRecord::Effect {
            at: SimTime::from_nanos(at),
            pid,
            seq,
            effect,
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::ProcSpawn {
                at: SimTime::from_nanos(10),
                pid: 1,
                main_tid: 7,
                name: "agent0".into(),
                args: "x=1".into(),
                limits: Limits {
                    max_syscalls: Some(100),
                    deadline: Some(SimDuration::from_millis(5)),
                    ..Limits::default()
                },
            },
            effect(
                20,
                1,
                0,
                Effect::Tool {
                    latency_ns: 1_000_000,
                    result: Ok("searched: q".into()),
                },
            ),
            effect(
                25,
                1,
                1,
                Effect::Tool {
                    latency_ns: 500,
                    result: Err(SysError::Timeout),
                },
            ),
            effect(
                30,
                1,
                0,
                Effect::Send {
                    to: 2,
                    ok: true,
                    delivered: true,
                    data: "hello".into(),
                },
            ),
            effect(
                31,
                2,
                0,
                Effect::Recv {
                    from: 1,
                    data: "hello".into(),
                },
            ),
            effect(32, 1, 0, Effect::Lookup { found: Some(2) }),
            effect(
                33,
                1,
                0,
                Effect::Now {
                    t: SimTime::from_nanos(33),
                },
            ),
            effect(40, 1, 0, Effect::Pred { n_tokens: 5 }),
            WalRecord::Checkpoint {
                at: SimTime::from_nanos(50),
                next_pid: 3,
                next_tid: 9,
                breakers: vec![
                    (
                        "search".into(),
                        BreakerStateView::Closed {
                            consecutive_failures: 2,
                        },
                    ),
                    (
                        "flaky".into(),
                        BreakerStateView::Open {
                            until: SimTime::from_nanos(99),
                        },
                    ),
                ],
            },
            WalRecord::ProcExit {
                at: SimTime::from_nanos(60),
                pid: 1,
                status: ExitStatus::Error(SysError::Fault("tool")),
                output: "partial".into(),
                usage: ProcessUsage {
                    syscalls: 12,
                    pred_calls: 1,
                    pred_tokens: 4,
                    emitted_tokens: 2,
                    tool_calls: 2,
                    threads_spawned: 1,
                },
            },
            WalRecord::ProcSched {
                at: SimTime::from_nanos(61),
                pid: 4,
                main_tid: 11,
                arrival: SimTime::from_nanos(900),
                name: "late-agent".into(),
                args: "y=2".into(),
                limits: Limits::default(),
            },
        ]
    }

    fn wal_bytes(records: &[WalRecord], seed: u64) -> Vec<u8> {
        let mut buf = seglog::encode_head(&HEAD, [seed]);
        for r in records {
            buf.extend_from_slice(&encode_frame(r));
        }
        buf
    }

    #[test]
    fn round_trips_every_record_type() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 42);
        let (seed, back, valid_len, torn) = read_wal(&bytes).unwrap();
        assert_eq!(seed, 42);
        assert_eq!(valid_len, bytes.len() as u64);
        assert!(!torn);
        assert_eq!(back, recs);
    }

    #[test]
    fn pred_effect_frame_size_is_independent_of_the_reply() {
        // at + pid + seq + n_tokens, plus the frame's tag/len/crc: the
        // distributions (vocabulary-sized, one per token) are not in it.
        for n_tokens in [1, 512, u32::MAX] {
            let frame = encode_frame(&effect(40, 1, 0, Effect::Pred { n_tokens }));
            assert_eq!(frame.len(), 8 + 8 + 8 + 4 + FRAME_OVERHEAD);
        }
    }

    #[test]
    fn truncation_at_every_byte_keeps_valid_prefix() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 7);
        // Frame boundaries: cutting exactly there is a clean (un-torn) log.
        let mut boundaries = vec![HEADER_LEN];
        let mut off = HEADER_LEN;
        for r in &recs {
            off += encode_frame(r).len();
            boundaries.push(off);
        }
        for cut in HEADER_LEN..bytes.len() {
            let (seed, prefix, valid_len, torn) = read_wal(&bytes[..cut]).unwrap();
            assert_eq!(seed, 7);
            let on_boundary = boundaries.contains(&cut);
            assert_eq!(torn, !on_boundary, "cut at {cut}");
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(prefix.len(), whole, "cut at {cut}");
            let last_boundary = boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
            assert_eq!(valid_len, *last_boundary as u64, "cut at {cut}");
        }
        // Cuts inside the header are unreadable, not torn.
        for cut in 0..HEADER_LEN {
            assert_eq!(read_wal(&bytes[..cut]), Err(WalError::Unreadable));
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let bytes = wal_bytes(&[], 1);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(read_wal(&wrong_magic), Err(WalError::Incompatible));
        let mut wrong_version = bytes.clone();
        // A log written by the previous format (v2: `fired`/`durable`
        // bytes, per-class shapes) is refused, not misread.
        for version in [WAL_VERSION - 1, 99] {
            wrong_version[4] = version as u8;
            assert_eq!(read_wal(&wrong_version), Err(WalError::Incompatible));
        }
        let mut bad_crc = bytes;
        bad_crc[9] ^= 0xff;
        assert_eq!(read_wal(&bad_crc), Err(WalError::Unreadable));
    }

    #[test]
    fn unknown_tag_truncates_like_a_tear() {
        let mut bytes = wal_bytes(&sample_records()[..2], 3);
        append_frame(&mut bytes, 250, b"future record type");
        let (_, records, valid_len, torn) = read_wal(&bytes).unwrap();
        assert_eq!(records.len(), 2);
        assert!(valid_len < bytes.len() as u64);
        assert!(torn);
    }

    #[test]
    fn every_effect_class_replays_from_one_map() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 5);
        let (_, records, _, torn) = read_wal(&bytes).unwrap();
        let r = build_replay(records, bytes.len() as u64, torn);
        assert_eq!(r.clock, SimTime::from_nanos(61));
        assert_eq!(r.next_pid, 5);
        assert_eq!(r.procs.len(), 1);
        assert!(r.procs[&1].exit.is_some());
        // Every effect frame of the log is in the map under its own
        // `(pid, class, seq)`, and nothing else is.
        let journalled: Vec<_> = recs
            .iter()
            .filter_map(|rec| match rec {
                WalRecord::Effect {
                    pid, seq, effect, ..
                } => Some(((*pid, effect.class(), *seq), effect.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(journalled.len(), 7);
        assert_eq!(r.effects.len(), journalled.len());
        for (key, effect) in &journalled {
            assert_eq!(r.effects.get(key), Some(effect), "{key:?}");
        }
        // Classes do not collide: pid 1 drew seq 0 in five of them.
        let classes: BTreeSet<EffectClass> = r
            .effects
            .keys()
            .filter(|&&(pid, _, seq)| pid == 1 && seq == 0)
            .map(|&(_, class, _)| class)
            .collect();
        assert_eq!(classes.len(), 5);
        assert_eq!(r.sends, vec![(1, 0)]);
        assert_eq!(r.recv_counts()[&2], 1);
        assert_eq!(r.breakers.len(), 2);
        assert_eq!(r.scheduled.len(), 1);
        assert_eq!(r.scheduled[&4].arrival, SimTime::from_nanos(900));
        assert_eq!(r.scheduled[&4].main_tid, 11);
        assert_eq!(r.next_tid, 12, "sched main tid raises the tid floor");
    }

    #[test]
    fn undelivered_and_repeated_sends_stay_out_of_the_mailbox_order() {
        let send = |seq, ok, delivered| {
            effect(
                5,
                1,
                seq,
                Effect::Send {
                    to: 2,
                    ok,
                    delivered,
                    data: "m".into(),
                },
            )
        };
        let records = vec![
            send(0, true, true),
            send(1, true, false),  // dropped in flight
            send(2, false, false), // no such target
            send(0, true, true),   // re-journalled by an earlier recovery
        ];
        let r = build_replay(records, 0, false);
        assert_eq!(r.sends, vec![(1, 0)]);
        assert_eq!(r.effects.len(), 3, "the sender's replay sees all three");
    }

    #[test]
    fn effect_class_is_the_frame_tag() {
        for rec in sample_records() {
            let frame = encode_frame(&rec);
            if let WalRecord::Effect { effect, .. } = &rec {
                assert_eq!(frame[0], effect.class() as u8);
                assert!(effect.class().index() < EffectClass::COUNT);
            }
            let payload = &frame[5..frame.len() - 4];
            assert_eq!(decode_payload(frame[0], payload), Some(rec));
        }
        let names = frame_counts(&wal_bytes(&sample_records(), 1)).unwrap();
        let expected = [
            ("checkpoint", 1),
            ("ipc_recv", 1),
            ("ipc_send", 1),
            ("lookup", 1),
            ("now", 1),
            ("pred_effect", 1),
            ("proc_exit", 1),
            ("proc_sched", 1),
            ("proc_spawn", 1),
            ("tool_effect", 2),
        ];
        assert_eq!(names.into_iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn sys_error_round_trip_covers_static_payloads() {
        let errors = [
            SysError::Kv(KvError::QuotaExceeded),
            SysError::NoSuchTool("webs".into()),
            SysError::ToolFailed("500".into()),
            SysError::Fault("gpu.pred"),
            SysError::LimitExceeded("pred_tokens"),
            SysError::Internal("some invariant"),
            SysError::Busy,
        ];
        for e in errors {
            let mut buf = Vec::new();
            encode_sys_error(&mut buf, &e);
            let mut c = Cursor::new(&buf);
            assert_eq!(decode_sys_error(&mut c).unwrap(), e);
            assert!(c.done());
        }
    }

    #[test]
    fn decoding_an_error_payload_twice_leaks_it_once() {
        let mut buf = Vec::new();
        encode_sys_error(&mut buf, &SysError::Internal("payload outside any list"));
        let decode = || match decode_sys_error(&mut Cursor::new(&buf)) {
            Some(SysError::Internal(s)) => s,
            other => panic!("expected Internal, got {other:?}"),
        };
        assert!(std::ptr::eq(decode(), decode()));
    }

    #[test]
    fn wal_state_buffers_preds_until_checkpoint() {
        let dir = std::env::temp_dir().join(format!("symwal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.wal");
        let cfg = WalConfig::new(&path);
        let mut w = WalState::create(&cfg, 9).unwrap();
        w.write(&sample_records()[0]).unwrap();
        w.write(&sample_records()[7]).unwrap();
        assert_eq!(w.log.pending_frames(), 1);
        let on_disk = std::fs::read(&path).unwrap();
        let (_, recs, _, _) = read_wal(&on_disk).unwrap();
        assert_eq!(recs.len(), 1, "pred not durable before checkpoint");
        let flushed = w
            .checkpoint(&WalRecord::Checkpoint {
                at: SimTime::from_nanos(99),
                next_pid: 2,
                next_tid: 2,
                breakers: vec![],
            })
            .unwrap();
        assert_eq!(flushed, 2);
        let on_disk = std::fs::read(&path).unwrap();
        let (_, recs, _, torn) = read_wal(&on_disk).unwrap();
        assert!(!torn);
        assert_eq!(recs.len(), 3, "spawn + pred + checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Logs already on disk must stay readable: length and FNV-1a of this
    /// record list's encoding under seed 42, computed at commit 108e8f8
    /// (before the segment log existed).
    #[test]
    fn on_disk_format_is_pinned() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 42);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (750, 0xa4d5_ff02));
        // The writer lays down the same bytes: the pred marker waits for
        // the checkpoint that follows it in the list, so file order is
        // list order.
        let dir = std::env::temp_dir().join(format!("symwal-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = WalConfig::new(dir.join("pinned.wal"));
        let mut w = WalState::create(&cfg, 42).unwrap();
        for rec in &recs {
            match rec {
                WalRecord::Checkpoint { .. } => drop(w.checkpoint(rec).unwrap()),
                _ => w.write(rec).unwrap(),
            }
        }
        assert_eq!(std::fs::read(&cfg.path).unwrap(), bytes);
        assert_eq!(w.log.disk_len(), bytes.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}
