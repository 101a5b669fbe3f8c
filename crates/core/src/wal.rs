//! The kernel write-ahead log: crash-tolerant serving state, and the one
//! durable log the kernel keeps.
//!
//! The file is a `symphony_sim::seglog` log (header, frames, torn-tail
//! rule: docs/RESILIENCE.md, "Log file format"); its header carries the
//! kernel seed. Its one tag space:
//!
//! | tag | frame |
//! |---|---|
//! | 1–8 | the KV store's records (`symphony_kvfs::journal`): page write, file metadata, link, unlink, remove, quota, pool state; 6 is retired |
//! | 32 | process admission: pid, arrival, name, args, limits and, for a body that is data, its image |
//! | 33 | process exit |
//! | 34 | tool effect: the call's result |
//! | 35 | IPC send |
//! | 36 | unassigned: a frame carrying it ends the valid prefix |
//! | 37 | name lookup |
//! | 38 | `now` read: the frame's own time is the value read |
//! | 39 | unassigned: a frame carrying it ends the valid prefix |
//! | 40 | checkpoint: pid allocator, `pred` completion records |
//! | 41 | unassigned: a frame carrying it ends the valid prefix |
//!
//! Every frame goes to `write(2)` when it is made, before the effect it
//! records is observable: a re-executed LIP that cannot find its tool call
//! in the log would fire the tool twice. There is one durability class.
//! A durable program is admitted once: its admission frame is written when
//! the kernel installs it, whether it starts at once or at a later arrival.
//! A body that is data (a LipScript program) ends the frame with its
//! image, a length-prefixed byte string; a closure's frame ends at its
//! limits, as in version 8.
//!
//! # KV batches
//!
//! The KV store's changes ride in this log as *batches*: its records,
//! closed by a pool-state record ([`symphony_kvfs::journal`]). When the
//! kernel creates the log over a store it restored, the store's snapshot
//! is the first batch (a cold store is empty and needs none); after that
//! it writes a delta batch just before each checkpoint frame and each
//! durable exit frame — but only when a linked file or the namespace
//! changed since the last batch, so a kernel that publishes nothing writes
//! no KV bytes. A delta batch describes the files a recovered store keeps,
//! the linked ones and the admin's: an unlinked file of any other owner
//! is in no batch (its program runs again, or its exit removed it).
//! A batch goes to `write(2)` whole. A crash can still tear it: the log's
//! valid prefix then ends where the torn batch began, so its leading
//! frames are dropped with the tail, and a recovered kernel reopens the
//! log there instead of appending its next batch after them. Recovery
//! therefore keeps the batches up to the last complete one; a published
//! file is durable once the exit frame of the program that published it
//! is.
//!
//! # Recovery model
//!
//! There is no portable way to snapshot a running body — a native closure
//! or a LipScript program — mid-flight. Recovery instead *re-executes*
//! every unfinished program from its start, rebuilt by the embedder's
//! resolver from its name and, when the admission frame carries one, its
//! image (a LipScript program's is its text, so the log alone rebuilds
//! it), with the same pid, hence the
//! same per-thread RNG streams (each is derived from the pid and the
//! thread's start order within its process), answering every journalled
//! syscall effect from the log (same tool results, same IPC data) so the
//! re-execution deterministically reaches the pre-crash state without
//! re-firing side effects, then falls through to live execution. Tids are
//! not journalled: a thread gets a fresh one each time it runs. A sequence
//! number per `(pid, effect class)` keys the one replay map
//! ([`EffectClass`]).
//!
//! # Receives
//!
//! No frame records a `recv`: each message is journalled once, by its
//! send frame, which says whether it was delivered. Each process numbers
//! its `recv`s in one sequence its threads share, and recovery answers
//! recv *k* with the *k*-th delivered send to that process in journal
//! order ([`Replay::inboxes`]). That is the message the live run gave it:
//! the mailbox and the queue of parked receivers are both FIFO, a send
//! reaches a parked receiver only while the mailbox is empty, and a
//! deadline or cancellation that fails a parked `recv` fails every later
//! syscall of its process, so no later `recv` can take a message out of
//! turn.
//!
//! # `pred`s
//!
//! A `pred` reply is a pure function of the model and the file's
//! fingerprint chain, and replay rebuilds its KV append and re-derives its
//! distributions bit-exactly, so no frame records a `pred`. Each durable
//! process numbers its `pred`s in one sequence its threads share, and keeps
//! a [`PredRecord`]: a watermark below which every call completed, the
//! total input tokens of those calls, and `(seq, n_tokens)` for each call
//! above it that completed out of order. A checkpoint lists the record of
//! every durable process whose record moved since the previous checkpoint;
//! recovery takes the last listing per pid, and a recovered process starts
//! from it, so a later checkpoint never lists less than the log holds.
//! The completions since the last checkpoint are lost with a crash: wasted
//! work scales with the checkpoint interval, which E14 measures.
//!
//! **The guard.** The replayed process sums the `n_tokens` of the calls it
//! answers from the record. A call below the watermark is answered while
//! that sum stays at or under the listed total, and the call at
//! `watermark - 1` only if the sum then equals it exactly; a listed call
//! above it only if its `n_tokens` matches. A call the record does not
//! list had not completed and runs live. A listed call the guard does not
//! vouch for runs live too, and so does every later `pred` of that
//! process. This catches a re-execution whose calls drew other seqs or
//! lengths than the run that was journalled — sibling threads reaching
//! `pred` in another order, or an image that is not the one that ran —
//! before it skips GPU work that was never done.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use symphony_kvfs::journal::{self, Record};
use symphony_kvfs::KvError;
use symphony_sim::frame::{push_opt_u64, push_str, push_u32, push_u64, Cursor, FRAME_OVERHEAD};
use symphony_sim::seglog::{self, Head, HeadError, SegLog};
use symphony_sim::{SimDuration, SimTime};

use crate::types::{ExitStatus, Limits, ProcessUsage, SysError};

/// WAL file magic: "SYMW".
pub const WAL_MAGIC: [u8; 4] = *b"SYMW";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 10;

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
const TAG_LOOKUP: u8 = 37;
const TAG_NOW: u8 = 38;
const TAG_CHECKPOINT: u8 = 40;

/// Enables the kernel WAL: where it lives and how often a checkpoint lists
/// the `pred` completion records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// WAL file path. Created (truncating any previous log) by
    /// `Kernel::new`; appended to by `Kernel::recover`.
    pub path: PathBuf,
    /// Virtual-time interval between checkpoints. Shorter intervals lose
    /// less `pred` work to a crash but write more often.
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

/// What `Kernel::recover` recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Unfinished programs re-admitted for deterministic re-execution.
    pub resumed: usize,
    /// Finished programs restored as records without re-execution.
    pub finished: usize,
    /// Unfinished programs the resolver could not rebuild a body for;
    /// recorded as crashed.
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
    Lookup = TAG_LOOKUP,
    Now = TAG_NOW,
}

impl EffectClass {
    pub(crate) const COUNT: usize = 4;

    /// Position in a process's per-class counter array.
    pub(crate) fn index(self) -> usize {
        match self {
            EffectClass::Tool => 0,
            EffectClass::Send => 1,
            EffectClass::Lookup => 2,
            EffectClass::Now => 3,
        }
    }
}

/// What one effectful syscall observed or caused: everything replay needs
/// to answer the re-executed call without performing it again.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Effect {
    /// One tool call (one attempt) and its outcome.
    Tool {
        result: Result<String, SysError>,
    },
    /// A send: `ok` is what the sender saw, `delivered` whether the
    /// message reached `to` (an injected drop is `ok` only). A delivered
    /// send is also what answers the receiver's `recv` on replay.
    Send {
        to: u64,
        ok: bool,
        delivered: bool,
        data: String,
    },
    Lookup {
        found: Option<u64>,
    },
    /// What `now` read: the time of the frame that records it, so `t`
    /// must equal the record's `at`.
    Now {
        t: SimTime,
    },
}

impl Effect {
    pub(crate) fn class(&self) -> EffectClass {
        match self {
            Effect::Tool { .. } => EffectClass::Tool,
            Effect::Send { .. } => EffectClass::Send,
            Effect::Lookup { .. } => EffectClass::Lookup,
            Effect::Now { .. } => EffectClass::Now,
        }
    }
}

/// A durable process's completed `pred`s, by the sequence number each
/// drew (module docs, "`pred`s").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PredRecord {
    /// Every call with a lower seq completed.
    watermark: u64,
    /// Total input tokens of the calls below `watermark`.
    below_tokens: u64,
    /// Calls above `watermark` that completed: `seq → n_tokens`.
    extras: BTreeMap<u64, u32>,
}

impl PredRecord {
    /// Records that call `seq` of `n_tokens` completed. A seq below the
    /// watermark is already recorded (only a replayed process that left
    /// its log completes one live).
    pub(crate) fn complete(&mut self, seq: u64, n_tokens: u32) {
        if seq < self.watermark {
            return;
        }
        self.extras.insert(seq, n_tokens);
        while let Some(n) = self.extras.remove(&self.watermark) {
            // Saturating: a record read back from the log may hold any total.
            self.below_tokens = self.below_tokens.saturating_add(u64::from(n));
            self.watermark += 1;
        }
    }
}

/// One journalled frame. Every payload starts with the virtual time it
/// was recorded at, which recovery uses to restore the clock.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// A durable program's admission, written when it is installed: it
    /// starts at `arrival`, now or later. `image` is what its body can be
    /// rebuilt from, if it is data.
    ProcSpawn {
        at: SimTime,
        pid: u64,
        arrival: SimTime,
        name: String,
        args: String,
        limits: Limits,
        image: Option<Vec<u8>>,
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
    /// `preds` lists, by pid, each durable process whose [`PredRecord`]
    /// moved since the previous checkpoint.
    Checkpoint {
        at: SimTime,
        next_pid: u64,
        preds: Vec<(u64, PredRecord)>,
    },
    /// One record of a KV batch (module docs, "KV batches").
    Kv(Record<'static>),
}

impl WalRecord {
    /// The time a kernel frame was recorded at. A KV record carries none:
    /// `ZERO`, which never moves the restored clock.
    pub(crate) fn at(&self) -> SimTime {
        match self {
            WalRecord::ProcSpawn { at, .. }
            | WalRecord::ProcExit { at, .. }
            | WalRecord::Effect { at, .. }
            | WalRecord::Checkpoint { at, .. } => *at,
            WalRecord::Kv(_) => SimTime::ZERO,
        }
    }
}

// ---- error codecs ----------------------------------------------------------

/// Declares each [`KvError`]'s one-byte code once: `encode_kv_error` is an
/// exhaustive match (a new variant does not compile without a code), and
/// `decode_kv_error` knows no other code (an unknown one — from a kernel
/// with a newer `KvError` — ends the valid prefix like any malformed
/// payload).
macro_rules! kv_error_codes {
    ($($code:literal = $variant:ident,)*) => {
        fn encode_kv_error(e: KvError) -> u8 {
            match e {
                $(KvError::$variant => $code,)*
            }
        }

        fn decode_kv_error(b: u8) -> Option<KvError> {
            match b {
                $($code => Some(KvError::$variant),)*
                _ => None,
            }
        }
    };
}

kv_error_codes! {
    0 = NoGpuMemory,
    1 = NoCpuMemory,
    2 = NoDiskMemory,
    3 = NotFound,
    4 = AlreadyExists,
    5 = PermissionDenied,
    6 = Locked,
    7 = NotLockHolder,
    8 = QuotaExceeded,
    9 = BadRange,
    10 = NotResident,
    11 = Pinned,
    12 = EmptyInput,
    13 = JournalTorn,
    14 = JournalIncompatible,
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
        // 8, 9 and 12 are unassigned: `decode_sys_error` rejects them, so
        // a frame carrying one ends the valid prefix like any malformed
        // payload.
        SysError::Fault(site) => (10, site),
        SysError::LimitExceeded(what) => (11, what),
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
        0 => SysError::Kv(decode_kv_error(kv)?),
        1 => SysError::NotFound,
        2 => SysError::NoSuchTool(payload),
        3 => SysError::BadArgument,
        4 => SysError::ThreadFailed,
        5 => SysError::ToolFailed(payload),
        6 => SysError::Timeout,
        7 => SysError::DeadlineExceeded,
        10 => SysError::Fault(intern(payload)),
        11 => SysError::LimitExceeded(intern(payload)),
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
        max_threads: c.opt_u64()?.map(u32::try_from).transpose().ok()?,
        kv_quota_pages: c.opt_u64()?.map(usize::try_from).transpose().ok()?,
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
        WalRecord::Kv(kv) => journal::record_tag(kv),
    }
}

/// A record's frame payload: the time it was recorded at, then its fields
/// (a KV record's payload is the store codec's, untimed).
fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    let out = &mut buf;
    if let WalRecord::Kv(kv) = rec {
        journal::encode_payload(kv, out);
        return buf;
    }
    push_u64(out, rec.at().as_nanos());
    match rec {
        WalRecord::ProcSpawn {
            pid,
            arrival,
            name,
            args,
            limits,
            image,
            ..
        } => {
            push_u64(out, *pid);
            push_u64(out, arrival.as_nanos());
            push_str(out, name);
            push_str(out, args);
            encode_limits(out, limits);
            // Last, and only when there is one: a closure's frame is
            // version 8's.
            if let Some(image) = image {
                push_u32(out, image.len() as u32);
                out.extend_from_slice(image);
            }
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
            at,
            pid,
            seq,
            effect,
        } => {
            push_u64(out, *pid);
            push_u64(out, *seq);
            match effect {
                Effect::Tool { result } => match result {
                    Ok(text) => {
                        out.push(0);
                        push_str(out, text);
                    }
                    Err(e) => {
                        out.push(1);
                        encode_sys_error(out, e);
                    }
                },
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
                Effect::Lookup { found } => push_opt_u64(out, *found),
                // The payload is empty: the decoder reads `t` from `at`.
                Effect::Now { t } => debug_assert_eq!(t, at, "a `now` frame is written when read"),
            }
        }
        WalRecord::Checkpoint {
            next_pid, preds, ..
        } => {
            push_u64(out, *next_pid);
            push_u32(out, preds.len() as u32);
            for (pid, rec) in preds {
                push_u64(out, *pid);
                push_u64(out, rec.watermark);
                push_u64(out, rec.below_tokens);
                push_u32(out, rec.extras.len() as u32);
                for (&seq, &n_tokens) in &rec.extras {
                    push_u64(out, seq);
                    push_u32(out, n_tokens);
                }
            }
        }
        WalRecord::Kv(_) => {}
    }
    buf
}

/// The payload of an effect frame, recorded at `at`; its tag says which
/// class it is.
fn decode_effect(tag: u8, at: SimTime, c: &mut Cursor<'_>) -> Option<Effect> {
    Some(match tag {
        TAG_TOOL_EFFECT => Effect::Tool {
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
        TAG_LOOKUP => Effect::Lookup {
            found: c.opt_u64()?,
        },
        TAG_NOW => Effect::Now { t: at },
        _ => return None,
    })
}

/// The pid of an admission frame. The kernel never allocates
/// `u64::MAX` (replay raises its allocator past every journalled pid), so
/// a frame naming it ends the valid prefix like any malformed payload.
fn decode_pid(c: &mut Cursor<'_>) -> Option<u64> {
    c.u64().filter(|&pid| pid != u64::MAX)
}

fn decode_payload(tag: u8, payload: &[u8]) -> Option<WalRecord> {
    if tag < TAG_PROC_SPAWN {
        return journal::decode_record(tag, payload).map(WalRecord::Kv);
    }
    let mut c = Cursor::new(payload);
    let at = SimTime::from_nanos(c.u64()?);
    let rec = match tag {
        TAG_PROC_SPAWN => WalRecord::ProcSpawn {
            at,
            pid: decode_pid(&mut c)?,
            arrival: SimTime::from_nanos(c.u64()?),
            name: c.str()?,
            args: c.str()?,
            limits: decode_limits(&mut c)?,
            image: if c.done() {
                None
            } else {
                let n = c.u32()? as usize;
                Some(c.take(n)?.to_vec())
            },
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
            let n = c.u32()? as usize;
            let mut preds = Vec::with_capacity(n.min(payload.len()));
            for _ in 0..n {
                let pid = c.u64()?;
                let mut rec = PredRecord {
                    watermark: c.u64()?,
                    below_tokens: c.u64()?,
                    extras: BTreeMap::new(),
                };
                for _ in 0..c.u32()? {
                    let (seq, n_tokens) = (c.u64()?, c.u32()?);
                    // The writer lists only seqs above the watermark, once.
                    if seq <= rec.watermark || rec.extras.insert(seq, n_tokens).is_some() {
                        return None;
                    }
                }
                preds.push((pid, rec));
            }
            WalRecord::Checkpoint {
                at,
                next_pid,
                preds,
            }
        }
        _ => WalRecord::Effect {
            at,
            pid: c.u64()?,
            seq: c.u64()?,
            effect: decode_effect(tag, at, &mut c)?,
        },
    };
    c.done().then_some(rec)
}

/// Human-readable name for a WAL frame tag, the KV store's among them
/// (unknown tags are possible in logs written by newer kernels).
pub fn tag_name(tag: u8) -> &'static str {
    if let Some(name) = journal::tag_name(tag) {
        return name;
    }
    match tag {
        TAG_PROC_SPAWN => "proc_spawn",
        TAG_PROC_EXIT => "proc_exit",
        TAG_TOOL_EFFECT => "tool_effect",
        TAG_IPC_SEND => "ipc_send",
        TAG_LOOKUP => "lookup",
        TAG_NOW => "now",
        TAG_CHECKPOINT => "checkpoint",
        _ => "unknown",
    }
}

/// Parses WAL bytes and counts valid frames per tag, KV records included
/// — the log-growth observability hook `exp_recovery` and `exp_persist`
/// report, answering "what is this log made of" without replaying it.
pub fn frame_counts(bytes: &[u8]) -> Result<BTreeMap<&'static str, u64>, WalError> {
    let name_of = |tag, payload: &[u8]| decode_payload(tag, payload).map(|_| tag_name(tag));
    Ok(seglog::tag_counts(bytes, &HEAD, name_of)?)
}

/// Parses WAL bytes: the writing kernel's seed, the longest valid record
/// prefix, the byte length of that prefix (header included, for torn-tail
/// truncation on reopen), and whether a torn tail (or an undecodable
/// frame) was cut. An unknown tag or malformed payload ends the valid
/// prefix exactly like a torn frame — forward-compatible and crash-safe
/// in the same code path. So does a KV batch the valid frames end inside:
/// the prefix stops before its first frame (module docs, "KV batches").
pub(crate) fn read_wal(bytes: &[u8]) -> Result<(u64, Vec<WalRecord>, u64, bool), WalError> {
    let ([seed], body) = seglog::parse_head(&HEAD, bytes)?;
    // The record index and body offset of the first frame of a batch not
    // closed yet, and where the next frame starts.
    let (mut open, mut index, mut at) = (None, 0, 0);
    let (mut records, mut valid_len, mut torn) = seglog::scan(body, |tag, payload| {
        let rec = decode_payload(tag, payload)?;
        if let WalRecord::Kv(kv) = &rec {
            if journal::closes_batch(kv) {
                open = None;
            } else if open.is_none() {
                open = Some((index, at));
            }
        }
        index += 1;
        at += FRAME_OVERHEAD + payload.len();
        Some(rec)
    });
    if let Some((first, start)) = open {
        records.truncate(first);
        (valid_len, torn) = (start, true);
    }
    Ok((seed, records, (Head::<1>::LEN + valid_len) as u64, torn))
}

/// The KV records of the log at `path`, its complete batches, and whether
/// it was torn; `None` when there is no such file or it is not a kernel
/// log.
pub(crate) fn read_kv_batches(path: &std::path::Path) -> Option<(Vec<Record<'static>>, bool)> {
    let (_, records, valid_len, torn) = read_wal(&std::fs::read(path).ok()?).ok()?;
    Some((build_replay(records, valid_len, torn).kv, torn))
}

// ---- writer ----------------------------------------------------------------

/// The open WAL: the log handle, when the next checkpoint is due, and
/// whose `pred` records it must list.
#[derive(Debug)]
pub(crate) struct WalState {
    pub(crate) log: SegLog,
    /// Checkpoint spacing on the virtual clock.
    checkpoint_every: SimDuration,
    /// Next checkpoint due at this virtual time.
    next_checkpoint_at: SimTime,
    /// Durable processes whose [`PredRecord`] moved since the last
    /// checkpoint.
    pub(crate) moved: BTreeSet<u64>,
}

impl WalState {
    /// Creates the WAL for a fresh kernel, replacing any previous log: the
    /// header, then `first_batch`, the store's snapshot (module docs, "KV
    /// batches"; empty for a cold store). Both land in one atomic create.
    pub(crate) fn create(
        config: &WalConfig,
        seed: u64,
        first_batch: &[u8],
    ) -> std::io::Result<Self> {
        let mut bytes = seglog::encode_head(&HEAD, [seed]);
        bytes.extend_from_slice(first_batch);
        let log = SegLog::create(&config.path, &bytes)?;
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
        // The shortest interval is 1 ns: `checkpoint` divides by it.
        let every = config.checkpoint_every.max(SimDuration::from_nanos(1));
        WalState {
            log,
            checkpoint_every: every,
            next_checkpoint_at: clock + every,
            moved: BTreeSet::new(),
        }
    }

    /// Journals one record: it is on its way to disk when this returns.
    pub(crate) fn write(&mut self, rec: &WalRecord) -> std::io::Result<()> {
        self.log.append(record_tag(rec), &encode_payload(rec))
    }

    /// Whether a checkpoint is due at virtual time `now`.
    pub(crate) fn checkpoint_due(&self, now: SimTime) -> bool {
        now >= self.next_checkpoint_at
    }

    /// Writes `rec`, a checkpoint frame, and moves the next checkpoint to
    /// the first boundary past its time (saturating at `SimTime::MAX`).
    pub(crate) fn checkpoint(&mut self, rec: &WalRecord) -> std::io::Result<()> {
        self.write(rec)?;
        let (next, at) = (self.next_checkpoint_at.as_nanos(), rec.at().as_nanos());
        if next <= at {
            let every = self.checkpoint_every.as_nanos();
            let steps = (at - next) / every + 1;
            let next = next.saturating_add(steps.saturating_mul(every));
            self.next_checkpoint_at = SimTime::from_nanos(next);
        }
        Ok(())
    }
}

// ---- replay state ----------------------------------------------------------

/// One journalled process, assembled from its admission (and maybe exit)
/// frame.
#[derive(Debug)]
pub(crate) struct ReplayProc {
    pub(crate) name: String,
    pub(crate) args: String,
    /// When it started, or is due to.
    pub(crate) arrival: SimTime,
    pub(crate) limits: Limits,
    /// What its admission frame says its body is rebuilt from.
    pub(crate) image: Option<Vec<u8>>,
    pub(crate) exit: Option<ReplayExit>,
}

/// A journalled process exit.
#[derive(Debug)]
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
    /// Every admitted program, by pid.
    pub(crate) procs: BTreeMap<u64, ReplayProc>,
    /// Every journalled syscall effect, by `(pid, class, seq)`.
    pub(crate) effects: BTreeMap<(u64, EffectClass, u64), Effect>,
    /// The KV store's records, in log order: complete batches only (module
    /// docs, "KV batches").
    pub(crate) kv: Vec<Record<'static>>,
    /// Each process's last listed `pred` record, and how far its replay
    /// has got against it.
    pub(crate) preds: BTreeMap<u64, PredReplay>,
    /// Per receiver, `(from, seq)` of the sends delivered to it in journal
    /// (= delivery) order: entry *k* answers its `recv` number *k* (module
    /// docs, "Receives"). The payloads are in `effects`.
    pub(crate) inboxes: BTreeMap<u64, Vec<(u64, u64)>>,
    pub(crate) frames: u64,
    pub(crate) wal_bytes: u64,
    pub(crate) torn: bool,
}

/// A recovered process's journalled [`PredRecord`] and the guard's state
/// (module docs, "The guard").
#[derive(Debug)]
pub(crate) struct PredReplay {
    pub(crate) log: PredRecord,
    /// Input tokens of the calls below the watermark answered so far.
    answered: u64,
    /// A call was not vouched for: every later `pred` runs live.
    left: bool,
}

impl PredReplay {
    fn new(log: PredRecord) -> Self {
        PredReplay {
            log,
            answered: 0,
            left: false,
        }
    }

    /// Whether call `seq` of `n_tokens` may be answered from the log. A
    /// call the record does not list had not completed and runs live; a
    /// listed call it does not vouch for ends the process's replay of
    /// `pred`s.
    pub(crate) fn vouch(&mut self, seq: u64, n_tokens: u32) -> bool {
        let log = &self.log;
        let sum = self.answered.saturating_add(u64::from(n_tokens));
        let vouched = if seq >= log.watermark {
            let Some(&listed) = log.extras.get(&seq) else {
                return false;
            };
            listed == n_tokens
        } else if seq + 1 == log.watermark {
            sum == log.below_tokens
        } else {
            sum <= log.below_tokens
        };
        let vouched = vouched && !self.left;
        if vouched && seq < log.watermark {
            self.answered = sum;
        }
        self.left |= !vouched;
        vouched
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
            WalRecord::Kv(kv) => r.kv.push(kv),
            WalRecord::ProcSpawn {
                pid,
                arrival,
                name,
                args,
                limits,
                image,
                ..
            } => {
                r.next_pid = r.next_pid.max(pid + 1);
                r.procs.entry(pid).or_insert(ReplayProc {
                    name,
                    args,
                    arrival,
                    limits,
                    image,
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
                let delivered_to = match effect {
                    Effect::Send {
                        to,
                        ok: true,
                        delivered: true,
                        ..
                    } => Some(to),
                    _ => None,
                };
                // Journal order is delivery order; only first sight counts.
                let first = r
                    .effects
                    .insert((pid, effect.class(), seq), effect)
                    .is_none();
                if let Some(to) = delivered_to.filter(|_| first) {
                    r.inboxes.entry(to).or_default().push((pid, seq));
                }
            }
            WalRecord::Checkpoint {
                next_pid, preds, ..
            } => {
                r.next_pid = r.next_pid.max(next_pid);
                for (pid, log) in preds {
                    r.preds.insert(pid, PredReplay::new(log));
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

    fn pred_record(watermark: u64, below_tokens: u64, extras: &[(u64, u32)]) -> PredRecord {
        PredRecord {
            watermark,
            below_tokens,
            extras: extras.iter().copied().collect(),
        }
    }

    fn checkpoint(at: u64, preds: Vec<(u64, PredRecord)>) -> WalRecord {
        WalRecord::Checkpoint {
            at: SimTime::from_nanos(at),
            next_pid: 2,
            preds,
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::ProcSpawn {
                at: SimTime::from_nanos(10),
                pid: 1,
                arrival: SimTime::from_nanos(10),
                name: "agent0".into(),
                args: "x=1".into(),
                limits: Limits {
                    max_syscalls: Some(100),
                    deadline: Some(SimDuration::from_millis(5)),
                    ..Limits::default()
                },
                image: None,
            },
            effect(
                20,
                1,
                0,
                Effect::Tool {
                    result: Ok("searched: q".into()),
                },
            ),
            effect(
                25,
                1,
                1,
                Effect::Tool {
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
            effect(32, 1, 0, Effect::Lookup { found: Some(2) }),
            effect(
                33,
                1,
                0,
                Effect::Now {
                    t: SimTime::from_nanos(33),
                },
            ),
            WalRecord::Checkpoint {
                at: SimTime::from_nanos(50),
                next_pid: 3,
                preds: vec![(1, pred_record(2, 9, &[(4, 3)]))],
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
            WalRecord::ProcSpawn {
                at: SimTime::from_nanos(61),
                pid: 4,
                arrival: SimTime::from_nanos(900),
                name: "late-agent".into(),
                args: "y=2".into(),
                limits: Limits::default(),
                image: None,
            },
            // A body that is data: its image closes the frame.
            WalRecord::ProcSpawn {
                at: SimTime::from_nanos(62),
                pid: 5,
                arrival: SimTime::from_nanos(62),
                name: "script".into(),
                args: "z=3".into(),
                limits: Limits::default(),
                image: Some(b"limits, then the text".to_vec()),
            },
        ]
        .into_iter()
        .chain(kv_batch())
        .collect()
    }

    /// A KV batch: a path linked, closed by the pool state.
    fn kv_batch() -> [WalRecord; 2] {
        [
            WalRecord::Kv(Record::Link {
                path: "pub.kv".into(),
                id: 1,
            }),
            WalRecord::Kv(Record::PoolState {
                page_tokens: 16,
                bytes_per_token: 1024,
                next_file: 2,
                access_clock: 3,
                slots_len: 0,
                free: Vec::new().into(),
            }),
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
        // Admissions with an image and without one are both in the list;
        // an empty image is not the absence of one.
        let with_image = |r: &WalRecord| match r {
            WalRecord::ProcSpawn { image, .. } => Some(image.is_some()),
            _ => None,
        };
        let kinds: BTreeSet<bool> = recs.iter().filter_map(with_image).collect();
        assert_eq!(kinds, BTreeSet::from([false, true]));
        let mut empty = recs[recs.len() - 1].clone();
        if let WalRecord::ProcSpawn { image, .. } = &mut empty {
            *image = Some(Vec::new());
        }
        let frame = encode_frame(&empty);
        let payload = &frame[5..frame.len() - 4];
        assert_eq!(decode_payload(frame[0], payload), Some(empty));
    }

    #[test]
    fn a_pred_listing_is_independent_of_the_reply() {
        // An empty checkpoint: at + next_pid + the listing count, plus
        // the frame's tag/len/crc. A listing adds pid + watermark + total +
        // its extras count, and `(seq, n_tokens)` per extra: neither the
        // distributions (vocabulary-sized, one per token) nor the calls
        // below the watermark are in it.
        let empty = encode_frame(&checkpoint(40, vec![])).len();
        assert_eq!(empty, 8 + 8 + 4 + FRAME_OVERHEAD);
        for (watermark, below_tokens, n_tokens) in [(1, 1, 1), (10_000, 1 << 40, u32::MAX)] {
            let rec = pred_record(watermark, below_tokens, &[(watermark + 1, n_tokens)]);
            let frame = encode_frame(&checkpoint(40, vec![(1, rec)]));
            assert_eq!(frame.len(), empty + 8 + 8 + 8 + 4 + (8 + 4));
        }
    }

    #[test]
    fn a_pred_record_advances_over_out_of_order_completions() {
        let mut rec = PredRecord::default();
        // Three siblings' calls complete 2, 0, 1; then 4 ahead of 3.
        rec.complete(2, 7);
        assert_eq!(rec, pred_record(0, 0, &[(2, 7)]));
        rec.complete(0, 5);
        assert_eq!(rec, pred_record(1, 5, &[(2, 7)]));
        rec.complete(1, 1);
        assert_eq!(rec, pred_record(3, 13, &[]));
        rec.complete(4, 2);
        assert_eq!(rec, pred_record(3, 13, &[(4, 2)]));
        // A call the record already holds below its watermark changes
        // nothing.
        rec.complete(1, 9);
        assert_eq!(rec, pred_record(3, 13, &[(4, 2)]));
    }

    #[test]
    fn the_guard_vouches_only_for_calls_that_add_up() {
        // Calls 0..3 of 2 + 3 + 4 tokens, and call 5 of 6 out of order.
        let log = pred_record(3, 9, &[(5, 6)]);
        let mut same = PredReplay::new(log.clone());
        let vouched: Vec<bool> = [(0, 2), (1, 3), (2, 4), (3, 1), (4, 1), (5, 6), (6, 1)]
            .into_iter()
            .map(|(seq, n)| same.vouch(seq, n))
            .collect();
        // Calls 3, 4 and 6 never completed: they run live, and the listed
        // call 5 between them is still answered.
        assert_eq!(vouched, [true, true, true, false, false, true, false]);

        // Two calls that swap lengths still add up; one that is longer
        // than the log's total allows does not, nor does any call after it.
        let mut swapped = PredReplay::new(log.clone());
        assert!(swapped.vouch(0, 3) && swapped.vouch(1, 2));
        assert!(
            !swapped.vouch(2, 5),
            "the last call below the watermark must hit the total"
        );
        assert!(!swapped.vouch(5, 6));
        let mut longer = PredReplay::new(log.clone());
        assert!(!longer.vouch(0, 10));
        assert!(!longer.vouch(1, 1));

        // An extra is vouched for by its own length only.
        let mut extra = PredReplay::new(log.clone());
        assert!(!extra.vouch(5, 7));
        let mut extra = PredReplay::new(log);
        assert!(extra.vouch(5, 6));
        assert!(extra.vouch(0, 2));
    }

    #[test]
    fn truncation_at_every_byte_keeps_valid_prefix() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 7);
        // Frame boundaries: cutting exactly there is a clean (un-torn) log.
        // Not inside a KV batch: the prefix ends before its first frame.
        let mut boundaries = vec![HEADER_LEN];
        let mut off = HEADER_LEN;
        for r in &recs {
            off += encode_frame(r).len();
            if !matches!(r, WalRecord::Kv(kv) if !journal::closes_batch(kv)) {
                boundaries.push(off);
            }
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
        // A log written by the previous format (v9: no KV frames, the
        // store's batches in a file of their own) is refused, not misread.
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
    fn an_unassigned_tag_ends_the_valid_prefix() {
        // Tag 39 carried a `pred` marker up to version 4, tag 41 a schedule
        // frame up to version 6 (what an admission frame is now), and tag
        // 36 a receive up to version 7 (what a delivered send answers now):
        // a well-formed, checksummed frame under any of them names no
        // record.
        let prefix = wal_bytes(&sample_records()[..1], 3);
        let mut marker = Vec::new();
        for field in [40u64, 1, 0] {
            push_u64(&mut marker, field);
        }
        push_u32(&mut marker, 5);
        let schedule = encode_payload(&sample_records()[8]);
        let mut recv = Vec::new();
        for field in [31u64, 2, 0, 1] {
            push_u64(&mut recv, field);
        }
        push_str(&mut recv, "hello");
        for (tag, payload) in [(39, marker), (41, schedule), (36, recv)] {
            let mut bytes = prefix.clone();
            append_frame(&mut bytes, tag, &payload);
            let (_, records, valid_len, torn) = read_wal(&bytes).unwrap();
            assert_eq!(records, sample_records()[..1], "tag {tag}");
            assert_eq!(valid_len, prefix.len() as u64, "tag {tag}");
            assert!(torn, "tag {tag}");
        }
    }

    #[test]
    fn a_listed_extra_at_or_below_its_watermark_ends_the_valid_prefix() {
        let prefix = wal_bytes(&sample_records()[..1], 3);
        // A listing of pid 1 at watermark 2, its extras written as given:
        // they close the payload, after their count.
        let listed = |extras: &[(u64, u32)]| {
            let mut payload = encode_payload(&checkpoint(50, vec![(1, pred_record(2, 9, &[]))]));
            payload.truncate(payload.len() - 4);
            push_u32(&mut payload, extras.len() as u32);
            for &(seq, n) in extras {
                push_u64(&mut payload, seq);
                push_u32(&mut payload, n);
            }
            let mut bytes = prefix.clone();
            append_frame(&mut bytes, TAG_CHECKPOINT, &payload);
            read_wal(&bytes).unwrap()
        };
        let (_, records, _, torn) = listed(&[(3, 1), (5, 1)]);
        assert_eq!((records.len(), torn), (2, false), "the frame as written");
        for extras in [&[(2, 1)][..], &[(1, 1)], &[(5, 1), (5, 1)]] {
            let (_, records, valid_len, torn) = listed(extras);
            assert_eq!(records.len(), 1, "{extras:?}");
            assert_eq!(valid_len, prefix.len() as u64, "{extras:?}");
            assert!(torn, "{extras:?}");
        }
    }

    #[test]
    fn an_unknown_kv_error_code_ends_the_valid_prefix() {
        let rec = effect(
            26,
            1,
            2,
            Effect::Tool {
                result: Err(SysError::Kv(KvError::Pinned)),
            },
        );
        let mut payload = encode_payload(&rec);
        // The KV error byte sits just before the (empty) payload string.
        let mut empty = Vec::new();
        push_str(&mut empty, "");
        let code = payload.len() - empty.len() - 1;
        assert_eq!(payload[code], encode_kv_error(KvError::Pinned));
        let prefix = wal_bytes(&sample_records()[..2], 3);
        let mut bytes = prefix.clone();
        append_frame(&mut bytes, record_tag(&rec), &payload);
        assert_eq!(read_wal(&bytes).unwrap().1.len(), 3, "the frame as written");
        // What a kernel with one more `KvError` variant would write: a
        // well-formed frame, CRC and all, with a code this one lacks.
        payload[code] = 15;
        let mut bytes = prefix.clone();
        append_frame(&mut bytes, record_tag(&rec), &payload);
        let (_, records, valid_len, torn) = read_wal(&bytes).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(valid_len, prefix.len() as u64);
        assert!(torn);
    }

    #[test]
    fn an_unassigned_sys_error_code_ends_the_valid_prefix() {
        let rec = effect(
            26,
            1,
            2,
            Effect::Tool {
                result: Err(SysError::Timeout),
            },
        );
        let mut payload = encode_payload(&rec);
        // The error kind byte sits before the KV byte and the (empty)
        // payload string.
        let mut empty = Vec::new();
        push_str(&mut empty, "");
        let kind = payload.len() - empty.len() - 2;
        assert_eq!(payload[kind], 6);
        let prefix = wal_bytes(&sample_records()[..2], 3);
        let mut bytes = prefix.clone();
        append_frame(&mut bytes, record_tag(&rec), &payload);
        assert_eq!(read_wal(&bytes).unwrap().1.len(), 3, "the frame as written");
        // Codes 8, 9 and 12 name no error: the frame checksums, but it
        // ends the valid prefix.
        for code in [8, 9, 12] {
            payload[kind] = code;
            let mut bytes = prefix.clone();
            append_frame(&mut bytes, record_tag(&rec), &payload);
            let (_, records, valid_len, torn) = read_wal(&bytes).unwrap();
            assert_eq!(records.len(), 2, "code {code}");
            assert_eq!(valid_len, prefix.len() as u64, "code {code}");
            assert!(torn, "code {code}");
        }
    }

    #[test]
    fn a_limit_wider_than_its_field_ends_the_valid_prefix() {
        let rec = WalRecord::ProcSpawn {
            at: SimTime::from_nanos(40),
            pid: 2,
            arrival: SimTime::from_nanos(40),
            name: "wide".into(),
            args: String::new(),
            limits: Limits {
                max_threads: Some(7),
                ..Limits::default()
            },
            image: None,
        };
        let mut payload = encode_payload(&rec);
        // The limits close the payload, seven presence-prefixed u64s;
        // `max_threads` is the fourth.
        let value = payload.len() - 7 * 9 + 3 * 9 + 1;
        assert_eq!(payload[value..value + 8], 7u64.to_le_bytes());
        let prefix = wal_bytes(&sample_records()[..2], 3);
        let mut bytes = prefix.clone();
        append_frame(&mut bytes, record_tag(&rec), &payload);
        assert_eq!(read_wal(&bytes).unwrap().1.len(), 3, "the frame as written");
        // 2^32 must not narrow to 0: the frame checksums, but it ends the
        // valid prefix.
        payload[value..value + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        let mut bytes = prefix.clone();
        append_frame(&mut bytes, record_tag(&rec), &payload);
        let (_, records, valid_len, torn) = read_wal(&bytes).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(valid_len, prefix.len() as u64);
        assert!(torn);
    }

    #[test]
    fn a_pid_at_u64_max_ends_the_valid_prefix() {
        let admit = |pid| WalRecord::ProcSpawn {
            at: SimTime::from_nanos(40),
            pid,
            arrival: SimTime::from_nanos(90),
            name: "last".into(),
            args: String::new(),
            limits: Limits::default(),
            image: None,
        };
        let prefix = wal_bytes(&sample_records()[..2], 3);
        // The largest pid a kernel allocates is read back.
        let mut bytes = prefix.clone();
        bytes.extend_from_slice(&encode_frame(&admit(u64::MAX - 1)));
        let (_, records, _, torn) = read_wal(&bytes).unwrap();
        assert_eq!((records.len(), torn), (3, false));
        let r = build_replay(records, bytes.len() as u64, torn);
        assert_eq!(r.next_pid, u64::MAX);
        // Replay would raise the pid allocator to `pid + 1`. The frame
        // checksums, but no kernel wrote it: it ends the valid prefix.
        let mut bytes = prefix.clone();
        bytes.extend_from_slice(&encode_frame(&admit(u64::MAX)));
        let (_, records, valid_len, torn) = read_wal(&bytes).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(valid_len, prefix.len() as u64);
        assert!(torn);
        let r = build_replay(records, valid_len, torn);
        assert_eq!(r.next_pid, 2);
    }

    #[test]
    fn every_effect_class_replays_from_one_map() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 5);
        let (_, records, _, torn) = read_wal(&bytes).unwrap();
        let r = build_replay(records, bytes.len() as u64, torn);
        assert_eq!(r.clock, SimTime::from_nanos(62));
        assert_eq!(r.next_pid, 6);
        assert_eq!(r.procs.len(), 3);
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
        assert_eq!(journalled.len(), 5);
        assert_eq!(r.effects.len(), journalled.len());
        for (key, effect) in &journalled {
            assert_eq!(r.effects.get(key), Some(effect), "{key:?}");
        }
        // Classes do not collide: pid 1 drew seq 0 in four of them.
        let classes: BTreeSet<EffectClass> = r
            .effects
            .keys()
            .filter(|&&(pid, _, seq)| pid == 1 && seq == 0)
            .map(|&(_, class, _)| class)
            .collect();
        assert_eq!(classes.len(), 4);
        // The checkpoint's listing is pid 1's `pred` record.
        assert_eq!(r.preds.len(), 1);
        assert_eq!(r.preds[&1].log, pred_record(2, 9, &[(4, 3)]));
        // Pid 2's first `recv` is answered by pid 1's send 0.
        assert_eq!(r.inboxes, BTreeMap::from([(2, vec![(1, 0)])]));
        // Admitted at 61 for an arrival at 900: one frame, one entry.
        assert!(r.procs[&4].exit.is_none());
        assert_eq!(r.procs[&4].arrival, SimTime::from_nanos(900));
        // What an admission frame carries of its body is what replay holds.
        assert_eq!(r.procs[&4].image, None);
        assert_eq!(
            r.procs[&5].image.as_deref(),
            Some(&b"limits, then the text"[..])
        );
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
        assert_eq!(r.inboxes, BTreeMap::from([(2, vec![(1, 0)])]));
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
            ("ipc_send", 1),
            ("link", 1),
            ("lookup", 1),
            ("now", 1),
            ("pool_state", 1),
            ("proc_exit", 1),
            ("proc_spawn", 3),
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
            SysError::Cancelled,
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
    fn every_frame_is_on_disk_when_written() {
        let dir = std::env::temp_dir().join(format!("symwal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.wal");
        let cfg = WalConfig::new(&path);
        let mut w = WalState::create(&cfg, 9, &[]).unwrap();
        let on_disk = || read_wal(&std::fs::read(&path).unwrap()).unwrap();
        let mut written = Vec::new();
        for rec in sample_records() {
            match rec {
                WalRecord::Checkpoint { .. } => w.checkpoint(&rec).unwrap(),
                _ => w.write(&rec).unwrap(),
            }
            assert!(w.log.pending().is_empty(), "nothing waits in a buffer");
            // A KV batch reads back once the record closing it is written.
            let open = matches!(&rec, WalRecord::Kv(kv) if !journal::closes_batch(kv));
            written.push(rec);
            let (_, recs, valid_len, torn) = on_disk();
            if open {
                assert_eq!(recs, written[..written.len() - 1]);
                assert!(torn);
                continue;
            }
            assert_eq!(recs, written);
            assert!(!torn);
            assert_eq!(valid_len, w.log.disk_len());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The format changes only on purpose: length and FNV-1a of this
    /// record list's encoding under seed 42. Version 10 is 840 bytes
    /// against version 9's 764 (FNV-1a `0xc760_663d`): the KV store's
    /// records are frames of this log, and the list ends in a KV batch —
    /// a 27-byte link frame (frame overhead, the file id and the
    /// length-prefixed "pub.kv") and the 49-byte pool state that closes it
    /// (frame overhead, four `u64`s, the slot count and an empty free
    /// list's count). Every other frame keeps its bytes, and the header's
    /// version word reads 10, so the header's checksum moves too.
    /// Version 9 was 764 bytes against
    /// version 8's 626 (FNV-1a `0x6a42_3433`): the list gained a third
    /// admission frame, pid 5's, whose body is data, 138 bytes: the frame
    /// overhead, at, pid, arrival, the length-prefixed "script" and "z=3",
    /// the limits, and its 21-byte image behind a 4-byte length. Every
    /// other frame keeps its bytes — a closure's admission ends at its
    /// limits, as before — and the header's version word reads 9, so the
    /// header's checksum moves too.
    /// Version 8 was 626 bytes against
    /// version 7's 700 (FNV-1a `0x6254_36ed`): the two tool frames and the
    /// `now` frame are 8 bytes shorter each (no `latency_ns`; no `t`, which
    /// is the frame's own time), no receive frame is written (v7 listed
    /// pid 2's, 50 bytes: at, pid, seq, sender, the length-prefixed
    /// "hello" and the frame overhead), and the header's version word
    /// reads 8.
    /// Version 7 was 700 bytes against
    /// version 6's 692 (FNV-1a `0x1d21_2ba5`): pid 1's spawn frame is an
    /// admission frame and gains its 8-byte arrival; pid 4's schedule frame
    /// keeps its bytes but is an admission frame under tag 32 instead of
    /// tag 41; and the header's version word reads 7.
    /// Version 6 was 692 bytes against
    /// version 5's 733 (FNV-1a `0xceb8_ed4e`): the checkpoint frame lost its
    /// breaker list — the 4-byte count and the list's two entries, each a
    /// length-prefixed tool name (4 + 6 and 4 + 5 bytes), a state byte and
    /// a `u64`, 41 bytes in all — and the header's version word reads 6.
    /// Version 5 was 733 bytes against
    /// version 4's 726 (FNV-1a `0x41d9_9f32`): the list's 37-byte `pred`
    /// marker frame (tag 39: at, pid, seq, `n_tokens` and the frame
    /// overhead) is gone, the checkpoint frame gains a 4-byte listing count
    /// and pid 1's 40-byte listing (pid, watermark, total, extras count and
    /// one `(seq, n_tokens)`), and the header's version word reads 5.
    /// Version 4 was 24 bytes shorter than version 3 (750 bytes, FNV-1a
    /// `0xa4d5_ff02`): the spawn, schedule and checkpoint frames each lost
    /// an 8-byte tid field.
    #[test]
    fn on_disk_format_is_pinned() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 42);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (840, 0xf4bc_3f5c));
        // Under an older header, the frames before the KV batch are
        // version 9's file, and those before the one with an image version
        // 8's.
        let kv_len: usize = kv_batch().iter().map(|r| encode_frame(r).len()).sum();
        assert_eq!(kv_len, 27 + 49);
        let old = |version, drop: usize| {
            let mut before = seglog::encode_head(&Head::<1> { magic: WAL_MAGIC, version }, [42]);
            before.extend_from_slice(&bytes[HEADER_LEN..bytes.len() - drop]);
            (before.len(), fnv1a(&before))
        };
        assert_eq!(old(9, kv_len), (764, 0xc760_663d));
        assert_eq!(old(8, kv_len + 138), (626, 0x6a42_3433));
        // The writer lays down the same bytes: every frame is written when
        // it is made, so file order is list order.
        let dir = std::env::temp_dir().join(format!("symwal-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = WalConfig::new(dir.join("pinned.wal"));
        let mut w = WalState::create(&cfg, 42, &[]).unwrap();
        for rec in &recs {
            match rec {
                WalRecord::Checkpoint { .. } => w.checkpoint(rec).unwrap(),
                _ => w.write(rec).unwrap(),
            }
        }
        assert_eq!(std::fs::read(&cfg.path).unwrap(), bytes);
        assert_eq!(w.log.disk_len(), bytes.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }
}
