//! The system-call interface between LIP threads and the kernel.
//!
//! A thread's [`Body`] is one of two things, and the kernel treats both
//! alike: it delivers a [`SysReply`], gets the thread's next [`Syscall`]
//! (or its exit status) back, and touches nothing else in between, so LIP
//! execution is deterministic.
//!
//! - **Hosted**: a native Rust closure on a pooled OS thread, holding a
//!   [`Ctx`]. Each typed wrapper on `Ctx` sends one `Syscall` up to the
//!   kernel and blocks on the thread's private reply channel. A blocking
//!   closure needs a stack of its own, which is what the OS thread is for.
//! - **Inline**: an [`InlineBody`] — a program held as a value (the
//!   LipScript machine) that the kernel resumes on its own thread with the
//!   reply and that returns its next `Syscall`. No OS thread, no channel.
//!
//! `Kernel::resume` is the only code that tells the two apart.

use std::ops::Range;

use crossbeam::channel::{Receiver, Sender};
use symphony_kvfs::{FileId, FileStat, KvEntry, Mode};
use symphony_model::{Dist, TokenId};
use symphony_sim::{SimDuration, SimTime};
use symphony_tokenizer::SpecialTokens;

use crate::types::{ExitStatus, Pid, SysError, Tid};

/// A hosted LIP body: a native closure run on a pooled OS thread.
pub type LipFn = Box<dyn FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static>;

/// A LIP thread's body: the program the client "sends to the server".
pub enum Body {
    /// A blocking closure; the kernel hands it replies over a channel.
    Hosted(LipFn),
    /// A resumable value; the kernel steps it on its own thread.
    Inline(Box<dyn InlineBody>),
}

/// A LIP body the kernel runs without an OS thread: a state machine that
/// is resumed with the reply to its last system call and runs until it
/// needs the next one.
pub trait InlineBody: Send {
    /// Continues the body. The first call delivers [`SysReply::Start`];
    /// every later one the reply to the [`Syscall`] returned before. A
    /// panic in here is contained: the thread exits
    /// [`ExitStatus::Crashed`] and the body is dropped.
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next;
}

/// What an [`InlineBody`] does next.
pub enum Next {
    /// Block in this system call.
    Syscall(Syscall),
    /// The body is done; `Err` exits the thread [`ExitStatus::Error`].
    Exit(Result<(), SysError>),
}

/// Payload used to unwind LIP threads when the kernel shuts down.
pub(crate) struct ShutdownSignal;

fn shutdown_unwind() -> ! {
    std::panic::panic_any(ShutdownSignal)
}

/// Messages from LIP threads to the kernel.
pub(crate) enum UpCall {
    /// A blocked thread requesting service.
    Syscall { tid: Tid, call: Syscall },
    /// A thread's body returned (or panicked).
    Exited { tid: Tid, status: ExitStatus },
}

/// The system calls (wire format). Hosted bodies never see it — they call
/// the typed wrappers on [`Ctx`]; an [`InlineBody`] returns it.
#[allow(missing_docs)]
pub enum Syscall {
    Pred { kv: FileId, tokens: Vec<(TokenId, u32)> },
    KvCreate,
    KvOpen { path: String },
    KvLink { kv: FileId, path: String },
    KvUnlink { path: String },
    KvFork { kv: FileId },
    KvRemove { kv: FileId },
    KvLen { kv: FileId },
    KvNextPos { kv: FileId },
    KvTruncate { kv: FileId, len: usize },
    KvExtract { kv: FileId, ranges: Vec<Range<usize>> },
    KvMerge { kvs: Vec<FileId> },
    KvRead { kv: FileId, start: usize, count: usize },
    KvPin { kv: FileId },
    KvUnpin { kv: FileId },
    KvLock { kv: FileId },
    KvUnlock { kv: FileId },
    KvChmod { kv: FileId, mode: Mode },
    KvStat { kv: FileId },
    KvSwapOut { kv: FileId },
    KvSwapIn { kv: FileId },
    Spawn { body: Body },
    Join { tid: Tid },
    CallTool { name: String, args: String },
    SendMsg { to: Pid, data: String },
    Recv,
    LookupProcess { name: String },
    Sleep { dur: SimDuration },
    Emit { text: String },
    EmitTokens { tokens: Vec<TokenId> },
    Tokenize { text: String },
    Detokenize { tokens: Vec<TokenId> },
    Now,
}

impl Syscall {
    /// The syscall's stable telemetry name (used as the `sys:<name>` span
    /// label on a thread's trace track).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Syscall::Pred { .. } => "pred",
            Syscall::KvCreate => "kv_create",
            Syscall::KvOpen { .. } => "kv_open",
            Syscall::KvLink { .. } => "kv_link",
            Syscall::KvUnlink { .. } => "kv_unlink",
            Syscall::KvFork { .. } => "kv_fork",
            Syscall::KvRemove { .. } => "kv_remove",
            Syscall::KvLen { .. } => "kv_len",
            Syscall::KvNextPos { .. } => "kv_next_pos",
            Syscall::KvTruncate { .. } => "kv_truncate",
            Syscall::KvExtract { .. } => "kv_extract",
            Syscall::KvMerge { .. } => "kv_merge",
            Syscall::KvRead { .. } => "kv_read",
            Syscall::KvPin { .. } => "kv_pin",
            Syscall::KvUnpin { .. } => "kv_unpin",
            Syscall::KvLock { .. } => "kv_lock",
            Syscall::KvUnlock { .. } => "kv_unlock",
            Syscall::KvChmod { .. } => "kv_chmod",
            Syscall::KvStat { .. } => "kv_stat",
            Syscall::KvSwapOut { .. } => "kv_swap_out",
            Syscall::KvSwapIn { .. } => "kv_swap_in",
            Syscall::Spawn { .. } => "spawn",
            Syscall::Join { .. } => "join",
            Syscall::CallTool { .. } => "call_tool",
            Syscall::SendMsg { .. } => "send_msg",
            Syscall::Recv => "recv",
            Syscall::LookupProcess { .. } => "lookup_process",
            Syscall::Sleep { .. } => "sleep",
            Syscall::Emit { .. } => "emit",
            Syscall::EmitTokens { .. } => "emit_tokens",
            Syscall::Tokenize { .. } => "tokenize",
            Syscall::Detokenize { .. } => "detokenize",
            Syscall::Now => "now",
        }
    }
}

/// Kernel replies (wire format).
#[allow(missing_docs)]
pub enum SysReply {
    /// Initial "go" delivered to a freshly spawned thread.
    Start,
    Unit,
    Handle(FileId),
    Dists(Vec<Dist>),
    Entries(Vec<KvEntry>),
    Len(usize),
    Pos(u32),
    Tokens(Vec<TokenId>),
    Text(String),
    NewTid(Tid),
    Joined(ExitStatus),
    Msg { from: Pid, data: String },
    MaybePid(Option<Pid>),
    Stat(Box<FileStat>),
    Time(SimTime),
    Err(SysError),
}

/// An incoming IPC message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending process.
    pub from: Pid,
    /// Payload.
    pub data: String,
}

/// A LIP thread's own state: identity, argument string, private RNG
/// stream and the tokenizer's special tokens — everything a body can read
/// without asking the kernel. A hosted body reaches it through its
/// [`Ctx`]; an inline body is handed it on every resume.
pub struct ThreadEnv {
    tid: Tid,
    pid: Pid,
    args: String,
    rng: symphony_sim::Rng,
    specials: SpecialTokens,
}

impl ThreadEnv {
    pub(crate) fn new(
        tid: Tid,
        pid: Pid,
        args: String,
        rng: symphony_sim::Rng,
        specials: SpecialTokens,
    ) -> Self {
        ThreadEnv {
            tid,
            pid,
            args,
            rng,
            specials,
        }
    }

    // ---- identity -----------------------------------------------------------

    /// This thread's ID.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The owning process ID.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The argument string the client submitted with the program.
    pub fn args(&self) -> String {
        self.args.clone()
    }

    /// Tokenizer special tokens.
    pub fn specials(&self) -> SpecialTokens {
        self.specials
    }

    /// The end-of-sequence token.
    pub fn eos(&self) -> TokenId {
        self.specials.eos
    }

    // ---- randomness (thread-local, deterministic) -----------------------------

    /// Deterministic per-thread random bits (no kernel round trip).
    pub fn rng_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Deterministic uniform draw in `[0, 1)`.
    pub fn rng_f64(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// Samples a token from a distribution with this thread's RNG.
    pub fn sample(&mut self, dist: &Dist) -> TokenId {
        let u = self.rng.next_f64();
        dist.sample_with(u, self.specials.bos)
    }
}

/// A hosted LIP thread's handle to the kernel: its [`ThreadEnv`] (reached
/// through `Deref`, so `ctx.args()` and `ctx.sample(..)` read as before)
/// plus the channel pair the system calls travel over.
///
/// All methods block the calling thread until the kernel services the call on
/// the virtual clock; from the LIP's perspective they are ordinary function
/// calls, exactly like POSIX syscalls.
pub struct Ctx {
    env: ThreadEnv,
    up: Sender<UpCall>,
    reply: Receiver<SysReply>,
}

impl std::ops::Deref for Ctx {
    type Target = ThreadEnv;

    fn deref(&self) -> &ThreadEnv {
        &self.env
    }
}

impl std::ops::DerefMut for Ctx {
    fn deref_mut(&mut self) -> &mut ThreadEnv {
        &mut self.env
    }
}

impl Ctx {
    pub(crate) fn new(env: ThreadEnv, up: Sender<UpCall>, reply: Receiver<SysReply>) -> Self {
        Ctx { env, up, reply }
    }

    /// Blocks until the kernel delivers the initial [`SysReply::Start`].
    pub(crate) fn wait_start(&self) {
        match self.reply.recv() {
            Ok(SysReply::Start) => {}
            _ => shutdown_unwind(),
        }
    }

    /// Issues one system call in wire format and blocks for its reply:
    /// the hosted counterpart of an [`InlineBody`] returning the same
    /// [`Syscall`]. The typed wrappers below are shorthands over it.
    pub fn syscall(&self, call: Syscall) -> SysReply {
        if self
            .up
            .send(UpCall::Syscall {
                tid: self.env.tid,
                call,
            })
            .is_err()
        {
            shutdown_unwind();
        }
        match self.reply.recv() {
            Ok(r) => r,
            Err(_) => shutdown_unwind(),
        }
    }

    fn expect_unit(&self, call: Syscall) -> Result<(), SysError> {
        match self.syscall(call) {
            SysReply::Unit => Ok(()),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    fn expect_handle(&self, call: Syscall) -> Result<FileId, SysError> {
        match self.syscall(call) {
            SysReply::Handle(h) => Ok(h),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    // ---- model computation (§4.1) ---------------------------------------------

    /// The `pred` system call: runs `tokens` through the model on top of the
    /// context cached in `kv`, returning one distribution per input token.
    /// The KV file gains one entry per token.
    pub fn pred(&self, kv: FileId, tokens: &[(TokenId, u32)]) -> Result<Vec<Dist>, SysError> {
        match self.syscall(Syscall::Pred {
            kv,
            tokens: tokens.to_vec(),
        }) {
            SysReply::Dists(d) => Ok(d),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// `pred` over a contiguous token run starting at `start_pos`.
    pub fn pred_positions(
        &self,
        kv: FileId,
        tokens: &[TokenId],
        start_pos: u32,
    ) -> Result<Vec<Dist>, SysError> {
        let pairs: Vec<(TokenId, u32)> = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, start_pos + i as u32))
            .collect();
        self.pred(kv, &pairs)
    }

    // ---- KVFS (§4.2) -----------------------------------------------------------

    /// Creates an empty private KV file.
    pub fn kv_create(&self) -> Result<FileId, SysError> {
        self.expect_handle(Syscall::KvCreate)
    }

    /// Opens a named KV file (e.g. a shared system prompt).
    pub fn kv_open(&self, path: &str) -> Result<FileId, SysError> {
        self.expect_handle(Syscall::KvOpen {
            path: path.to_string(),
        })
    }

    /// Publishes a KV file under a path.
    pub fn kv_link(&self, kv: FileId, path: &str) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvLink {
            kv,
            path: path.to_string(),
        })
    }

    /// Removes a path (the file survives).
    pub fn kv_unlink(&self, path: &str) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvUnlink {
            path: path.to_string(),
        })
    }

    /// Copy-on-write clone of a KV file.
    pub fn kv_fork(&self, kv: FileId) -> Result<FileId, SysError> {
        self.expect_handle(Syscall::KvFork { kv })
    }

    /// Deletes a KV file.
    pub fn kv_remove(&self, kv: FileId) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvRemove { kv })
    }

    /// Number of cached tokens in a file.
    pub fn kv_len(&self, kv: FileId) -> Result<usize, SysError> {
        match self.syscall(Syscall::KvLen { kv }) {
            SysReply::Len(n) => Ok(n),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Position following the file's last entry.
    pub fn kv_next_pos(&self, kv: FileId) -> Result<u32, SysError> {
        match self.syscall(Syscall::KvNextPos { kv }) {
            SysReply::Pos(p) => Ok(p),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Truncates a file to `len` tokens.
    pub fn kv_truncate(&self, kv: FileId, len: usize) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvTruncate { kv, len })
    }

    /// Builds a new file from entry ranges (context pruning).
    pub fn kv_extract(&self, kv: FileId, ranges: &[Range<usize>]) -> Result<FileId, SysError> {
        self.expect_handle(Syscall::KvExtract {
            kv,
            ranges: ranges.to_vec(),
        })
    }

    /// Concatenates files into a new one.
    pub fn kv_merge(&self, kvs: &[FileId]) -> Result<FileId, SysError> {
        self.expect_handle(Syscall::KvMerge { kvs: kvs.to_vec() })
    }

    /// Reads cached entries (token inspection).
    pub fn kv_read(
        &self,
        kv: FileId,
        start: usize,
        count: usize,
    ) -> Result<Vec<KvEntry>, SysError> {
        match self.syscall(Syscall::KvRead { kv, start, count }) {
            SysReply::Entries(e) => Ok(e),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Pins a file against eviction and swap.
    pub fn kv_pin(&self, kv: FileId) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvPin { kv })
    }

    /// Unpins a file.
    pub fn kv_unpin(&self, kv: FileId) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvUnpin { kv })
    }

    /// Takes the exclusive write lock.
    pub fn kv_lock(&self, kv: FileId) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvLock { kv })
    }

    /// Releases the exclusive write lock.
    pub fn kv_unlock(&self, kv: FileId) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvUnlock { kv })
    }

    /// Changes a file's permission mode.
    pub fn kv_chmod(&self, kv: FileId, mode: Mode) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvChmod { kv, mode })
    }

    /// Stats a file.
    pub fn kv_stat(&self, kv: FileId) -> Result<FileStat, SysError> {
        match self.syscall(Syscall::KvStat { kv }) {
            SysReply::Stat(s) => Ok(*s),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Explicitly swaps a file out to host memory.
    pub fn kv_swap_out(&self, kv: FileId) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvSwapOut { kv })
    }

    /// Swaps a file back into GPU memory.
    pub fn kv_swap_in(&self, kv: FileId) -> Result<(), SysError> {
        self.expect_unit(Syscall::KvSwapIn { kv })
    }

    // ---- threads and I/O (§4.3) ---------------------------------------------------

    /// Spawns a sibling thread in this process.
    pub fn spawn<F>(&self, f: F) -> Result<Tid, SysError>
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        let body = Body::Hosted(Box::new(f));
        match self.syscall(Syscall::Spawn { body }) {
            SysReply::NewTid(t) => Ok(t),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Blocks until `tid` exits; returns its status. A thread's status is
    /// kept as long as its *process* lives: joining a thread of a process
    /// that has already exited is [`SysError::NotFound`], as for a tid that
    /// never existed (only a thread of another process can be asking by
    /// then).
    pub fn join(&self, tid: Tid) -> Result<ExitStatus, SysError> {
        match self.syscall(Syscall::Join { tid }) {
            SysReply::Joined(s) => Ok(s),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Invokes a server-side tool; blocks this thread for the tool's
    /// (virtual) latency. While blocked, the kernel may offload this
    /// process's KV files to host memory.
    pub fn call_tool(&self, name: &str, args: &str) -> Result<String, SysError> {
        match self.syscall(Syscall::CallTool {
            name: name.to_string(),
            args: args.to_string(),
        }) {
            SysReply::Text(t) => Ok(t),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Sends an IPC message to another process.
    pub fn send_msg(&self, to: Pid, data: &str) -> Result<(), SysError> {
        self.expect_unit(Syscall::SendMsg {
            to,
            data: data.to_string(),
        })
    }

    /// Receives the next IPC message, blocking until one arrives.
    pub fn recv_msg(&self) -> Result<Message, SysError> {
        match self.syscall(Syscall::Recv) {
            SysReply::Msg { from, data } => Ok(Message { from, data }),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Finds a live process by its spawn name.
    pub fn lookup_process(&self, name: &str) -> Result<Option<Pid>, SysError> {
        match self.syscall(Syscall::LookupProcess {
            name: name.to_string(),
        }) {
            SysReply::MaybePid(p) => Ok(p),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Sleeps for a span of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> Result<(), SysError> {
        self.expect_unit(Syscall::Sleep { dur })
    }

    // ---- client output and tokenisation ----------------------------------------

    /// Streams text to the client.
    pub fn emit(&self, text: &str) -> Result<(), SysError> {
        self.expect_unit(Syscall::Emit {
            text: text.to_string(),
        })
    }

    /// Streams tokens to the client (detokenised server-side); counts toward
    /// the process's generated-token metric.
    pub fn emit_tokens(&self, tokens: &[TokenId]) -> Result<(), SysError> {
        self.expect_unit(Syscall::EmitTokens {
            tokens: tokens.to_vec(),
        })
    }

    /// Tokenises text with the server's tokenizer.
    pub fn tokenize(&self, text: &str) -> Result<Vec<TokenId>, SysError> {
        match self.syscall(Syscall::Tokenize {
            text: text.to_string(),
        }) {
            SysReply::Tokens(t) => Ok(t),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Detokenises tokens with the server's tokenizer.
    pub fn detokenize(&self, tokens: &[TokenId]) -> Result<String, SysError> {
        match self.syscall(Syscall::Detokenize {
            tokens: tokens.to_vec(),
        }) {
            SysReply::Text(t) => Ok(t),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Result<SimTime, SysError> {
        match self.syscall(Syscall::Now) {
            SysReply::Time(t) => Ok(t),
            SysReply::Err(e) => Err(e),
            _ => Err(SysError::BadArgument),
        }
    }
}

/// Entry point run on each LIP OS thread: gate on the kernel's start signal,
/// run the body, report the exit status.
pub(crate) fn thread_main(mut ctx: Ctx, f: LipFn) {
    ctx.wait_start();
    let tid = ctx.tid();
    let up = ctx.up.clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f(&mut ctx)));
    let status = match result {
        Ok(Ok(())) => ExitStatus::Ok,
        Ok(Err(e)) => ExitStatus::Error(e),
        Err(payload) => {
            if payload.downcast_ref::<ShutdownSignal>().is_some() {
                // Kernel teardown: exit silently without reporting.
                return;
            }
            ExitStatus::Crashed
        }
    };
    // The kernel may already be gone during shutdown; ignore send failure.
    let _ = up.send(UpCall::Exited { tid, status });
}
