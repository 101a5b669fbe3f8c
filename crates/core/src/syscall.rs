//! The system-call interface between LIP threads and the kernel.
//!
//! The kernel steps every thread the same way: it resumes the thread's
//! [`InlineBody`] with a [`SysReply`], gets its next [`Syscall`] (or its
//! exit status) back, and touches nothing else in between, so LIP
//! execution is deterministic. A [`Body`] says how a program arrives:
//!
//! - **Inline**: an [`InlineBody`] — a program held as a value (the
//!   LipScript machine) that the kernel resumes on its own thread with the
//!   reply and that returns its next `Syscall`. A body that is data has an
//!   image ([`InlineBody::take_image`]: a LipScript program's limits and
//!   text), which a durable admission journals and recovery rebuilds the
//!   body from.
//! - **Hosted**: a native Rust closure holding a [`Ctx`]. Each typed
//!   wrapper on `Ctx` is one [`Ctx::syscall`] that blocks until the kernel
//!   answers, so the closure needs a stack of its own: `crate::hosted`
//!   makes it an `InlineBody` that runs it on a pooled OS thread, and is
//!   the only code that knows it does. A closure that only sets a program
//!   up and execs it ([`Ctx::exec`]) holds its thread for that and no
//!   longer. A closure has no image: recovery finds it again by name.
//!
//! Each system call is one row of the `syscalls!` table (its variant,
//! fields and telemetry name), and each reply shape becomes the typed
//! value a `Ctx` wrapper returns in one place (`FromReply`), so a wrapper
//! is a single `self.call(..)`.

use std::ops::Range;

use symphony_kvfs::{FileId, FileStat, KvEntry, Mode};
use symphony_model::{Dist, Preds, TokenId};
use symphony_sim::{SimDuration, SimTime};
use symphony_tokenizer::SpecialTokens;

use crate::kernel::ProgramImage;
use crate::types::{ExitStatus, Pid, SysError, Tid};

/// A hosted LIP body: a native closure run on a pooled OS thread.
pub type LipFn = Box<dyn FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static>;

/// A LIP thread's body: the program the client "sends to the server".
pub enum Body {
    /// A blocking closure, run on an OS thread of its own.
    Hosted(LipFn),
    /// A resumable value; the kernel steps it on its own thread.
    Inline(Box<dyn InlineBody>),
}

impl Body {
    /// [`Body::Hosted`], with the closure's argument type given.
    pub fn hosted(f: impl FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static) -> Body {
        Body::Hosted(Box::new(f))
    }
}

/// One run of a durable image: a resolver calls the image again for the
/// next.
impl From<ProgramImage> for Body {
    fn from(image: ProgramImage) -> Body {
        Body::hosted(move |ctx| image(ctx))
    }
}

/// Summarised: a body is code, not data.
impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Body::Hosted(_) => "Hosted",
            Body::Inline(_) => "Inline",
        })
    }
}

/// A LIP body as the kernel steps it: a state machine that is resumed
/// with the reply to its last system call and runs until it needs the
/// next one.
pub trait InlineBody: Send {
    /// Continues the body. The first call delivers [`SysReply::Start`];
    /// every later one the reply to the [`Syscall`] returned before. A
    /// panic in here is contained: the thread exits
    /// [`ExitStatus::Crashed`] and the body is dropped.
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next;

    /// The bytes this body can be rebuilt from after a crash, its
    /// *image*: `Kernel::admit` takes them once from a durable program's
    /// main thread and writes them into its admission frame, and
    /// [`crate::Kernel::recover`] hands them back to its resolver. `None`,
    /// the default, for a body that is code: recovery then has only the
    /// program's name to go on.
    fn take_image(&mut self) -> Option<Vec<u8>> {
        None
    }
}

/// What an [`InlineBody`] does next.
pub enum Next {
    /// Block in this system call.
    Syscall(Syscall),
    /// The body is done; `Err` exits the thread [`ExitStatus::Error`].
    Exit(Result<(), SysError>),
}

/// Declares every system call once: its variant, its fields and its
/// stable telemetry name (the `sys:<name>` span label on a thread's trace
/// track, and the `op` of a KVFS event). Adding a call is a row here, an
/// arm in `Kernel::handle_syscall`, and optionally a [`Ctx`] wrapper.
macro_rules! syscalls {
    ($($variant:ident $({ $($field:ident: $ty:ty),* })? = $name:literal,)*) => {
        /// The system calls (wire format). Hosted bodies never see it — they
        /// call the typed wrappers on [`Ctx`]; an [`InlineBody`] returns it.
        #[derive(Debug)]
        #[allow(missing_docs)]
        pub enum Syscall {
            $($variant $({ $($field: $ty),* })?,)*
        }

        impl Syscall {
            /// The call's stable telemetry name: its row's name.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Syscall::$variant { .. } => $name,)*
                }
            }
        }
    };
}

syscalls! {
    Pred { kv: FileId, tokens: Vec<(TokenId, u32)> } = "pred",
    KvCreate = "kv_create",
    KvOpen { path: String } = "kv_open",
    KvLink { kv: FileId, path: String } = "kv_link",
    KvUnlink { path: String } = "kv_unlink",
    KvFork { kv: FileId } = "kv_fork",
    KvRemove { kv: FileId } = "kv_remove",
    KvLen { kv: FileId } = "kv_len",
    KvNextPos { kv: FileId } = "kv_next_pos",
    KvTruncate { kv: FileId, len: usize } = "kv_truncate",
    KvExtract { kv: FileId, ranges: Vec<Range<usize>> } = "kv_extract",
    KvMerge { kvs: Vec<FileId> } = "kv_merge",
    KvRead { kv: FileId, start: usize, count: usize } = "kv_read",
    KvPin { kv: FileId } = "kv_pin",
    KvUnpin { kv: FileId } = "kv_unpin",
    KvLock { kv: FileId } = "kv_lock",
    KvUnlock { kv: FileId } = "kv_unlock",
    KvChmod { kv: FileId, mode: Mode } = "kv_chmod",
    KvStat { kv: FileId } = "kv_stat",
    KvSwapOut { kv: FileId } = "kv_swap_out",
    KvSwapIn { kv: FileId } = "kv_swap_in",
    Spawn { body: Body } = "spawn",
    Join { tid: Tid } = "join",
    CallTool { name: String, args: String } = "call_tool",
    SendMsg { to: Pid, data: String } = "send_msg",
    Recv = "recv",
    LookupProcess { name: String } = "lookup_process",
    Sleep { dur: SimDuration } = "sleep",
    Emit { text: String } = "emit",
    EmitTokens { tokens: Vec<TokenId> } = "emit_tokens",
    Tokenize { text: String } = "tokenize",
    Detokenize { tokens: Vec<TokenId> } = "detokenize",
    Now = "now",
}

/// Kernel replies (wire format).
#[allow(missing_docs)]
pub enum SysReply {
    /// Initial "go" delivered to a freshly spawned thread.
    Start,
    Unit,
    Handle(FileId),
    Dists(Preds),
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

/// The typed value one reply shape carries: what a [`Ctx`] wrapper whose
/// call answers with that shape returns. `None` for any other shape.
trait FromReply: Sized {
    fn from_reply(reply: SysReply) -> Option<Self>;
}

macro_rules! from_reply {
    ($($ty:ty: $shape:pat => $value:expr,)*) => {$(
        impl FromReply for $ty {
            fn from_reply(reply: SysReply) -> Option<Self> {
                match reply {
                    $shape => Some($value),
                    _ => None,
                }
            }
        }
    )*};
}

from_reply! {
    (): SysReply::Unit => (),
    FileId: SysReply::Handle(h) => h,
    Preds: SysReply::Dists(d) => d,
    Vec<KvEntry>: SysReply::Entries(e) => e,
    usize: SysReply::Len(n) => n,
    u32: SysReply::Pos(p) => p,
    Vec<TokenId>: SysReply::Tokens(t) => t,
    String: SysReply::Text(t) => t,
    Tid: SysReply::NewTid(t) => t,
    ExitStatus: SysReply::Joined(s) => s,
    Message: SysReply::Msg { from, data } => Message { from, data },
    Option<Pid>: SysReply::MaybePid(p) => p,
    FileStat: SysReply::Stat(s) => *s,
    SimTime: SysReply::Time(t) => t,
}

/// A LIP thread's own state: identity, argument string, private RNG
/// stream and the tokenizer's special tokens — everything a body can read
/// without asking the kernel. A hosted body reaches it through its
/// [`Ctx`]; an inline body is handed it on every resume.
#[derive(Clone)]
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

pub use crate::hosted::Ctx;

impl Ctx {
    /// Issues `call` and converts its reply: a kernel error is returned
    /// as is, a reply of another shape than `R`'s is
    /// [`SysError::BadArgument`].
    fn call<R: FromReply>(&self, call: Syscall) -> Result<R, SysError> {
        match self.syscall(call) {
            SysReply::Err(e) => Err(e),
            reply => R::from_reply(reply).ok_or(SysError::BadArgument),
        }
    }

    // ---- model computation (§4.1) ---------------------------------------------

    /// The `pred` system call: runs `tokens` through the model on top of the
    /// context cached in `kv`, returning the next-token distribution after
    /// each input token, each built when it is read. The KV file gains one
    /// entry per token.
    pub fn pred(&self, kv: FileId, tokens: &[(TokenId, u32)]) -> Result<Preds, SysError> {
        self.call(Syscall::Pred {
            kv,
            tokens: tokens.to_vec(),
        })
    }

    /// `pred` over a contiguous token run starting at `start_pos`. A run
    /// whose last position would not fit a `u32` is
    /// [`SysError::BadArgument`], refused before any system call.
    pub fn pred_positions(
        &self,
        kv: FileId,
        tokens: &[TokenId],
        start_pos: u32,
    ) -> Result<Preds, SysError> {
        let pairs = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let pos = u32::try_from(i).ok().and_then(|i| start_pos.checked_add(i));
                pos.map(|pos| (t, pos)).ok_or(SysError::BadArgument)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.pred(kv, &pairs)
    }

    // ---- KVFS (§4.2) -----------------------------------------------------------

    /// Creates an empty private KV file.
    pub fn kv_create(&self) -> Result<FileId, SysError> {
        self.call(Syscall::KvCreate)
    }

    /// Opens a named KV file (e.g. a shared system prompt).
    pub fn kv_open(&self, path: &str) -> Result<FileId, SysError> {
        let path = path.to_string();
        self.call(Syscall::KvOpen { path })
    }

    /// Publishes a KV file under a path.
    pub fn kv_link(&self, kv: FileId, path: &str) -> Result<(), SysError> {
        let path = path.to_string();
        self.call(Syscall::KvLink { kv, path })
    }

    /// Copy-on-write clone of a KV file.
    pub fn kv_fork(&self, kv: FileId) -> Result<FileId, SysError> {
        self.call(Syscall::KvFork { kv })
    }

    /// Deletes a KV file.
    pub fn kv_remove(&self, kv: FileId) -> Result<(), SysError> {
        self.call(Syscall::KvRemove { kv })
    }

    /// Number of cached tokens in a file.
    // lint:allow(u1): native LIPs in the kernel's tests measure files through it; a LipScript program calls `kv_len`
    pub fn kv_len(&self, kv: FileId) -> Result<usize, SysError> {
        self.call(Syscall::KvLen { kv })
    }

    /// Position following the file's last entry.
    pub fn kv_next_pos(&self, kv: FileId) -> Result<u32, SysError> {
        self.call(Syscall::KvNextPos { kv })
    }

    /// Truncates a file to `len` tokens.
    pub fn kv_truncate(&self, kv: FileId, len: usize) -> Result<(), SysError> {
        self.call(Syscall::KvTruncate { kv, len })
    }

    /// Reads cached entries (token inspection).
    // lint:allow(u1): native LIPs in the kernel's tests inspect entries through it; a LipScript program calls `kv_read`
    pub fn kv_read(
        &self,
        kv: FileId,
        start: usize,
        count: usize,
    ) -> Result<Vec<KvEntry>, SysError> {
        self.call(Syscall::KvRead { kv, start, count })
    }

    /// Pins a file against eviction and swap.
    // lint:allow(u1): native LIPs in the kernel's tests pin files through it; a LipScript program calls `kv_pin`
    pub fn kv_pin(&self, kv: FileId) -> Result<(), SysError> {
        self.call(Syscall::KvPin { kv })
    }

    /// Changes a file's permission mode.
    pub fn kv_chmod(&self, kv: FileId, mode: Mode) -> Result<(), SysError> {
        self.call(Syscall::KvChmod { kv, mode })
    }

    /// Explicitly swaps a file out to host memory.
    // lint:allow(u1): native LIPs in the kernel's and the experiments' tests swap files out through it; a LipScript program calls `kv_swap_out`
    pub fn kv_swap_out(&self, kv: FileId) -> Result<(), SysError> {
        self.call(Syscall::KvSwapOut { kv })
    }

    /// Swaps a file back into GPU memory.
    // lint:allow(u1): native LIPs in the kernel's and the experiments' tests swap files in through it; a LipScript program calls `kv_swap_in`
    pub fn kv_swap_in(&self, kv: FileId) -> Result<(), SysError> {
        self.call(Syscall::KvSwapIn { kv })
    }

    // ---- threads and I/O (§4.3) ---------------------------------------------------

    /// Spawns a sibling thread in this process.
    pub fn spawn<F>(&self, f: F) -> Result<Tid, SysError>
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        let body = Body::hosted(f);
        self.call(Syscall::Spawn { body })
    }

    /// Blocks until `tid` exits; returns its status. A thread's status is
    /// kept as long as its *process* lives: joining a thread of a process
    /// that has already exited is [`SysError::NotFound`], as for a tid that
    /// never existed (only a thread of another process can be asking by
    /// then).
    pub fn join(&self, tid: Tid) -> Result<ExitStatus, SysError> {
        self.call(Syscall::Join { tid })
    }

    /// Invokes a server-side tool; blocks this thread for the tool's
    /// (virtual) latency. While blocked, the kernel may offload this
    /// process's KV files to host memory.
    // lint:allow(u1): native LIPs in the kernel's and the experiments' tests call tools through it; a LipScript program calls `call_tool`
    pub fn call_tool(&self, name: &str, args: &str) -> Result<String, SysError> {
        let (name, args) = (name.to_string(), args.to_string());
        self.call(Syscall::CallTool { name, args })
    }

    /// Sends an IPC message to another process.
    // lint:allow(u1): native LIPs in the kernel's and the experiments' tests send messages through it; a LipScript program calls `send`
    pub fn send_msg(&self, to: Pid, data: &str) -> Result<(), SysError> {
        let data = data.to_string();
        self.call(Syscall::SendMsg { to, data })
    }

    /// Receives the next IPC message, blocking until one arrives.
    // lint:allow(u1): native LIPs in the kernel's and the experiments' tests receive messages through it; a LipScript program calls `recv`
    pub fn recv_msg(&self) -> Result<Message, SysError> {
        self.call(Syscall::Recv)
    }

    /// Finds a live process by its spawn name.
    // lint:allow(u1): native LIPs in the kernel's and the experiments' tests find processes through it; a LipScript program calls `lookup`
    pub fn lookup_process(&self, name: &str) -> Result<Option<Pid>, SysError> {
        let name = name.to_string();
        self.call(Syscall::LookupProcess { name })
    }

    /// Sleeps for a span of virtual time.
    pub fn sleep(&self, dur: SimDuration) -> Result<(), SysError> {
        self.call(Syscall::Sleep { dur })
    }

    // ---- client output and tokenisation ----------------------------------------

    /// Streams text to the client.
    pub fn emit(&self, text: &str) -> Result<(), SysError> {
        let text = text.to_string();
        self.call(Syscall::Emit { text })
    }

    /// Streams tokens to the client (detokenised server-side); counts toward
    /// the process's generated-token metric.
    pub fn emit_tokens(&self, tokens: &[TokenId]) -> Result<(), SysError> {
        let tokens = tokens.to_vec();
        self.call(Syscall::EmitTokens { tokens })
    }

    /// Tokenises text with the server's tokenizer.
    pub fn tokenize(&self, text: &str) -> Result<Vec<TokenId>, SysError> {
        let text = text.to_string();
        self.call(Syscall::Tokenize { text })
    }

    /// Detokenises tokens with the server's tokenizer.
    pub fn detokenize(&self, tokens: &[TokenId]) -> Result<String, SysError> {
        let tokens = tokens.to_vec();
        self.call(Syscall::Detokenize { tokens })
    }

    /// Current virtual time.
    pub fn now(&self) -> Result<SimTime, SysError> {
        self.call(Syscall::Now)
    }
}
