//! LipScript inside the kernel: the inline thread body, and the one table
//! between host calls and system calls.
//!
//! A served program never owns an OS thread. The server parses and
//! verifies it, wraps the [`Interpreter`] in a [`LipBody`] and admits that
//! as a `Body::Inline` ([`symphony::Kernel::admit`]); from then on the
//! kernel resumes the body with each system call's reply and gets the next
//! system call back, on its own thread. `spawn` makes more of the same, so
//! a program's threads are inline too.
//!
//! A durable program is the same body. Built by [`LipBody::parse`], its
//! main thread keeps the exact text it was admitted as (a re-print would
//! move the line:col a runtime error reports) and its limits, and gives
//! them up once as its image: the admission frame journals them, and after
//! a crash [`rebuild`] makes the body again from those bytes alone.
//!
//! [`run_lip`] runs a script from a native closure instead: it parses the
//! script and execs a `LipBody`, so the hosted thread goes on inline. Its
//! one caller outside tests is the benchmark's durable workload.
//!
//! A builtin that needs the kernel builds the [`Syscall`] itself, so
//! `lower` passes a [`HostCall::Sys`] through as it is; it answers what
//! the thread's own state can and makes `spawn`'s image a body. `lift` is
//! the one conversion of a kernel reply into a [`HostReply`]. The inline
//! body uses them, and so does a hosted native LIP's `Ctx` when an
//! interpreter is driven over it (`Interpreter::run(ctx)`; see `impl Host
//! for symphony::Ctx`): the same program makes the same system calls with
//! the same arguments whichever way it is run. They are public for the
//! crate's test harness (`tests/harness`), a logging twin of `LipBody` that
//! the verifier's soundness properties, the reference differential and the
//! interpreter suite run programs on: LipScript is tested on the kernel,
//! not on `MockHost`, which only the interpreter's timings still use.

use std::sync::Arc;

use symphony::{Body, InlineBody, Next, SysError, SysReply, Syscall, ThreadEnv};

use crate::ast::Program;
use crate::error::LipError;
use crate::host::{HostCall, HostReply, HostResult};
use crate::image::Image;
use crate::interp::{InterpLimits, Interpreter, Step};
use crate::parse::parse;
use crate::value::Value;

/// A LipScript program as a kernel thread body the kernel steps inline.
pub struct LipBody {
    interp: Interpreter,
    /// `func(args...)` to call, for a thread `spawn` made; the program's
    /// top level otherwise.
    entry: Option<(String, Vec<Value>)>,
    /// The kernel's image of this body (`InlineBody::take_image`, not a
    /// lowered [`Image`]): the limits and text [`rebuild`] makes it from,
    /// kept by a main thread [`LipBody::parse`] built until a durable
    /// admission journals them.
    journal: Option<Vec<u8>>,
}

impl LipBody {
    /// The body of a program's main thread: runs its top-level statements.
    /// Lowers the program; a server that sees one source many times lowers
    /// it once and uses [`LipBody::from_image`].
    pub fn new(program: Arc<Program>, limits: InterpLimits) -> Self {
        Self::from_image(Image::shared(&program), limits)
    }

    /// The body of a main thread over a lowered program, which it shares.
    pub fn from_image(image: Arc<Image>, limits: InterpLimits) -> Self {
        LipBody {
            interp: Interpreter::from_image(image, limits),
            entry: None,
            journal: None,
        }
    }

    /// The body of a main thread parsed from `src`, which keeps `src` and
    /// `limits` as its image: a durable admission journals them, and
    /// recovery [`rebuild`]s the body from the log.
    pub fn parse(src: &str, limits: InterpLimits) -> Result<Self, LipError> {
        let program = parse(src)?;
        let mut journal = Vec::with_capacity(LIMITS_LEN + src.len());
        journal.extend_from_slice(&limits.fuel.to_le_bytes());
        journal.extend_from_slice(&limits.memory_cells.to_le_bytes());
        journal.extend_from_slice(&limits.max_depth.to_le_bytes());
        journal.extend_from_slice(src.as_bytes());
        Ok(LipBody {
            journal: Some(journal),
            ..Self::new(Arc::new(program), limits)
        })
    }
}

/// An image's limits, ahead of its text: fuel and memory cells (`u64`),
/// then the call depth (`u32`), little-endian.
const LIMITS_LEN: usize = 8 + 8 + 4;

/// Rebuilds the body of a durable program's main thread from the image its
/// admission frame carries ([`LipBody::parse`]): what a
/// `Kernel::recover` resolver returns for a LipScript program, from the
/// log alone. `None` if the bytes are not such an image or the text no
/// longer parses; recovery then records the program as lost.
pub fn rebuild(image: &[u8]) -> Option<Body> {
    let (fuel, rest) = image.split_first_chunk::<8>()?;
    let (memory_cells, rest) = rest.split_first_chunk::<8>()?;
    let (max_depth, text) = rest.split_first_chunk::<4>()?;
    let limits = InterpLimits {
        fuel: u64::from_le_bytes(*fuel),
        memory_cells: u64::from_le_bytes(*memory_cells),
        max_depth: u32::from_le_bytes(*max_depth),
    };
    let program = Arc::new(parse(std::str::from_utf8(text).ok()?).ok()?);
    Some(Body::Inline(Box::new(LipBody::new(program, limits))))
}

impl InlineBody for LipBody {
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next {
        let exit = |result: Result<Value, _>| {
            let failed = |e| SysError::ToolFailed(LipError::Runtime(e).to_string());
            Next::Exit(result.map(drop).map_err(failed))
        };
        let reply = match reply {
            SysReply::Start => {
                match self.entry.take() {
                    None => self.interp.start(),
                    Some((func, args)) => {
                        if let Err(e) = self.interp.start_named(&func, args) {
                            return exit(Err(e));
                        }
                    }
                }
                None
            }
            reply => Some(lift(reply)),
        };
        // What the thread's own state can answer is answered without
        // parking the machine; anything else parks it on a system call.
        let mut answer = |call| lower(call, env).map(Ok);
        match self.interp.step_with(reply, &mut answer) {
            Step::Done(result) => exit(result),
            Step::Ask(call) => Next::Syscall(call),
        }
    }

    fn take_image(&mut self) -> Option<Vec<u8>> {
        self.journal.take()
    }
}

/// Parses a LipScript program inside a hosted Symphony LIP thread and
/// execs it ([`symphony::Ctx::exec`]): the thread runs on as a [`LipBody`]
/// the kernel steps itself, and the closure's OS thread goes back to the
/// pool before the program's first step. Its one caller outside tests is
/// the benchmark's durable workload, whose program image is a closure; any
/// other program, durable or not, is admitted as a `LipBody` to begin with
/// ([`LipBody::parse`] for one that must survive a crash).
///
/// It returns only if `src` does not parse. Otherwise the program's
/// outcome is the thread's exit status, as for a served one: `Ok` when it
/// finishes, [`symphony::SysError::ToolFailed`] with the rendered
/// [`LipError`] when it fails. The whole execution is sandboxed by
/// `limits`.
pub fn run_lip(
    src: &str,
    ctx: &mut symphony::Ctx,
    limits: InterpLimits,
) -> Result<Value, LipError> {
    let program = Arc::new(parse(src)?);
    ctx.exec(Box::new(LipBody::new(program, limits)))
}

/// Where a host call goes inside the kernel: nowhere (`Ok`: the thread's
/// own state answers it), or to the kernel as the system call it is or
/// stands for (`Err`, in `Interpreter::step_with`'s sense: what to park on).
pub fn lower(call: HostCall, env: &mut ThreadEnv) -> Result<HostReply, Syscall> {
    Err(match call {
        HostCall::Args => return Ok(HostReply::Text(env.args())),
        HostCall::Eos => return Ok(HostReply::Int(env.eos() as i64)),
        HostCall::Rand => return Ok(HostReply::Float(env.rng_f64())),
        HostCall::RandInt(n) => return Ok(HostReply::Int((env.rng_u64() % n) as i64)),
        HostCall::Sample(dist) => return Ok(HostReply::Int(env.sample(&dist) as i64)),
        HostCall::Spawn {
            image,
            func,
            args,
            limits,
        } => Syscall::Spawn {
            body: Body::Inline(Box::new(LipBody {
                interp: Interpreter::from_image(image, limits),
                entry: Some((func, args)),
                journal: None,
            })),
        },
        HostCall::Sys(call) => call,
    })
}

/// Turns the kernel's reply into the host reply the interpreter resumes
/// with; a kernel error is the program's host error, as it is.
pub fn lift(reply: SysReply) -> HostResult<HostReply> {
    Ok(match reply {
        SysReply::Unit => HostReply::Unit,
        SysReply::Handle(f) => HostReply::Handle(f.0),
        SysReply::Len(n) => HostReply::Int(n as i64),
        SysReply::Pos(p) => HostReply::Int(p as i64),
        SysReply::Tokens(tokens) => HostReply::Tokens(tokens),
        SysReply::Text(text) => HostReply::Text(text),
        SysReply::Dists(preds) => HostReply::Dists(preds.into_refs().collect()),
        SysReply::NewTid(tid) => HostReply::Thread(tid.0),
        SysReply::Joined(status) => HostReply::Joined(status.is_ok()),
        SysReply::Msg { from, data } => HostReply::Msg(from.0, data),
        SysReply::MaybePid(found) => HostReply::MaybePid(found.map(|p| p.0)),
        SysReply::Time(t) => HostReply::Float(t.as_secs_f64() * 1e3),
        // `kv_read`: the entries' tokens.
        SysReply::Entries(entries) => HostReply::Tokens(entries.iter().map(|e| e.token).collect()),
        SysReply::Err(e) => return Err(e),
        // Replies to system calls no builtin makes.
        SysReply::Start | SysReply::Stat(_) => return Err(SysError::BadArgument),
    })
}
