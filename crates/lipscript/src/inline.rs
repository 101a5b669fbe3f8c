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
//! A native closure on a hosted thread gets the same by [`run_lip`]: it
//! parses the script and execs a `LipBody`, so the thread goes on inline.
//!
//! A builtin that needs the kernel builds the [`Syscall`] itself, so
//! `lower` passes a [`HostCall::Sys`] through as it is; it answers what
//! the thread's own state can and makes `spawn`'s image a body. `lift` is
//! the one conversion of a kernel reply into a [`HostReply`]. The inline
//! body uses them, and so does a hosted native LIP's `Ctx` when an
//! interpreter is driven over it (`Interpreter::run(ctx)`; see `impl Host
//! for symphony::Ctx`): the same program makes the same system calls with
//! the same arguments whichever way it is run.

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
        }
    }
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
}

/// Parses a LipScript program inside a hosted Symphony LIP thread and
/// execs it ([`symphony::Ctx::exec`]): the thread runs on as a [`LipBody`]
/// the kernel steps itself, and the closure's OS thread goes back to the
/// pool before the program's first step. Its one caller outside tests is
/// the benchmark's durable workload, whose program image is a closure; any
/// other program, durable or not, is admitted as a `LipBody` to begin with.
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
pub(crate) fn lower(call: HostCall, env: &mut ThreadEnv) -> Result<HostReply, Syscall> {
    Err(match call {
        HostCall::Args => return Ok(HostReply::Text(env.args())),
        HostCall::Eos => return Ok(HostReply::Int(env.eos() as i64)),
        HostCall::Rand => return Ok(HostReply::Float(env.rng_f64())),
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
            })),
        },
        HostCall::Sys(call) => call,
    })
}

/// Turns the kernel's reply into the host reply the interpreter resumes
/// with; a kernel error becomes the program's host error, as text.
pub(crate) fn lift(reply: SysReply) -> HostResult<HostReply> {
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
        SysReply::Err(e) => return Err(e.to_string()),
        // Replies to system calls no builtin makes.
        SysReply::Start | SysReply::Entries(_) | SysReply::Stat(_) => {
            return Err(SysError::BadArgument.to_string())
        }
    })
}
