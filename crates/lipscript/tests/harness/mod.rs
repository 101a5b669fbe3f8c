//! LipScript where it runs, for tests: a program admitted with
//! `Kernel::admit` on a `KernelConfig::for_tests()` kernel, as an inline
//! body that steps the interpreter through the crate's own
//! `inline::{lower, lift}` — what a served program's `LipBody` does — and
//! keeps what a test reads: every host call the main thread made and its
//! reply, the fuel and memory it used, and its own result. Shared by the
//! integration tests and by the reference differential (`src/reference.rs`,
//! which includes this file by path, as it does `arb`).

// Each test crate that includes this uses part of it.
#![allow(dead_code)]

use std::sync::{Arc, Mutex};

use symphony::{
    Body, ExitStatus, InlineBody, Kernel, KernelConfig, Next, SimDuration, SpawnOpts, SysError,
    SysReply, ThreadEnv, ToolOutcome, ToolSpec,
};
use symphony_lipscript::ast::Program;
use symphony_lipscript::host::{HostReply, HostResult};
use symphony_lipscript::inline::{lift, lower};
use symphony_lipscript::{InterpLimits, Interpreter, LipError, RuntimeError, Step, Value};

/// One host call as the machine made it (`Debug` text), and the reply it
/// went on with: `lower`'s on the spot, or the kernel's lifted. `None` for
/// the call it is parked on.
pub(crate) type Exchange = (String, Option<HostResult<HostReply>>);

/// What a run on the kernel shows.
#[derive(Debug, Default)]
pub(crate) struct Run {
    /// The process's exit status; `None` if a thread of it is parked for
    /// good (the kernel ran out of things to do with it still waiting).
    pub(crate) status: Option<ExitStatus>,
    /// Everything the process emitted, its spawned threads' output too.
    pub(crate) output: String,
    /// The main thread's own end: the program's value, or its error with
    /// kind and span. `None` if it is parked for good, at the last call of
    /// `transcript`.
    pub(crate) result: Option<Result<Value, RuntimeError>>,
    /// Fuel the main thread burnt.
    pub(crate) fuel: u64,
    /// Memory cells the main thread was charged.
    pub(crate) mem: u64,
    /// The main thread's host calls in order, those `lower` answered among
    /// them.
    pub(crate) transcript: Vec<Exchange>,
}

/// A main thread that is a `LipBody` with a log.
struct Logged {
    interp: Interpreter,
    /// `func(args...)` to call instead of the top level.
    entry: Option<(String, Vec<Value>)>,
    run: Arc<Mutex<Run>>,
}

impl InlineBody for Logged {
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next {
        let mut run = self.run.lock().expect("the kernel's thread alone holds it");
        let started = match reply {
            SysReply::Start => match self.entry.take() {
                None => {
                    self.interp.start();
                    Ok(None)
                }
                Some((func, args)) => self.interp.start_named(&func, args).map(|()| None),
            },
            reply => {
                let reply = lift(reply);
                let (_, parked) = run.transcript.last_mut().expect("the call it parked on");
                *parked = Some(reply.clone());
                Ok(Some(reply))
            }
        };
        let step = match started {
            Err(e) => Step::Done(Err(e)),
            Ok(reply) => {
                let transcript = &mut run.transcript;
                self.interp.step_with(reply, &mut |call| {
                    let made = format!("{call:?}");
                    let answered = lower(call, env);
                    transcript.push((made, answered.as_ref().ok().cloned().map(Ok)));
                    answered.map(Ok)
                })
            }
        };
        run.fuel = self.interp.fuel_used();
        run.mem = self.interp.mem_used();
        match step {
            Step::Ask(call) => Next::Syscall(call),
            Step::Done(result) => {
                let failed = |e| SysError::ToolFailed(LipError::Runtime(e).to_string());
                let status = result.clone().map(drop).map_err(failed);
                run.result = Some(result);
                Next::Exit(status)
            }
        }
    }
}

/// Runs `program` on a fresh test kernel as the main thread of a process
/// named `self` (so `lookup("self")` finds it) with `args`: its top level,
/// or `entry`, a call of one of its functions. The kernel has one tool,
/// `echo`, which answers `echoed <args>` after 1 ms.
pub(crate) fn run(
    program: Arc<Program>,
    args: &str,
    limits: InterpLimits,
    entry: Option<(&str, Vec<Value>)>,
) -> Run {
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    kernel.register_tool(
        "echo",
        ToolSpec::fixed(SimDuration::from_millis(1), |args| {
            ToolOutcome::Ok(format!("echoed {args}"))
        }),
    );
    let run = Arc::new(Mutex::new(Run::default()));
    let body = Logged {
        interp: Interpreter::new(program, limits),
        entry: entry.map(|(func, args)| (func.to_string(), args)),
        run: Arc::clone(&run),
    };
    let pid = kernel.admit(
        "self",
        args,
        SpawnOpts::default(),
        Body::Inline(Box::new(body)),
    );
    kernel.run();
    let record = kernel.record(pid).expect("a kernel with no sink keeps it");
    let mut run = std::mem::take(&mut *run.lock().expect("the kernel is done"));
    run.status = record.exited_at.map(|_| record.status.clone());
    run.output = record.output.clone();
    run
}

/// [`run`] of `src`'s top level, with args `the args` and the default
/// limits.
pub(crate) fn run_src(src: &str) -> Run {
    let program = symphony_lipscript::parse::parse(src).expect("test programs parse");
    run(Arc::new(program), "the args", InterpLimits::default(), None)
}
