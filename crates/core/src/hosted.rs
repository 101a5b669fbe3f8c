//! Hosted bodies: the one module that knows a LIP body may live on an OS
//! thread.
//!
//! A native closure (`Body::Hosted`, what `Kernel::spawn_process` takes)
//! blocks in its system calls, so it needs a stack of its own to block
//! on. [`Hosted`] gives it one — a worker of a process-global pool — and
//! is itself an [`InlineBody`]: its `resume` hands the reply to the worker
//! over the thread's private channel pair and returns the [`Syscall`] the
//! worker sends back. The kernel steps it like any other body and never
//! learns that a thread was involved; a step's host cost shows only in
//! `kernel.lip.hosted_handoffs`, and the workers held in
//! `kernel.lip.hosted_threads`.
//!
//! The worker's side is [`Ctx`]: a [`ThreadEnv`] plus the channel pair.
//! Its typed wrappers (in [`crate::syscall`]) are each one
//! [`Ctx::syscall`]. Two unwinds end a closure early: a closed reply
//! channel (the body was dropped — its kernel is gone or the thread was
//! reaped) unwinds the worker with `ShutdownSignal`, and [`Ctx::exec`]
//! unwinds with `ExecSignal` once it has sent the kernel's side the body
//! to continue as. On an exec, [`Hosted`] joins the worker, takes the
//! exec'd environment and steps the exec'd body in the same `resume` —
//! no virtual time passes and the kernel sees one step — and forwards to
//! it from then on. A panic in the closure is caught on the worker, sent
//! up and re-raised (`resume_unwind`, no panic hook) inside the kernel's
//! step, so the thread exits `Crashed` exactly as a panicking inline body
//! does.
//!
//! Spawning a fresh OS thread per program costs tens of microseconds of
//! clone/page-table work, so workers are parked and reused across programs
//! and across kernel instances: which OS thread hosts a body is invisible
//! to the deterministic event loop. The pool grows on demand (one worker
//! per concurrently-live hosted body at peak) and never shrinks; a worker
//! re-registers on the idle list when a body finishes, before its
//! [`JobHandle::join`] returns. A closure that only sets a program up and
//! execs it gives its worker back before the program's first step. A
//! LipScript program needs no closure, durable or not: it is admitted
//! inline, and a durable one's admission frame carries its text.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use symphony_telemetry::{Counter, Gauge, MetricsRegistry};

use crate::syscall::{InlineBody, LipFn, Next, SysReply, Syscall, ThreadEnv};
use crate::types::SysError;

// ---- the worker pool ---------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;
type JobSlot = (Job, Sender<()>);

struct Pool {
    /// Senders for workers currently parked and ready for a body.
    idle: Mutex<Vec<Sender<JobSlot>>>,
    /// Total workers ever spawned (names only).
    spawned: AtomicUsize,
}

/// The pool every hosted body runs on.
static POOL: Pool = Pool::new();

/// Handle to a submitted job. [`JobHandle::join`] blocks until the job has
/// fully finished (including shutdown unwinding), standing in for
/// `JoinHandle::join` on a dedicated thread.
struct JobHandle {
    done: Receiver<()>,
}

impl JobHandle {
    fn join(self) {
        // The job's sender drops when the job finishes; a disconnect is the
        // completion signal, so either result means "done".
        let _ = self.done.recv();
    }
}

impl Pool {
    const fn new() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        }
    }

    /// Runs `job` on a pooled worker thread, growing the pool if every
    /// worker is busy hosting a live body.
    fn spawn(&'static self, job: Job) -> JobHandle {
        let (done_tx, done_rx) = channel();
        let parked = {
            // lint:allow(k1): poisoning is impossible — nothing panics while
            // the idle list is held
            let mut idle = self.idle.lock().expect("LIP pool idle list poisoned");
            idle.pop()
        };
        let slot = match parked {
            Some(tx) => tx,
            None => {
                let (tx, rx) = channel::<JobSlot>();
                let self_tx = tx.clone();
                let n = self.spawned.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("lip-worker-{n}"))
                    .stack_size(512 * 1024)
                    .spawn(move || self.worker_loop(rx, self_tx))
                    // lint:allow(k1): OS thread spawn failing is unrecoverable
                    .expect("spawn LIP pool worker");
                tx
            }
        };
        slot.send((job, done_tx))
            // lint:allow(k1): the worker holds its receiver for the process
            // lifetime, so the channel can never be closed
            .unwrap_or_else(|_| unreachable!("LIP pool worker hung up"));
        JobHandle { done: done_rx }
    }

    fn worker_loop(&self, rx: Receiver<JobSlot>, self_tx: Sender<JobSlot>) {
        while let Ok((job, done)) = rx.recv() {
            // Bodies unwind with `ShutdownSignal` when they are dropped
            // parked (and may panic arbitrarily — `thread_main` sends those
            // up before unwinding reaches here); either way the worker
            // survives for reuse.
            let _ = catch_unwind(AssertUnwindSafe(job));
            // Idle before done: a `join` that returns has a worker to give
            // the next `spawn`, instead of racing it to the idle list.
            {
                // lint:allow(k1): see `spawn` — the idle list cannot be poisoned
                let mut idle = self.idle.lock().expect("LIP pool idle list poisoned");
                idle.push(self_tx.clone());
            }
            drop(done);
        }
    }
}

// ---- the worker's side: Ctx ----------------------------------------------------

/// Payload used to unwind a closure whose body was dropped while parked.
struct ShutdownSignal;

fn shutdown_unwind() -> ! {
    std::panic::panic_any(ShutdownSignal)
}

/// Payload used to unwind a closure whose thread is now an inline body
/// ([`Ctx::exec`]). Raised with `resume_unwind`, so no panic hook runs.
struct ExecSignal;

fn exec_unwind() -> ! {
    resume_unwind(Box::new(ExecSignal))
}

/// What a worker sends its [`Hosted`] body: the closure's next system call,
/// the body it exec'd, or how it ended.
enum UpCall {
    Syscall(Syscall),
    Exec(Box<dyn InlineBody>, Box<ThreadEnv>),
    Exited(Result<(), SysError>),
    Crashed(Box<dyn Any + Send>),
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
    /// [`Ctx::exec`] gave the thread to an inline body: this `Ctx` speaks
    /// for nobody, and anything it would send unwinds instead.
    execed: bool,
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
    /// Issues one system call in wire format and blocks for its reply:
    /// the hosted counterpart of an [`InlineBody`] returning the same
    /// [`Syscall`]. The typed wrappers are shorthands over it.
    pub fn syscall(&self, call: Syscall) -> SysReply {
        self.send(UpCall::Syscall(call));
        self.reply.recv().unwrap_or_else(|_| shutdown_unwind())
    }

    /// Replaces this thread's body with `body`, as `execve` replaces a
    /// process image: the kernel steps `body` inline from here on, starting
    /// it with [`SysReply::Start`] and the thread's environment as it is
    /// now (its RNG stream goes on where this body left it), and this
    /// closure's OS thread goes back to the pool.
    ///
    /// It is not a system call: it takes no virtual time and is not
    /// counted in the process's usage. It does not return: the closure
    /// unwinds, without a panic message. Code that catches the unwind
    /// reaches nobody — any later call on this `Ctx` unwinds the same way
    /// before it is sent, and the closure's return value is ignored.
    /// Outside tests only the benchmark's durable workload gets here, through
    /// the LipScript crate's closure entry point: a program held as a value
    /// is admitted as `Body::Inline`, durable or not.
    pub fn exec(&mut self, body: Box<dyn InlineBody>) -> ! {
        self.send(UpCall::Exec(body, Box::new(self.env.clone())));
        self.execed = true;
        exec_unwind()
    }

    /// Sends an upcall, unless the thread has been handed on.
    fn send(&self, up: UpCall) {
        if self.execed {
            exec_unwind();
        }
        if self.up.send(up).is_err() {
            shutdown_unwind();
        }
    }
}

/// Entry point run on the worker: gate on the kernel's start signal, run
/// the closure, send up how it ended.
fn thread_main(mut ctx: Ctx, f: LipFn) {
    match ctx.reply.recv() {
        Ok(SysReply::Start) => {}
        _ => return,
    }
    let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
    if ctx.execed {
        // The thread runs on as the body it exec'd; its exit is that one's.
        return;
    }
    let up = match result {
        Ok(result) => UpCall::Exited(result),
        // Dropped while parked: nobody is listening.
        Err(payload) if payload.is::<ShutdownSignal>() => return,
        Err(payload) => UpCall::Crashed(payload),
    };
    let _ = ctx.up.send(up);
}

// ---- the kernel's side: Hosted --------------------------------------------------

/// What hosted bodies count: hand-offs made and workers held.
#[derive(Clone)]
pub(crate) struct HostedMetrics {
    /// Replies handed to a worker: one OS-thread hand-off there and one
    /// back.
    handoffs: Counter,
    /// Hosted bodies holding a pool worker.
    threads: Gauge,
}

impl HostedMetrics {
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        HostedMetrics {
            handoffs: registry.counter("kernel.lip.hosted_handoffs"),
            threads: registry.gauge("kernel.lip.hosted_threads"),
        }
    }
}

/// The worker a hosted body holds until its closure ends or execs.
struct Worker {
    reply: Sender<SysReply>,
    up: Receiver<UpCall>,
    job: JobHandle,
}

/// A native closure made an [`InlineBody`]: the closure runs on a pool
/// worker, and each `resume` is one hand-off to it and back.
pub(crate) struct Hosted {
    worker: Option<Worker>,
    /// What the closure exec'd: every step after the exec is this one's.
    execd: Option<Box<dyn InlineBody>>,
    metrics: HostedMetrics,
}

impl Hosted {
    /// Puts `f` on a worker, parked until its first `resume` delivers
    /// [`SysReply::Start`].
    pub(crate) fn spawn(f: LipFn, env: ThreadEnv, metrics: &HostedMetrics) -> Self {
        let (reply, reply_rx) = channel();
        let (up_tx, up) = channel();
        let ctx = Ctx {
            env,
            up: up_tx,
            reply: reply_rx,
            execed: false,
        };
        let job = POOL.spawn(Box::new(move || thread_main(ctx, f)));
        metrics.threads.add(1);
        Hosted {
            worker: Some(Worker { reply, up, job }),
            execd: None,
            metrics: metrics.clone(),
        }
    }

    /// Closes the reply channel — a parked closure unwinds — and joins the
    /// worker, which then goes back to the pool.
    fn release(&mut self) {
        if let Some(Worker { reply, up, job }) = self.worker.take() {
            drop((reply, up));
            job.join();
            self.metrics.threads.add(-1);
        }
    }
}

impl InlineBody for Hosted {
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next {
        let Some(w) = &self.worker else {
            return match &mut self.execd {
                Some(body) => body.resume(env, reply),
                None => Next::Exit(Err(SysError::Internal(
                    "hosted body resumed after its exit",
                ))),
            };
        };
        self.metrics.handoffs.inc();
        // The worker sends before it lets its sender go; a hang-up is a
        // worker that died mid-body.
        let up = match w.reply.send(reply) {
            Ok(()) => w.up.recv().ok(),
            Err(_) => None,
        };
        match up.unwrap_or_else(|| UpCall::Crashed(Box::new("hosted worker hung up"))) {
            UpCall::Syscall(call) => Next::Syscall(call),
            UpCall::Exited(result) => {
                self.release();
                Next::Exit(result)
            }
            UpCall::Crashed(payload) => {
                self.release();
                resume_unwind(payload)
            }
            UpCall::Exec(body, execd_env) => {
                self.release();
                *env = *execd_env;
                self.execd = Some(body);
                self.resume(env, SysReply::Start)
            }
        }
    }
}

impl Drop for Hosted {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn jobs_run_and_join() {
        let hits = Arc::new(AtomicU64::new(0));
        let handles: Vec<JobHandle> = (0..32)
            .map(|_| {
                let hits = hits.clone();
                POOL.spawn(Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }))
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn workers_are_reused_across_waves() {
        // Sequential bodies should keep re-parking the same worker rather
        // than growing the pool per job. A pool of the test's own: the
        // shared one also serves whatever kernels other tests run at the
        // same time, which may take the parked worker between two jobs.
        static OWN: Pool = Pool::new();
        let before = OWN.spawned.load(Ordering::Relaxed);
        for _ in 0..16 {
            OWN.spawn(Box::new(|| {})).join();
        }
        let grown = OWN.spawned.load(Ordering::Relaxed) - before;
        assert!(grown <= 2, "sequential jobs grew the pool by {grown}");
    }
}
