//! Inline bodies from the kernel's side: hand-written state machines
//! stepped by `Kernel::resume`, and what happens when one misbehaves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use symphony::{
    Body, ExitStatus, InlineBody, Kernel, KernelConfig, Next, SpawnOpts, SysError, SysReply,
    Syscall, ThreadEnv, Tid,
};

/// Emits its args, then exits.
struct Greeter;

impl InlineBody for Greeter {
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next {
        match reply {
            SysReply::Start => Next::Syscall(Syscall::Emit {
                text: format!("hello {}", env.args()),
            }),
            _ => Next::Exit(Ok(())),
        }
    }
}

/// Makes one system call, then panics when resumed with its reply.
struct Panicker;

impl InlineBody for Panicker {
    fn resume(&mut self, _: &mut ThreadEnv, reply: SysReply) -> Next {
        match reply {
            SysReply::Start => Next::Syscall(Syscall::Now),
            _ => panic!("a body that steps on a rake"),
        }
    }
}

/// Spawns a [`Panicker`] thread, joins it, and reports how it ended.
struct Parent;

impl InlineBody for Parent {
    fn resume(&mut self, _: &mut ThreadEnv, reply: SysReply) -> Next {
        match reply {
            SysReply::Start => Next::Syscall(Syscall::Spawn {
                body: Body::Inline(Box::new(Panicker)),
            }),
            SysReply::NewTid(tid) => Next::Syscall(Syscall::Join { tid }),
            SysReply::Joined(status) => Next::Syscall(Syscall::Emit {
                text: format!("child ended {status:?}"),
            }),
            _ => Next::Exit(Ok(())),
        }
    }
}

#[test]
fn a_panicking_step_crashes_its_thread_and_nothing_else() {
    let mut k = Kernel::new(KernelConfig::for_tests());
    let now = SpawnOpts::default();
    let before = k.admit("before", "one", now, Body::Inline(Box::new(Greeter)));
    let parent = k.admit("parent", "", now, Body::Inline(Box::new(Parent)));
    let alone = k.admit("alone", "", now, Body::Inline(Box::new(Panicker)));
    let native = k.spawn_process("native", "", |ctx| ctx.emit("a hosted neighbour"));
    // A closure's panic is caught on its worker and re-raised in the
    // kernel's step; an exec'd body's is the step's own.
    let hosted = k.spawn_process("hosted", "", |ctx| {
        ctx.now()?;
        panic!("a closure that steps on a rake")
    });
    let execd = k.spawn_process("execd", "", |ctx| ctx.exec(Box::new(Panicker)));
    let after = k.admit("after", "two", now, Body::Inline(Box::new(Greeter)));
    assert_eq!(k.run(), 7, "every process of the run exits");
    assert_eq!(k.live_threads(), 0);

    let rec = |pid| k.record(pid).expect("record");
    assert_eq!(rec(alone).status, ExitStatus::Crashed);
    assert_eq!(rec(hosted).status, ExitStatus::Crashed);
    assert_eq!(rec(execd).status, ExitStatus::Crashed);
    // The crash woke the joiner, with the status; the parent went on.
    assert_eq!(rec(parent).status, ExitStatus::Ok);
    assert_eq!(rec(parent).output, "child ended Crashed");
    assert_eq!(rec(before).output, "hello one");
    assert_eq!(rec(after).output, "hello two");
    assert_eq!(rec(native).output, "a hosted neighbour");
    let threads = k.metrics_registry().gauge("kernel.lip.hosted_threads");
    assert_eq!(threads.get(), 0, "a crash kept its worker");

    // And the kernel serves the next run.
    let next = k.admit("next", "three", now, Body::Inline(Box::new(Greeter)));
    assert_eq!(k.run(), 1);
    assert_eq!(k.record(next).expect("record").output, "hello three");
}

/// Counts its steps and its drops; parks in `recv` until it is refused.
struct Sleeper {
    steps: Arc<AtomicUsize>,
    drops: Arc<AtomicUsize>,
}

impl InlineBody for Sleeper {
    fn resume(&mut self, _: &mut ThreadEnv, reply: SysReply) -> Next {
        self.steps.fetch_add(1, Ordering::SeqCst);
        match reply {
            SysReply::Err(e) => Next::Exit(Err(e)),
            _ => Next::Syscall(Syscall::Recv),
        }
    }
}

impl Drop for Sleeper {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn dropping_the_kernel_drops_parked_bodies_unstepped() {
    let steps = Arc::new(AtomicUsize::new(0));
    let drops = Arc::new(AtomicUsize::new(0));
    let mut k = Kernel::new(KernelConfig::for_tests());
    let now = SpawnOpts::default();
    for i in 0..3 {
        let body = Sleeper {
            steps: Arc::clone(&steps),
            drops: Arc::clone(&drops),
        };
        k.admit(
            &format!("sleeper{i}"),
            "",
            now,
            Body::Inline(Box::new(body)),
        );
    }
    // A hosted thread parked the same way still unblocks and is joined.
    k.spawn_process("hosted-sleeper", "", |ctx| ctx.recv_msg().map(drop));
    // So is the body a closure exec'd, which holds no worker any more.
    let body = Sleeper {
        steps: Arc::clone(&steps),
        drops: Arc::clone(&drops),
    };
    k.spawn_process("execd-sleeper", "", move |ctx| ctx.exec(Box::new(body)));
    assert_eq!(k.run(), 0);
    assert_eq!(k.live_threads(), 5, "all five parked in recv");
    assert_eq!(
        steps.load(Ordering::SeqCst),
        4,
        "one step each, to the recv"
    );
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    let threads = k.metrics_registry().gauge("kernel.lip.hosted_threads");
    assert_eq!(threads.get(), 1, "the hosted sleeper holds a worker");
    drop(k);
    assert_eq!(steps.load(Ordering::SeqCst), 4, "teardown stepped a body");
    assert_eq!(drops.load(Ordering::SeqCst), 4, "teardown leaked a body");
    assert_eq!(threads.get(), 0, "teardown kept a worker");
}

#[test]
fn an_exited_body_is_dropped_at_once() {
    let steps = Arc::new(AtomicUsize::new(0));
    let drops = Arc::new(AtomicUsize::new(0));
    let mut k = Kernel::new(KernelConfig::for_tests());
    let now = SpawnOpts::default();
    let body = Sleeper {
        steps: Arc::clone(&steps),
        drops: Arc::clone(&drops),
    };
    let pid = k.admit("sleeper", "", now, Body::Inline(Box::new(body)));
    k.run();
    assert!(k.cancel_process(pid));
    assert_eq!(k.run(), 1, "woken with `Cancelled`, it exits");
    assert_eq!(steps.load(Ordering::SeqCst), 2);
    // Its record stays; its state does not: the body, the live half of
    // its table entry (it is a zombie) and its thread's entry are gone.
    assert_eq!(
        k.record(pid).expect("record").status,
        ExitStatus::Error(SysError::Cancelled)
    );
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    let zombies = k.metrics_registry().gauge("kernel.procs.zombies");
    assert_eq!(zombies.get(), 1);
    assert!(!k.cancel_process(pid), "nothing left to cancel");
    let joiner = k.admit("joiner", "", now, Body::Inline(Box::new(Joiner(Tid(1)))));
    k.run();
    assert_eq!(k.record(joiner).expect("record").output, "not found");
}

/// Joins a thread, of whatever process, and emits what it was told.
struct Joiner(Tid);

impl InlineBody for Joiner {
    fn resume(&mut self, _: &mut ThreadEnv, reply: SysReply) -> Next {
        let text = match reply {
            SysReply::Start => return Next::Syscall(Syscall::Join { tid: self.0 }),
            SysReply::Joined(status) => format!("joined {status:?}"),
            SysReply::Err(e) => e.to_string(),
            _ => return Next::Exit(Ok(())),
        };
        Next::Syscall(Syscall::Emit { text })
    }
}

/// A thread's status is kept for its joiners as long as its process lives,
/// and goes with the process: the one place where exit leaving a zombie
/// (and not the whole table entry, threads included) can be seen.
#[test]
fn joining_a_thread_of_an_exited_process_is_not_found() {
    let mut k = Kernel::new(KernelConfig::for_tests());
    let now = SpawnOpts::default();
    // Thread 1 parks in `recv`; thread 2, its child, exits at once.
    let parent = k.spawn_process("parent", "", |ctx| {
        ctx.spawn(|_| Ok(()))?;
        ctx.recv_msg().map(drop)
    });
    k.run();
    let early = k.admit("early", "", now, Body::Inline(Box::new(Joiner(Tid(2)))));
    k.run();
    assert_eq!(k.record(early).expect("record").output, "joined Ok");
    assert!(k.cancel_process(parent));
    k.run();
    let late = k.admit("late", "", now, Body::Inline(Box::new(Joiner(Tid(2)))));
    k.run();
    assert_eq!(k.record(late).expect("record").output, "not found");
}

/// Draws from the thread's RNG stream and emits the draw, then exits: what
/// is left of a [`Whole`] once its first system call is answered.
struct Second;

impl InlineBody for Second {
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next {
        match reply {
            SysReply::Start => Next::Syscall(Syscall::Emit {
                text: format!(" second {}", env.rng_u64()),
            }),
            _ => Next::Exit(Ok(())),
        }
    }
}

/// Draws, emits the draw, then goes on as [`Second`]: the inline twin of a
/// hosted closure that does its first half and execs the second. Counts
/// its steps.
struct Whole(u32);

impl InlineBody for Whole {
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next {
        self.0 += 1;
        match self.0 {
            1 => Next::Syscall(Syscall::Emit {
                text: format!("first {}", env.rng_u64()),
            }),
            // Its answered call is where the exec'd body starts.
            2 => Second.resume(env, SysReply::Start),
            _ => Second.resume(env, reply),
        }
    }
}

/// A hosted body that execs once set up reads, to the kernel's event
/// stream, the output and the RNG stream, as the same program admitted
/// inline: the exec costs no virtual time, no syscall and no dispatch, and
/// leaves no worker behind.
#[test]
fn a_hosted_body_that_execs_is_an_inline_one_from_then_on() {
    const PROGRAMS: usize = 3;
    let run = |cost_us: u64, exec: bool| {
        let mut cfg = KernelConfig::for_tests();
        cfg.telemetry = true;
        cfg.syscall_cost = symphony::SimDuration::from_micros(cost_us);
        let mut k = Kernel::new(cfg);
        let now = SpawnOpts::default();
        let pids: Vec<_> = (0..PROGRAMS)
            .map(|i| {
                let name = format!("p{i}");
                if exec {
                    k.spawn_process(&name, "", |ctx| {
                        let first = ctx.rng_u64();
                        ctx.emit(&format!("first {first}"))?;
                        ctx.exec(Box::new(Second))
                    })
                } else {
                    k.admit(&name, "", now, Body::Inline(Box::new(Whole(0))))
                }
            })
            .collect();
        assert_eq!(k.run(), PROGRAMS);
        let registry = k.metrics_registry();
        let handoffs = registry.counter_value("kernel.lip.hosted_handoffs");
        let threads = registry.gauge("kernel.lip.hosted_threads").get();
        let records: Vec<_> = pids
            .iter()
            .map(|&pid| {
                let rec = k.record(pid).expect("record");
                (rec.output.clone(), rec.status.clone(), rec.usage)
            })
            .collect();
        (records, k.telemetry_events().to_vec(), handoffs, threads)
    };
    for cost_us in [0, 2] {
        let (inline, inline_events, none, _) = run(cost_us, false);
        let (execd, execd_events, handoffs, threads) = run(cost_us, true);
        assert_eq!(none, Some(0));
        for (out, status, _) in &inline {
            assert!(
                out.starts_with("first ") && out.contains(" second "),
                "{out}"
            );
            assert_eq!(*status, ExitStatus::Ok);
        }
        assert_eq!(inline, execd, "syscall cost {cost_us} us");
        assert_eq!(inline_events, execd_events, "syscall cost {cost_us} us");
        // One hand-off for the start, one for the reply to the `emit`
        // before the exec; none after it, and no worker kept.
        assert_eq!(handoffs, Some(2 * PROGRAMS as u64));
        assert_eq!(threads, 0);
    }
}

/// A closure that catches its exec's unwind and goes on calling its `Ctx`
/// reaches nobody: the call unwinds before it is sent, the closure's return
/// is ignored, and the kernel's next hosted hand-off is answered by the
/// thread it resumed.
#[test]
fn a_ctx_that_has_execed_sends_nothing() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;

    let unwound = Arc::new(AtomicBool::new(false));
    let mut k = Kernel::new(KernelConfig::for_tests());
    let seen = Arc::clone(&unwound);
    let stubborn = k.spawn_process("stubborn", "again", move |ctx| {
        let _ = catch_unwind(AssertUnwindSafe(|| ctx.exec(Box::new(Greeter))));
        let late = catch_unwind(AssertUnwindSafe(|| ctx.now()));
        // Relaxed: read after the kernel has joined this worker.
        seen.store(late.is_err(), Ordering::Relaxed);
        Err(SysError::BadArgument)
    });
    let next = k.spawn_process("next", "", |ctx| ctx.emit("answered"));
    assert_eq!(k.run(), 2);
    assert_eq!(k.live_threads(), 0);
    assert!(
        unwound.load(Ordering::Relaxed),
        "`now` after an exec returned"
    );
    let rec = |pid| k.record(pid).expect("record");
    assert_eq!(rec(stubborn).status, ExitStatus::Ok);
    assert_eq!(rec(stubborn).output, "hello again");
    assert_eq!(rec(next).status, ExitStatus::Ok);
    assert_eq!(rec(next).output, "answered");
    let gauge = k.metrics_registry().gauge("kernel.lip.hosted_threads");
    assert_eq!(gauge.get(), 0);
}
