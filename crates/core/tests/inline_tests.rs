//! Inline bodies from the kernel's side: hand-written state machines
//! stepped by `Kernel::resume`, and what happens when one misbehaves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use symphony::{
    Body, ExitStatus, InlineBody, Kernel, KernelConfig, Next, SysError, SysReply, Syscall,
    ThreadEnv, Tid,
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
    let before = k.admit_inline("before", "one", None, Box::new(Greeter));
    let parent = k.admit_inline("parent", "", None, Box::new(Parent));
    let alone = k.admit_inline("alone", "", None, Box::new(Panicker));
    let native = k.spawn_process("native", "", |ctx| ctx.emit("a hosted neighbour"));
    let after = k.admit_inline("after", "two", None, Box::new(Greeter));
    assert_eq!(k.run(), 5, "every process of the run exits");
    assert_eq!(k.live_threads(), 0);

    let rec = |pid| k.record(pid).expect("record");
    assert_eq!(rec(alone).status, ExitStatus::Crashed);
    // The crash woke the joiner, with the status; the parent went on.
    assert_eq!(rec(parent).status, ExitStatus::Ok);
    assert_eq!(rec(parent).output, "child ended Crashed");
    assert_eq!(rec(before).output, "hello one");
    assert_eq!(rec(after).output, "hello two");
    assert_eq!(rec(native).output, "a hosted neighbour");

    // And the kernel serves the next run.
    let next = k.admit_inline("next", "three", None, Box::new(Greeter));
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
    for i in 0..3 {
        let body = Sleeper {
            steps: Arc::clone(&steps),
            drops: Arc::clone(&drops),
        };
        k.admit_inline(&format!("sleeper{i}"), "", None, Box::new(body));
    }
    // A hosted thread parked the same way still unblocks and is joined.
    k.spawn_process("hosted-sleeper", "", |ctx| ctx.recv_msg().map(drop));
    assert_eq!(k.run(), 0);
    assert_eq!(k.live_threads(), 4, "all four parked in recv");
    assert_eq!(
        steps.load(Ordering::SeqCst),
        3,
        "one step each, to the recv"
    );
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(k);
    assert_eq!(steps.load(Ordering::SeqCst), 3, "teardown stepped a body");
    assert_eq!(drops.load(Ordering::SeqCst), 3, "teardown leaked a body");
}

#[test]
fn an_exited_body_is_dropped_at_once() {
    let steps = Arc::new(AtomicUsize::new(0));
    let drops = Arc::new(AtomicUsize::new(0));
    let mut k = Kernel::new(KernelConfig::for_tests());
    let body = Sleeper {
        steps: Arc::clone(&steps),
        drops: Arc::clone(&drops),
    };
    let pid = k.admit_inline("sleeper", "", None, Box::new(body));
    k.run();
    assert!(k.cancel_process(pid));
    assert_eq!(k.run(), 1, "woken with `Cancelled`, it exits");
    assert_eq!(steps.load(Ordering::SeqCst), 2);
    // Its record stays until reaped; its state does not: the body, the
    // live half of its table entry (it is a zombie) and its thread's entry
    // are gone.
    assert_eq!(
        k.record(pid).expect("record").status,
        ExitStatus::Error(SysError::Cancelled)
    );
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    let zombies = k.metrics_registry().gauge("kernel.procs.zombies");
    assert_eq!(zombies.get(), 1);
    assert!(!k.cancel_process(pid), "nothing left to cancel");
    let joiner = k.admit_inline("joiner", "", None, Box::new(Joiner(Tid(1))));
    k.run();
    assert_eq!(k.record(joiner).expect("record").output, "not found");
    assert_eq!(k.reap_exited(), 2);
    assert_eq!(zombies.get(), 0);
    assert!(k.record(pid).is_none());
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
    // Thread 1 parks in `recv`; thread 2, its child, exits at once.
    let parent = k.spawn_process("parent", "", |ctx| {
        ctx.spawn(|_| Ok(()))?;
        ctx.recv_msg().map(drop)
    });
    k.run();
    let early = k.admit_inline("early", "", None, Box::new(Joiner(Tid(2))));
    k.run();
    assert_eq!(k.record(early).expect("record").output, "joined Ok");
    assert!(k.cancel_process(parent));
    k.run();
    let late = k.admit_inline("late", "", None, Box::new(Joiner(Tid(2))));
    k.run();
    assert_eq!(k.record(late).expect("record").output, "not found");
}
