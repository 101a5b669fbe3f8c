//! A process-global pool of reusable OS threads for *hosted* LIP bodies.
//!
//! Hosts native closures only: a blocking `FnOnce(&mut Ctx)` needs a stack
//! to block on, and this pool is where it gets one. Inline bodies — every
//! served LipScript program — never come here; the kernel steps them on its
//! own thread (`crate::syscall::InlineBody`), so a server that runs only
//! those never spawns a worker.
//!
//! Spawning a fresh OS thread per program costs tens of microseconds of
//! clone/page-table work, which dominates kernel wall time once a run sweeps
//! hundreds of short programs. Which OS thread *hosts* a LIP body is
//! invisible to the deterministic event loop — the kernel serialises
//! execution through per-thread reply channels — so workers are fungible and
//! are parked and reused across programs and across kernel instances.
//!
//! The pool grows on demand (one worker per concurrently-live LIP at peak)
//! and never shrinks; workers park on their private job channel between
//! bodies and re-register on the idle list when a body finishes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crossbeam::channel::{unbounded, Receiver, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;
type JobSlot = (Job, Sender<()>);

struct Pool {
    /// Senders for workers currently parked and ready for a body.
    idle: Mutex<Vec<Sender<JobSlot>>>,
    /// Total workers ever spawned (names only).
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        idle: Mutex::new(Vec::new()),
        spawned: AtomicUsize::new(0),
    })
}

/// Handle to a submitted LIP body. [`JobHandle::join`] blocks until the body
/// has fully finished (including shutdown unwinding), standing in for
/// `JoinHandle::join` on a dedicated thread.
pub(crate) struct JobHandle {
    done: Receiver<()>,
}

impl JobHandle {
    pub(crate) fn join(self) {
        // The job's sender drops when the body finishes; a disconnect is the
        // completion signal, so either result means "done".
        let _ = self.done.recv();
    }
}

/// Runs `job` on a pooled worker thread, growing the pool if every worker is
/// busy hosting a live LIP.
pub(crate) fn spawn_lip(job: Job) -> JobHandle {
    let p = pool();
    let (done_tx, done_rx) = unbounded();
    let parked = {
        // lint:allow(k1): poisoning is impossible — nothing panics while the
        // idle list is held
        let mut idle = p.idle.lock().expect("LIP pool idle list poisoned");
        idle.pop()
    };
    let slot = match parked {
        Some(tx) => tx,
        None => {
            let (tx, rx) = unbounded::<JobSlot>();
            let self_tx = tx.clone();
            let n = p.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("lip-worker-{n}"))
                .stack_size(512 * 1024)
                .spawn(move || worker_loop(rx, self_tx))
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

fn worker_loop(rx: Receiver<JobSlot>, self_tx: Sender<JobSlot>) {
    while let Ok((job, done)) = rx.recv() {
        // LIP bodies unwind with `ShutdownSignal` on kernel teardown (and may
        // panic arbitrarily — `thread_main` reports those as `Crashed` before
        // unwinding reaches here); either way the worker survives for reuse.
        let _ = catch_unwind(AssertUnwindSafe(job));
        drop(done);
        // lint:allow(k1): see `spawn_lip` — the idle list cannot be poisoned
        let mut idle = pool().idle.lock().expect("LIP pool idle list poisoned");
        idle.push(self_tx.clone());
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
                spawn_lip(Box::new(move || {
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
        // than growing the pool per job.
        let before = pool().spawned.load(Ordering::Relaxed);
        for _ in 0..16 {
            spawn_lip(Box::new(|| {})).join();
        }
        let grown = pool().spawned.load(Ordering::Relaxed) - before;
        assert!(grown <= 2, "sequential jobs grew the pool by {grown}");
    }
}
