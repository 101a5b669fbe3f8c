//! The process table: what the kernel keeps per program and per LIP
//! thread, and the one path a process takes through it.
//!
//! **install** enters a process (record, name binding, quota, deadline,
//! live state), **start** runs a thread of it, **exit** takes a thread out,
//! **finalize** closes the process when its last thread is gone, and
//! **reap** forgets it. Every entry point — the five public `spawn_*` /
//! `schedule_*` names, a scheduled arrival firing, recovery re-admitting a
//! journalled program — is a caller of `install` and `start`; whether a
//! process is durable is one field set at `install`, read by
//! `Kernel::journal` and by the spawn/exit frames written here.
//!
//! What exit keeps, what reap removes: between the last two a process is a
//! *zombie*, as on Unix — finalize drops everything it needed to run (its
//! [`Live`] half: mailbox, waiters, limits, argument string, sequence
//! counters), its threads' table entries and its name binding, and keeps
//! what somebody may still ask for: the [`ProcessRecord`] (status, usage,
//! output, times) and whether it was durable. A kernel nobody reaps grows
//! by a record per program served, not by the run-time state of each.
//! `Kernel::reap_exited` removes the zombies.

use std::collections::VecDeque;

use crossbeam::channel::{unbounded, Sender};
use symphony_kvfs::{FileId, OwnerId};
use symphony_sim::SimTime;
use symphony_telemetry::{EdgeKind, EventKind};

use crate::kernel::{Event, Kernel, ProgramImage, SessionEvent};
use crate::syscall::{thread_main, Body, Ctx, InlineBody, SysReply, ThreadEnv};
use crate::types::{ExitStatus, Limits, Pid, ProcessRecord, ProcessUsage, SysError, Tid};
use crate::wal::{self, EffectClass, WalRecord};

/// Where a live thread's body sits between system calls. `Kernel::resume`
/// is the only code that tells the two kinds apart.
pub(crate) enum Seat {
    /// On a pool worker, blocked on its reply channel.
    Hosted {
        reply_tx: Sender<SysReply>,
        handle: crate::lip_pool::JobHandle,
    },
    /// In the thread table, as a value the kernel steps itself. The
    /// environment is boxed so that the entry of a thread long exited —
    /// tables are only emptied by `reap_exited` — is no bigger for it.
    Inline {
        body: Box<dyn InlineBody>,
        env: Box<ThreadEnv>,
    },
}

pub(crate) struct ThreadState {
    pub(crate) pid: Pid,
    /// `None` once the thread has exited, so a finished thread's table
    /// entry keeps neither a channel nor a program state allocated.
    pub(crate) seat: Option<Seat>,
    pub(crate) status: Option<ExitStatus>,
    pub(crate) join_waiters: Vec<Tid>,
    /// Name of the syscall this thread is currently parked in, for the
    /// telemetry `sys:*` span (closed when the reply is delivered).
    pub(crate) open_syscall: Option<&'static str>,
}

pub(crate) struct Proc {
    /// What [`Kernel::record`] hands out, kept after exit until reaped.
    pub(crate) record: ProcessRecord,
    /// Spawn, effects and exit are journalled to the WAL, and the program
    /// is resumable after a crash. Set once, at `install`; outlives the
    /// process, because a send to a finished durable peer is still
    /// journalled.
    pub(crate) durable: bool,
    /// What the process needs while it runs; `None` once it is finalized,
    /// which is what makes it a zombie.
    pub(crate) live: Option<Box<Live>>,
}

impl Proc {
    /// The two halves of a process that has not exited.
    pub(crate) fn halves(&mut self) -> Option<(&mut ProcessRecord, &mut Live)> {
        Some((&mut self.record, self.live.as_deref_mut()?))
    }

    /// The live half of a process that has not exited.
    pub(crate) fn live_mut(&mut self) -> Option<&mut Live> {
        self.live.as_deref_mut()
    }
}

/// The half of a [`Proc`] that dies with the process.
pub(crate) struct Live {
    /// `Tid(0)` until the process starts: its first thread is the main one.
    pub(crate) main_tid: Tid,
    /// Every thread the process has started, exited ones included: their
    /// table entries (a joiner may want an exited thread's status) go when
    /// the process does.
    pub(crate) tids: Vec<Tid>,
    pub(crate) args: String,
    pub(crate) live_threads: u32,
    /// Undelivered messages: `(sender, payload, sent_at, sender_tid)`. The
    /// send context feeds the causal IPC edge when a later `recv` pops the
    /// entry; `sender_tid` 0 marks a mailbox rebuilt from the WAL (the
    /// pre-crash sender thread is unknown, so no edge is emitted).
    pub(crate) mailbox: VecDeque<(Pid, String, SimTime, u64)>,
    /// Threads parked in `recv`, with the effect-sequence id their eventual
    /// delivery will be journalled under.
    pub(crate) recv_waiters: VecDeque<(Tid, u64)>,
    pub(crate) limits: Limits,
    pub(crate) io_waiting: u32,
    pub(crate) offloaded: Vec<FileId>,
    /// When the D2H copies of `offloaded` complete; the restore cannot
    /// start reading them back earlier.
    pub(crate) offload_done: SimTime,
    /// Absolute virtual deadline (arrival + `Limits::deadline`).
    pub(crate) deadline_at: Option<SimTime>,
    /// Deadline already detected (counts once per process).
    pub(crate) deadline_hit: bool,
    /// Cancelled from outside ([`Kernel::cancel_process`]): every
    /// subsequent syscall fails with [`SysError::Cancelled`].
    pub(crate) cancelled: bool,
    /// First `pred` completion observed (TTFT recorded).
    pub(crate) ttft_done: bool,
    /// Completion time of the last `pred` (inter-token latency).
    pub(crate) last_pred_done: Option<SimTime>,
    /// Next sequence id per effect class. A re-executed program draws the
    /// same ids in the same order, which is how journalled effects are
    /// matched back to their call sites (and tool side-effects deduplicated).
    seqs: [u64; EffectClass::COUNT],
}

impl Live {
    /// Draws the next sequence id of `class`.
    pub(crate) fn next_seq(&mut self, class: EffectClass) -> u64 {
        let slot = &mut self.seqs[class.index()];
        *slot += 1;
        *slot - 1
    }
}

impl Kernel {
    // ---- admission ---------------------------------------------------------------

    /// Spawns a LIP immediately (at the current virtual time) with the
    /// default limits.
    pub fn spawn_process<F>(&mut self, name: &str, args: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        self.spawn_process_with_limits(name, args, self.default_limits, f)
    }

    /// Spawns a LIP immediately with explicit limits.
    pub fn spawn_process_with_limits<F>(
        &mut self,
        name: &str,
        args: &str,
        limits: Limits,
        f: F,
    ) -> Pid
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        let body = Body::Hosted(Box::new(f));
        self.admit(name, args, None, limits, false, body)
    }

    /// Schedules a LIP to arrive at a future virtual time (workload driving).
    pub fn schedule_process<F>(&mut self, at: SimTime, name: &str, args: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        let body = Body::Hosted(Box::new(f));
        self.admit(name, args, Some(at), self.default_limits, false, body)
    }

    /// Admits a LIP whose body the kernel steps on its own thread — now,
    /// or at the virtual arrival `at` — with the default limits. This is
    /// how a served LipScript program enters: no OS thread is involved at
    /// any point of its life.
    pub fn admit_inline(
        &mut self,
        name: &str,
        args: &str,
        at: Option<SimTime>,
        body: Box<dyn InlineBody>,
    ) -> Pid {
        let body = Body::Inline(body);
        self.admit(name, args, at, self.default_limits, false, body)
    }

    /// Spawns a durable LIP immediately: its spawn and effectful syscalls
    /// are journalled to the WAL so [`Kernel::recover`] +
    /// [`Kernel::resume_programs`] can re-execute it deterministically
    /// after a crash. The image must be re-invocable; see [`ProgramImage`].
    pub fn spawn_durable(&mut self, name: &str, args: &str, image: ProgramImage) -> Pid {
        let body = Body::Hosted(Box::new(move |ctx: &mut Ctx| image(ctx)));
        self.admit(name, args, None, self.default_limits, true, body)
    }

    /// Schedules a durable LIP for a future virtual arrival. The schedule
    /// itself is journalled — with a main thread id pre-assigned *now*, so
    /// the program's per-thread RNG stream is identical whether or not a
    /// crash intervenes before it starts — and a crash before the arrival
    /// does not drop the program.
    pub fn schedule_durable(
        &mut self,
        at: SimTime,
        name: &str,
        args: &str,
        image: ProgramImage,
    ) -> Pid {
        let body = Body::Hosted(Box::new(move |ctx: &mut Ctx| image(ctx)));
        self.admit(name, args, Some(at), self.default_limits, true, body)
    }

    /// The one way in: installs the process, then starts it now or
    /// schedules its arrival for `at`.
    fn admit(
        &mut self,
        name: &str,
        args: &str,
        at: Option<SimTime>,
        limits: Limits,
        durable: bool,
        body: Body,
    ) -> Pid {
        let now = self.events.now();
        let pid = self.install(None, name, args, at.unwrap_or(now), limits, durable);
        let Some(at) = at else {
            self.start(pid, None, body);
            return pid;
        };
        // Pre-assign a durable arrival's main tid: recovery re-admits the
        // program from this frame and must fork the same RNG stream.
        let main_tid = durable.then(|| self.alloc_tid());
        if let Some(tid) = main_tid {
            self.wal_append(WalRecord::ProcSched {
                at: now,
                pid: pid.0,
                main_tid: tid.0,
                arrival: at,
                name: name.to_string(),
                args: args.to_string(),
                limits,
            });
        }
        let ev = Event::SpawnProgram {
            pid,
            body,
            main_tid,
        };
        self.events.schedule(at, ev);
        pid
    }

    fn alloc_tid(&mut self) -> Tid {
        self.next_tid += 1;
        Tid(self.next_tid - 1)
    }

    /// Enters a process into the table under `pid` (allocated when `None`;
    /// recovery re-installs journalled programs under their old one):
    /// record, name binding, KV quota, deadline event and live state. The
    /// only constructor of a [`Proc`] and of the [`ProcessRecord`] in it.
    pub(crate) fn install(
        &mut self,
        pid: Option<Pid>,
        name: &str,
        args: &str,
        arrival: SimTime,
        limits: Limits,
        durable: bool,
    ) -> Pid {
        let pid = pid.unwrap_or_else(|| {
            self.next_pid += 1;
            Pid(self.next_pid - 1)
        });
        self.names.insert(name.to_string(), pid);
        if let Some(q) = limits.kv_quota_pages {
            self.store.set_quota(OwnerId(pid.0), Some(q));
        }
        let deadline_at = limits.deadline.map(|d| arrival + d);
        if let Some(t) = deadline_at {
            // A recovered program's deadline may lie behind the restored
            // clock; it is then due at once.
            let due = t.max(self.events.now());
            self.events.schedule(due, Event::DeadlineCheck { pid });
        }
        let record = ProcessRecord {
            pid,
            name: name.to_string(),
            spawned_at: arrival,
            exited_at: None,
            status: ExitStatus::Ok,
            output: String::new(),
            usage: ProcessUsage::default(),
        };
        let live = Live {
            main_tid: Tid(0),
            tids: Vec::new(),
            args: args.to_string(),
            live_threads: 0,
            mailbox: VecDeque::new(),
            recv_waiters: VecDeque::new(),
            limits,
            io_waiting: 0,
            offloaded: Vec::new(),
            offload_done: SimTime::ZERO,
            deadline_at,
            deadline_hit: false,
            cancelled: false,
            ttft_done: false,
            last_pred_done: None,
            seqs: [0; EffectClass::COUNT],
        };
        let proc = Proc {
            record,
            durable,
            live: Some(Box::new(live)),
        };
        self.procs.insert(pid.0, proc);
        pid
    }

    /// Starts one LIP thread of `pid` running `body`, under `tid` when given
    /// (a journalled schedule or recovery pins it: tid identity pins the
    /// thread's RNG stream). The first thread of a process is its main
    /// thread, and starting it is what starts the process: the spawn event
    /// and, for a durable process not already in the log, the spawn frame.
    /// `None` for a pid the table does not hold.
    pub(crate) fn start(&mut self, pid: Pid, tid: Option<Tid>, body: Body) -> Option<Tid> {
        let now = self.events.now();
        let tid = tid.unwrap_or_else(|| self.alloc_tid());
        let Some(proc) = self.procs.get_mut(pid.0) else {
            debug_assert!(false, "start: unknown pid {}", pid.0);
            return None;
        };
        let durable = proc.durable;
        let (record, proc) = proc.halves()?;
        let is_main = proc.main_tid == Tid(0);
        if is_main {
            proc.main_tid = tid;
            if self.bus.is_enabled() {
                let name = record.name.clone();
                self.bus
                    .emit(now, move || EventKind::ProcessSpawn { pid: pid.0, name });
            }
        }
        let journal_spawn = is_main && durable;
        proc.tids.push(tid);
        proc.live_threads += 1;
        record.usage.threads_spawned += 1;
        // Sibling threads inherit the process's args string.
        let args = proc.args.clone();
        let env = ThreadEnv::new(
            tid,
            pid,
            args,
            self.rng.fork(tid.0),
            self.tokenizer.specials(),
        );
        let seat = match body {
            Body::Hosted(f) => {
                let (reply_tx, reply_rx) = unbounded();
                let ctx = Ctx::new(env, self.up_tx.clone(), reply_rx);
                let handle = crate::lip_pool::spawn_lip(Box::new(move || thread_main(ctx, f)));
                self.kmetrics.hosted_threads.add(1);
                Seat::Hosted { reply_tx, handle }
            }
            Body::Inline(body) => Seat::Inline {
                body,
                env: Box::new(env),
            },
        };
        self.threads.insert(
            tid.0,
            ThreadState {
                pid,
                seat: Some(seat),
                status: None,
                join_waiters: Vec::new(),
                open_syscall: None,
            },
        );
        self.bus.emit(now, || EventKind::ThreadSpawn {
            pid: pid.0,
            tid: tid.0,
        });
        self.live_threads += 1;
        self.ready.push_back((tid, SysReply::Start));
        // A re-execution's spawn frame is already in the log it replays.
        let replayed = |r: &wal::Replay| r.procs.contains_key(&pid.0);
        if journal_spawn && !self.replay.as_ref().is_some_and(replayed) {
            let (record, proc) = self.procs.get_mut(pid.0)?.halves()?;
            let rec = WalRecord::ProcSpawn {
                at: now,
                pid: pid.0,
                main_tid: tid.0,
                name: record.name.clone(),
                args: proc.args.clone(),
                limits: proc.limits,
            };
            self.wal_append(rec);
        }
        Some(tid)
    }

    // ---- records -----------------------------------------------------------------

    /// The record for a process (live, or exited and not yet reaped).
    pub fn record(&self, pid: Pid) -> Option<&ProcessRecord> {
        self.procs.get(pid.0).map(|p| &p.record)
    }

    /// All process records, in PID order.
    pub fn records(&self) -> impl Iterator<Item = &ProcessRecord> {
        self.procs.values().map(|p| &p.record)
    }

    /// Forgets every process that has exited: removes the zombies, that is
    /// their records — all that exit left of them (see the module docs).
    /// Returns how many were dropped. The kernel keeps finished processes
    /// so callers can read [`Kernel::record`] after a run; a server that
    /// stays up calls this once their outcomes are reported, or the table
    /// grows by a record (and its output) with every program ever served.
    pub fn reap_exited(&mut self) -> usize {
        let zombies: Vec<u64> = self
            .procs
            .iter()
            .filter(|(_, p)| p.live.is_none())
            .map(|(pid, _)| pid)
            .collect();
        for &pid in &zombies {
            self.procs.remove(pid);
        }
        self.kmetrics.zombies.add(-(zombies.len() as i64));
        zombies.len()
    }

    /// Makes the table entry of `pid` a zombie: drops its live half, its
    /// threads' table entries and its name binding (which `lookup` would no
    /// longer answer with anyway), and gives back what its output string
    /// had reserved beyond its text.
    pub(crate) fn bury(&mut self, pid: Pid) {
        let Some(proc) = self.procs.get_mut(pid.0) else {
            return;
        };
        let Some(live) = proc.live.take() else {
            return;
        };
        proc.record.output.shrink_to_fit();
        if self.names.get(&proc.record.name) == Some(&pid) {
            self.names.remove(&proc.record.name);
        }
        for tid in live.tids {
            self.threads.remove(tid.0);
        }
        self.kmetrics.zombies.add(1);
    }

    // ---- cancellation and deadlines ------------------------------------------------

    /// Cancels a running process from outside (session teardown at the
    /// serving layer). Mirrors deadline enforcement: threads blocked in
    /// `recv_msg` are woken with [`SysError::Cancelled`], and every
    /// subsequent syscall from any of the process's threads fails with the
    /// same error, driving the program to a prompt, typed exit. Returns
    /// `false` if the pid is unknown or already finished.
    pub fn cancel_process(&mut self, pid: Pid) -> bool {
        let Some(proc) = self.procs.get_mut(pid.0).and_then(Proc::live_mut) else {
            return false;
        };
        if proc.cancelled {
            return false;
        }
        proc.cancelled = true;
        let waiters = std::mem::take(&mut proc.recv_waiters);
        for (w, _seq) in waiters {
            self.complete(w, SysReply::Err(SysError::Cancelled));
        }
        true
    }

    /// Fires when a process's deadline passes: mark it, and fail its
    /// threads blocked in `recv_msg` (other blocked threads — pooled
    /// `pred`s, in-flight I/O, sleeps — already have completions scheduled
    /// and hit the syscall-entry deadline check on their next call).
    pub(crate) fn enforce_deadline(&mut self, pid: Pid) {
        let Some(proc) = self.procs.get_mut(pid.0).and_then(Proc::live_mut) else {
            return;
        };
        let first_hit = !proc.deadline_hit;
        proc.deadline_hit = true;
        let waiters = std::mem::take(&mut proc.recv_waiters);
        if first_hit {
            self.res_counters.deadline_kills.inc();
            let at = self.events.now();
            self.bus.emit(at, || EventKind::DeadlineHit { pid: pid.0 });
        }
        for (w, _seq) in waiters {
            self.complete(w, SysReply::Err(SysError::DeadlineExceeded));
        }
    }

    // ---- exit and cleanup ----------------------------------------------------------

    pub(crate) fn handle_exit(&mut self, tid: Tid, status: ExitStatus) {
        let (pid, waiters, seat) = {
            // An exit from a thread the kernel never tracked has nothing to
            // clean up; the count is only decremented on a real exit.
            let Some(ts) = self.threads.get_mut(tid.0) else {
                debug_assert!(false, "exit from unknown tid {}", tid.0);
                return;
            };
            ts.status = Some(status.clone());
            (ts.pid, std::mem::take(&mut ts.join_waiters), ts.seat.take())
        };
        self.live_threads -= 1;
        if let Some(Seat::Hosted { handle, .. }) = seat {
            handle.join();
            self.kmetrics.hosted_threads.add(-1);
        }
        for w in waiters {
            if self.causal {
                // Join edge: this thread's exit unblocks the joiner.
                let at = self.events.now();
                let dst_pid = self.threads.get(w.0).map(|t| t.pid.0).unwrap_or(pid.0);
                self.bus.emit(at, || EventKind::CausalEdge {
                    edge: EdgeKind::Join,
                    src_pid: pid.0,
                    src_tid: tid.0,
                    src_at: at,
                    dst_pid,
                    dst_tid: w.0,
                });
            }
            self.complete(w, SysReply::Joined(status.clone()));
        }
        let Some((record, proc)) = self.procs.get_mut(pid.0).and_then(Proc::halves) else {
            debug_assert!(false, "exit for unknown pid {}", pid.0);
            return;
        };
        proc.live_threads -= 1;
        let process_done = proc.live_threads == 0;
        let ok = status.is_ok();
        if proc.main_tid == tid {
            record.status = status;
        }
        let at = self.events.now();
        self.bus.emit(at, || EventKind::ThreadExit {
            pid: pid.0,
            tid: tid.0,
            ok,
        });
        if process_done {
            self.finalize_process(pid);
        }
    }

    /// Reclaims a finished process's resources: releases its locks,
    /// removes its *unnamed* KV files — files published under a path persist
    /// beyond the process lifetime (§4.2) — and leaves a zombie in the
    /// table ([`Kernel::bury`]).
    fn finalize_process(&mut self, pid: Pid) {
        let owner = OwnerId(pid.0);
        self.store.release_locks(owner);
        self.cqueue.forget(pid.0);
        for f in self.store.unlinked_files_of(owner) {
            let _ = self.store.remove(f, OwnerId::ADMIN);
        }
        let now = self.events.now();
        self.bury(pid);
        let Some(proc) = self.procs.get_mut(pid.0) else {
            debug_assert!(false, "finalize for unknown pid {}", pid.0);
            return;
        };
        self.exited += 1;
        let rec = &mut proc.record;
        rec.exited_at = Some(now);
        let (status, usage) = (rec.status.clone(), rec.usage);
        if proc.durable {
            // A durable exit frame makes the whole program's outcome
            // durable: recovery restores it as a record, no re-execution.
            let output = rec.output.clone();
            self.wal_append(WalRecord::ProcExit {
                at: now,
                pid: pid.0,
                status: status.clone(),
                output,
                usage,
            });
        }
        let ok = status.is_ok();
        self.bus
            .emit(now, || EventKind::ProcessExit { pid: pid.0, ok });
        self.notify_session(SessionEvent::Exited {
            pid,
            at: now,
            status,
            usage,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use symphony_sim::SimDuration;

    use super::*;
    use crate::kernel::KernelConfig;
    use crate::wal::WalConfig;

    #[test]
    fn reaping_leaves_nothing_keyed_by_a_durable_process() {
        let path = std::env::temp_dir().join(format!("symphony-proc-{}.wal", std::process::id()));
        let mut cfg = KernelConfig::for_tests();
        cfg.wal = Some(WalConfig::new(&path));
        let mut k = Kernel::new(cfg);
        let image: ProgramImage = Arc::new(|ctx| {
            let prompt = ctx.tokenize(&ctx.args())?;
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &prompt, 0)?;
            ctx.emit("done")
        });
        for i in 0..1000 {
            let at = SimTime::ZERO + SimDuration::from_micros(200 * i);
            let pid = k.schedule_durable(at, &format!("p{i}"), "a b c", image.clone());
            k.set_cost_hint(pid, Some(3));
        }
        assert_eq!(k.run(), 1000);
        assert!(k.records().all(|r| r.status.is_ok()));
        // Exit left zombies: a record each, durable still, and nothing else.
        assert!(k.names.is_empty() && k.threads.is_empty());
        assert!(k.procs.values().all(|p| p.live.is_none()));
        assert!(k.is_durable(Pid(1)));
        assert_eq!(k.kmetrics.zombies.get(), 1000);
        assert_eq!(k.reap_exited(), 1000);
        assert_eq!(k.kmetrics.zombies.get(), 0);
        assert!(k.procs.is_empty() && k.names.is_empty() && k.threads.is_empty());
        assert!(k.store.list_files().is_empty());
        for pid in 1..=1000 {
            assert_eq!(k.store.quota_used(OwnerId(pid)), 0);
            assert_eq!(k.cqueue.static_hint_of(pid), None);
            assert!(!k.is_durable(Pid(pid)));
        }
        std::fs::remove_file(&path).ok();
    }
}
