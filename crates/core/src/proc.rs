//! The process table: what the kernel keeps per program and per LIP
//! thread, and the one path a process takes through it.
//!
//! **install** enters a process (record, name binding, quota, deadline,
//! live state), **start** runs a thread of it, **exit** takes a thread out,
//! **finalize** closes the process when its last thread is gone, and
//! **reap** forgets it. A running thread's [`Seat`] is its body and its
//! environment, one shape for every kind of body: start makes a native
//! closure a body (`crate::hosted`), and exit drops the body, which is all
//! it takes to give back whatever the body held. A new program enters
//! through `Kernel::admit` (its two shorthands forward to it), a
//! journalled one through recovery's `readmit`, and a scheduled arrival
//! firing starts its main thread: each is a caller of `install` and
//! `start`. Whether a process is durable is one field set at `install`,
//! read by `Kernel::journal` and by the admission/exit frames written
//! here. A durable program's admission frame is written once, when `admit`
//! installs it: `start` knows nothing of the WAL.
//!
//! What exit keeps, what reap removes: between the last two a process is a
//! *zombie*, as on Unix — finalize drops everything it needed to run (its
//! [`Live`] half: mailbox, waiters, limits, argument string, sequence
//! counters), its threads' table entries and its name binding, and keeps
//! what somebody may still ask for: the [`ProcessRecord`] (status, usage,
//! output, times) and whether it was durable. Finalize also adds the
//! process to the `kernel.procs.exited` and `kernel.usage.*` counters, so
//! the totals over every record outlive the records.
//!
//! Who reaps: on a kernel with a session sink, finalize itself. The sink's
//! `SessionEvent::Exited` carries the exit whole — its stream went out as
//! `Emitted` events, and the event has the status and usage — so the
//! process leaves the table as it exits, as a Unix child of a parent that
//! set `SA_NOCLDWAIT` leaves no zombie: `Kernel::record` is `None` for it
//! from then on, and the table holds the live processes and nothing else,
//! whoever drives the kernel (the serving core, or a durable harness that
//! takes its sessions' events straight from the sink). A kernel without a
//! sink keeps each zombie for the life of the kernel, so a harness can read
//! `Kernel::record` after a run. So do zombies buried before a sink was
//! installed, and the records `Kernel::recover` restores (it builds a
//! kernel with no sink).

use std::collections::VecDeque;

use symphony_kvfs::{FileId, OwnerId};
use symphony_sim::{Rng, SimTime};
use symphony_telemetry::{EdgeKind, EventKind};

use crate::hosted::Hosted;
use crate::kernel::{Event, Kernel, ProgramImage, SessionEvent};
use crate::syscall::{Body, Ctx, InlineBody, SysReply, ThreadEnv};
use crate::types::{
    ExitStatus, Limits, Pid, ProcessRecord, ProcessUsage, SpawnOpts, SysError, Tid,
};
use crate::wal::{self, EffectClass, WalRecord};

/// A live thread's body between system calls: a value the kernel steps
/// itself (`Kernel::resume`), whatever kind of program it holds. The
/// environment is boxed so that the entry of a thread long exited — it
/// stays until its whole process does — is no bigger for it.
pub(crate) struct Seat {
    pub(crate) body: Box<dyn InlineBody>,
    pub(crate) env: Box<ThreadEnv>,
}

pub(crate) struct ThreadState {
    pub(crate) pid: Pid,
    /// `None` once the thread has exited, so a finished thread's table
    /// entry keeps no program state allocated.
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
    /// is resumable after a crash. Set once, at `install`. A zombie keeps
    /// it, so a send to a finished durable peer is journalled while the
    /// zombie lasts, even from a sender that is not durable. On a kernel
    /// with a session sink there is no zombie, and that sender's frame is
    /// not written: recovery never reads it (its sender is not resumed,
    /// and it says `delivered: false`), and the reply is `NotFound` either
    /// way.
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
    /// entry.
    pub(crate) mailbox: VecDeque<(Pid, String, SimTime, u64)>,
    /// Threads parked in `recv`, in arrival order.
    pub(crate) recv_waiters: VecDeque<Tid>,
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
    /// Next `pred` sequence id, one sequence for all the process's threads.
    pred_seq: u64,
    /// Next `recv` sequence id, likewise: recv *k* is answered on replay
    /// by the *k*-th message delivered to the process.
    recv_seq: u64,
    /// Which of those `pred`s completed, as the next checkpoint lists it
    /// (kept for a durable process only).
    pub(crate) preds: wal::PredRecord,
}

impl Live {
    /// Draws the next sequence id of `class`.
    pub(crate) fn next_seq(&mut self, class: EffectClass) -> u64 {
        let slot = &mut self.seqs[class.index()];
        *slot += 1;
        *slot - 1
    }

    /// Draws the next `pred` sequence id.
    pub(crate) fn next_pred_seq(&mut self) -> u64 {
        self.pred_seq += 1;
        self.pred_seq - 1
    }

    /// Draws the next `recv` sequence id.
    pub(crate) fn next_recv_seq(&mut self) -> u64 {
        self.recv_seq += 1;
        self.recv_seq - 1
    }
}

impl Kernel {
    // ---- admission ---------------------------------------------------------------

    /// Spawns a native LIP now, with the default limits: the quickstart
    /// shorthand for [`Kernel::admit`] with [`SpawnOpts::default`].
    pub fn spawn_process<F>(&mut self, name: &str, args: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        self.admit(name, args, SpawnOpts::default(), Body::hosted(f))
    }

    /// Schedules a durable image for a virtual arrival: [`Kernel::admit`]
    /// with `at` and `durable` set.
    pub fn schedule_durable(
        &mut self,
        at: SimTime,
        name: &str,
        args: &str,
        image: ProgramImage,
    ) -> Pid {
        let opts = SpawnOpts {
            durable: true,
            ..SpawnOpts::at(at)
        };
        self.admit(name, args, opts, Body::from(image))
    }

    /// The one way a new program enters the kernel, whatever its body:
    /// installs the process, journals its admission if `opts.durable`, then
    /// starts its main thread now (`opts.at` is `None`) or at its arrival.
    ///
    /// The arrival is `max(at, now)`: a time already past means now, for
    /// the record, the deadline and the admission frame alike. A durable
    /// program is journalled when it is admitted, so a crash before its
    /// arrival does not drop it: recovery re-admits it under the same
    /// pid, and its threads draw the same RNG streams either way (they are
    /// derived from the pid, see `Kernel::start`). A body that is data
    /// gives its image to the admission frame ([`InlineBody::take_image`]),
    /// and recovery rebuilds it from the log; for one that is code,
    /// recovery's resolver must know the program by its name.
    ///
    /// [`InlineBody::take_image`]: crate::InlineBody::take_image
    pub fn admit(&mut self, name: &str, args: &str, opts: SpawnOpts, mut body: Body) -> Pid {
        let now = self.events.now();
        let arrival = opts.at.map_or(now, |at| at.max(now));
        let pid = self.install(None, name, args, arrival, opts.limits, opts.durable);
        if opts.durable {
            self.wal_append(WalRecord::ProcSpawn {
                at: now,
                pid: pid.0,
                arrival,
                name: name.to_string(),
                args: args.to_string(),
                limits: opts.limits,
                image: match &mut body {
                    Body::Inline(body) => body.take_image(),
                    Body::Hosted(_) => None,
                },
            });
        }
        if opts.at.is_some() {
            self.events
                .schedule(arrival, Event::SpawnProgram { pid, body });
        } else {
            self.start(pid, body);
        }
        pid
    }

    /// Re-admits a journalled durable program under its old pid (recovery's
    /// path; its admission is in the log it replays): at once if its
    /// arrival is at or before the restored clock, else then.
    pub(crate) fn readmit(&mut self, pid: Pid, rp: &wal::ReplayProc, body: Body) {
        let (arrival, limits) = (rp.arrival, rp.limits);
        self.install(Some(pid), &rp.name, &rp.args, arrival, limits, true);
        if arrival > self.events.now() {
            self.events
                .schedule(arrival, Event::SpawnProgram { pid, body });
        } else {
            self.start(pid, body);
        }
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
            pred_seq: 0,
            recv_seq: 0,
            preds: wal::PredRecord::default(),
        };
        let proc = Proc {
            record,
            durable,
            live: Some(Box::new(live)),
        };
        self.procs.insert(pid.0, proc);
        pid
    }

    /// Starts one LIP thread of `pid` running `body` under a fresh tid. The
    /// first thread of a process is its main thread, and starting it is
    /// what starts the process: the spawn event. The thread's RNG stream is
    /// `Rng::derive(seed, [pid, ordinal])`, the ordinal being its start
    /// order within the process (main 0, siblings 1, 2, …): a function of
    /// who the thread is, not of how many threads the kernel started
    /// before it, so a re-executed program draws what it drew before a
    /// crash. The tid is a handle for this execution only; recovery hands
    /// out fresh ones. `None` for a pid the table does not hold.
    pub(crate) fn start(&mut self, pid: Pid, body: Body) -> Option<Tid> {
        let now = self.events.now();
        let Some(proc) = self.procs.get_mut(pid.0) else {
            debug_assert!(false, "start: unknown pid {}", pid.0);
            return None;
        };
        let (record, proc) = proc.halves()?;
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        let ordinal = record.usage.threads_spawned;
        record.usage.threads_spawned += 1;
        let is_main = ordinal == 0;
        if is_main {
            proc.main_tid = tid;
            if self.bus.is_enabled() {
                let name = record.name.clone();
                self.bus
                    .emit(now, move || EventKind::ProcessSpawn { pid: pid.0, name });
            }
        }
        proc.tids.push(tid);
        proc.live_threads += 1;
        // Sibling threads inherit the process's args string.
        let args = proc.args.clone();
        let rng = Rng::derive(self.seed, &[pid.0, ordinal.into()]);
        let env = ThreadEnv::new(tid, pid, args, rng, self.tokenizer.specials());
        let body = match body {
            Body::Hosted(f) => Box::new(Hosted::spawn(f, env.clone(), &self.kmetrics.hosted)),
            Body::Inline(body) => body,
        };
        let seat = Seat {
            body,
            env: Box::new(env),
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
        Some(tid)
    }

    // ---- records -----------------------------------------------------------------

    /// The record for a process (live, or exited and not yet reaped). A
    /// kernel with a session sink keeps none once the process has exited:
    /// the sink's [`SessionEvent::Exited`] was its reap.
    pub fn record(&self, pid: Pid) -> Option<&ProcessRecord> {
        self.procs.get(pid.0).map(|p| &p.record)
    }

    /// All process records, in PID order.
    pub fn records(&self) -> impl Iterator<Item = &ProcessRecord> {
        self.procs.values().map(|p| &p.record)
    }

    /// Makes the table entry of `pid` a zombie: retires it
    /// ([`Kernel::retire`]) and gives back what its output string had
    /// reserved beyond its text.
    pub(crate) fn bury(&mut self, pid: Pid) {
        let Some(record) = self.retire(pid) else {
            return;
        };
        record.output.shrink_to_fit();
        self.kmetrics.zombies.add(1);
    }

    /// Drops what `pid` needed to run: its live half, its threads' table
    /// entries and its name binding (which `lookup` would no longer answer
    /// with anyway). Returns the record left behind, or `None` if there was
    /// nothing to drop: the pid is unknown or already retired.
    fn retire(&mut self, pid: Pid) -> Option<&mut ProcessRecord> {
        let proc = self.procs.get_mut(pid.0)?;
        let live = proc.live.take()?;
        if self.names.get(&proc.record.name) == Some(&pid) {
            self.names.remove(&proc.record.name);
        }
        for tid in live.tids {
            self.threads.remove(tid.0);
        }
        Some(&mut proc.record)
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
        for w in waiters {
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
            self.kmetrics.deadline_kills.inc();
            let at = self.events.now();
            self.bus.emit(at, || EventKind::DeadlineHit { pid: pid.0 });
        }
        for w in waiters {
            self.complete(w, SysReply::Err(SysError::DeadlineExceeded));
        }
    }

    // ---- exit and cleanup ----------------------------------------------------------

    pub(crate) fn handle_exit(&mut self, tid: Tid, status: ExitStatus) {
        let (pid, waiters) = {
            // An exit from a thread the kernel never tracked has nothing to
            // clean up; the count is only decremented on a real exit.
            let Some(ts) = self.threads.get_mut(tid.0) else {
                debug_assert!(false, "exit from unknown tid {}", tid.0);
                return;
            };
            ts.status = Some(status.clone());
            // The body goes now, not when the process is reaped.
            ts.seat = None;
            (ts.pid, std::mem::take(&mut ts.join_waiters))
        };
        self.live_threads -= 1;
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
            // A cancelled program fails its next syscall with `Cancelled`,
            // and a program may report that failure its own way (LipScript
            // turns it into a tool failure). The kernel cancelled it, so
            // the kernel names the verdict.
            record.status = match status {
                ExitStatus::Error(_) if proc.cancelled => ExitStatus::Error(SysError::Cancelled),
                status => status,
            };
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
    /// beyond the process lifetime (§4.2) — and adds its usage to the
    /// kernel's totals. Without a session sink it leaves a zombie in the
    /// table ([`Kernel::bury`]); with one, the sink's
    /// [`SessionEvent::Exited`] is the reap, and the table keeps nothing.
    fn finalize_process(&mut self, pid: Pid) {
        let owner = OwnerId(pid.0);
        self.store.release_locks(owner);
        self.cqueue.forget(pid.0);
        for f in self.store.unlinked_files_of(owner) {
            let _ = self.store.remove(f, OwnerId::ADMIN);
        }
        let now = self.events.now();
        let served = self.session_sink.is_some();
        if served {
            self.retire(pid);
        } else {
            self.bury(pid);
        }
        let Some(proc) = self.procs.get_mut(pid.0) else {
            debug_assert!(false, "finalize for unknown pid {}", pid.0);
            return;
        };
        let rec = &mut proc.record;
        rec.exited_at = Some(now);
        let (status, usage) = (rec.status.clone(), rec.usage);
        self.kmetrics.exited.inc();
        self.kmetrics.usage.add(&usage);
        if proc.durable {
            // A durable exit frame makes the whole program's outcome
            // durable: recovery restores it as a record, no re-execution.
            // Served, the text has gone to the sink as well: the frame
            // takes it.
            let output = if served {
                std::mem::take(&mut rec.output)
            } else {
                rec.output.clone()
            };
            // What it published goes in the log before its exit does.
            self.log_kv_batch(false);
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
            usage: Box::new(usage),
        });
        if served {
            self.procs.remove(pid.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
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
        // The sink's `Exited` is the reap.
        let exits: Arc<std::sync::Mutex<Vec<ExitStatus>>> = Arc::default();
        let sink_exits = Arc::clone(&exits);
        k.set_session_sink(Box::new(move |ev| {
            if let SessionEvent::Exited { status, .. } = ev {
                sink_exits.lock().unwrap().push(status);
            }
        }));
        let image: ProgramImage = Arc::new(|ctx| {
            let prompt = ctx.tokenize(&ctx.args())?;
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &prompt, 0)?;
            ctx.emit("done")
        });
        for i in 0..1000 {
            let at = SimTime::ZERO + SimDuration::from_micros(200 * i);
            let pid = k.admit(
                &format!("p{i}"),
                "a b c",
                SpawnOpts {
                    durable: true,
                    ..SpawnOpts::at(at)
                },
                Body::from(image.clone()),
            );
            k.set_cost_hint(pid, Some(3));
        }
        assert_eq!(k.run(), 1000);
        let exits = std::mem::take(&mut *exits.lock().unwrap());
        assert_eq!(exits.len(), 1000);
        assert!(exits.iter().all(ExitStatus::is_ok));
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

    #[test]
    fn an_exit_does_not_size_the_session_event() {
        use std::mem::size_of;
        // What an `Emitted` carries, and room for the tag.
        let emitted = size_of::<Pid>() + size_of::<SimTime>() + size_of::<String>() + 8;
        assert!(size_of::<SessionEvent>() <= emitted + 8);
    }

    #[test]
    fn a_session_sink_owns_the_stream_and_recovery_restores_a_durable_one() {
        let path = std::env::temp_dir().join(format!("symphony-sink-{}.wal", std::process::id()));
        let mut cfg = KernelConfig::for_tests();
        cfg.wal = Some(WalConfig::new(&path));
        let image: ProgramImage = Arc::new(|ctx| {
            let prompt = ctx.tokenize(&ctx.args())?;
            ctx.emit("echo: ")?;
            ctx.emit_tokens(&prompt)?;
            ctx.emit(" — done")
        });
        // What a sink received, by pid: the text, and the exit status.
        #[derive(Default)]
        struct Received {
            streamed: BTreeMap<u64, String>,
            exits: BTreeMap<u64, ExitStatus>,
        }
        // A plain and a durable process of the same program.
        let run = |sink: bool| {
            let mut k = Kernel::new(cfg.clone());
            let received: Arc<std::sync::Mutex<Received>> = Arc::default();
            if sink {
                let received = Arc::clone(&received);
                k.set_session_sink(Box::new(move |ev| {
                    let mut received = received.lock().unwrap();
                    match ev {
                        SessionEvent::Emitted { pid, text, .. } => {
                            received.streamed.entry(pid.0).or_default().push_str(&text);
                        }
                        SessionEvent::Exited { pid, status, .. } => {
                            assert!(received.exits.insert(pid.0, status).is_none());
                        }
                    }
                }));
            }
            let plain_image = Arc::clone(&image);
            let plain = k.spawn_process("plain", "serve programs", move |ctx| plain_image(ctx));
            let durable = k.admit(
                "durable",
                "not prompts",
                SpawnOpts {
                    durable: true,
                    ..Default::default()
                },
                Body::from(Arc::clone(&image)),
            );
            assert_eq!(k.run(), 2);
            let received = std::mem::take(&mut *received.lock().unwrap());
            (k, plain, durable, received)
        };

        let (alone, plain, durable, received) = run(false);
        assert!(received.streamed.is_empty() && received.exits.is_empty());
        assert!(alone.records().all(|r| r.status.is_ok()));
        let output = |k: &Kernel, pid: Pid| k.record(pid).unwrap().output.clone();
        let (plain_text, durable_text) = (output(&alone, plain), output(&alone, durable));
        assert!(plain_text.starts_with("echo: serve") && durable_text.ends_with("— done"));
        drop(alone);

        let (served, plain, durable, received) = run(true);
        // The sink got every byte a sinkless kernel keeps in the record, and
        // each exit: that was the reap, so no record is left.
        assert_eq!(received.streamed.get(&plain.0), Some(&plain_text));
        assert_eq!(received.streamed.get(&durable.0), Some(&durable_text));
        let ok = [(plain.0, ExitStatus::Ok), (durable.0, ExitStatus::Ok)];
        assert_eq!(received.exits, BTreeMap::from(ok));
        assert!(served.record(plain).is_none() && served.record(durable).is_none());
        assert_eq!(served.records().count(), 0);
        assert_eq!(served.kmetrics.zombies.get(), 0);
        assert_eq!(served.kmetrics.exited.get(), 2);
        drop(served);
        // The durable one's exit frame took its text and carries it through
        // recovery, which restores it as a record.
        let (recovered, report) =
            Kernel::recover(cfg.clone(), |_, _| None).expect("recoverable WAL");
        assert_eq!(report.finished, 1);
        assert_eq!(output(&recovered, durable), durable_text);
        assert!(recovered.record(durable).unwrap().status.is_ok());
        std::fs::remove_file(&path).ok();
    }
}
