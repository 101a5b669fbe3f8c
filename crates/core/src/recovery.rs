//! The kernel's side of the write-ahead log ([`crate::wal`] is the format):
//! writing effects as they happen, and after a crash booting from the log,
//! re-admitting its programs and answering their re-executed syscalls from
//! it.
//!
//! Durability is decided in one place each way: [`Kernel::journal`] is the
//! only constructor of effect frames, and [`Kernel::answer_from_journal`]
//! the only reader of journalled effects. Both ask the process table's one
//! `durable` field; the syscall handlers call them unconditionally.

use symphony_kvfs::{FileId, OwnerId};
use symphony_model::TokenId;
use symphony_sim::{SimDuration, SimTime};
use symphony_telemetry::EventKind;

use crate::kernel::{Event, Kernel, KernelConfig, ProgramImage};
use crate::proc::Proc;
use crate::syscall::{Body, SysReply};
use crate::types::{ExitStatus, Limits, Pid, SysError, Tid};
use crate::wal::{
    self, Effect, EffectClass, RecoveryReport, ReplayProc, WalConfig, WalError, WalRecord, WalState,
};

/// The call site's half of a replay hit: which class the call draws from,
/// and what its journalled effect cannot rebuild on its own.
pub(crate) enum Asked<'a> {
    /// The breaker re-learns the replayed outcome under the tool's name.
    Tool {
        name: &'a str,
    },
    Send,
    Recv,
    Lookup,
    Now,
    /// The KV append of a replayed `pred` is rebuilt from its arguments.
    Pred {
        kv: FileId,
        tokens: &'a [(TokenId, u32)],
    },
}

impl Kernel {
    // ---- boot ------------------------------------------------------------------

    /// Boots a kernel from the write-ahead log at `config.wal.path`,
    /// restoring the virtual clock, pid/tid allocators, circuit-breaker
    /// state and the durable process table. In-flight durable programs are
    /// *not* re-executed yet — call [`Kernel::resume_programs`] with their
    /// program images, then [`Kernel::run`].
    ///
    /// The returned report counts candidates: `resumed` is the number of
    /// in-flight programs awaiting [`Kernel::resume_programs`], `finished`
    /// the completed ones restored as records, `lost` always zero here
    /// (images are only resolved at resume time).
    pub fn recover(config: KernelConfig) -> Result<(Self, RecoveryReport), WalError> {
        let wal_cfg = config.wal.clone().ok_or(WalError::Disabled)?;
        let bytes = std::fs::read(&wal_cfg.path).map_err(|_| WalError::Unreadable)?;
        let (seed, records, valid_len, torn) = wal::read_wal(&bytes)?;
        if seed != config.seed {
            return Err(WalError::Incompatible);
        }
        let replay = wal::build_replay(records, valid_len, torn);
        let report = RecoveryReport {
            resumed: replay.procs.values().filter(|p| p.exit.is_none()).count()
                + replay.scheduled.len(),
            finished: replay.procs.values().filter(|p| p.exit.is_some()).count(),
            lost: 0,
            frames: replay.frames,
            wal_bytes: replay.wal_bytes,
            torn: replay.torn,
            clock: replay.clock,
        };
        let kernel = Self::build(config, Some(replay));
        Ok((kernel, report))
    }

    /// Opens the WAL of a freshly built kernel: a new log, or — booting
    /// from `replay` — the old one for appending, with the virtual clock,
    /// the allocators and the breakers restored so re-executed programs see
    /// identical pids, tids (hence RNG streams) and scheduling decisions.
    pub(crate) fn open_wal(
        &mut self,
        cfg: Option<&WalConfig>,
        seed: u64,
        replay: Option<wal::Replay>,
    ) {
        let opened = cfg.map(|cfg| match &replay {
            Some(r) => WalState::open_append(cfg, r.wal_bytes, r.clock),
            None => WalState::create(cfg, seed),
        });
        if let Some(r) = replay {
            self.events.advance_to(r.clock);
            self.next_pid = self.next_pid.max(r.next_pid);
            self.next_tid = self.next_tid.max(r.next_tid);
            if let Some(bank) = self.breakers.as_mut() {
                bank.import_states(r.breakers.clone());
            }
            self.kmetrics.recoveries.inc();
            self.kmetrics.replayed_frames.add(r.frames);
            self.replay = Some(r);
        }
        if let Some(opened) = opened {
            // lint:allow(k1): a kernel asked for a WAL it cannot open or reopen must not serve
            let w = opened.expect("open kernel WAL");
            self.kmetrics.wal_bytes.set(w.log.disk_len() as i64);
            self.wal = Some(w);
        }
    }

    /// Re-admits journalled programs after [`Kernel::recover`]. `resolve`
    /// maps a program name to its image: unfinished programs re-execute
    /// deterministically from their start (journalled effects answer their
    /// syscalls up to the crash point), finished programs are restored as
    /// records without re-execution, and unresolvable programs are recorded
    /// as crashed. Returns the final recovery report; a second call (or a
    /// call on a non-recovered kernel) is a no-op reporting zeros.
    pub fn resume_programs<F>(&mut self, resolve: F) -> RecoveryReport
    where
        F: Fn(&str) -> Option<ProgramImage>,
    {
        let now = self.events.now();
        let mut report = RecoveryReport {
            resumed: 0,
            finished: 0,
            lost: 0,
            frames: 0,
            wal_bytes: 0,
            torn: false,
            clock: now,
        };
        let Some(replay) = self.replay.as_ref().filter(|_| !self.programs_resumed) else {
            return report;
        };
        self.programs_resumed = true;
        report = RecoveryReport {
            frames: replay.frames,
            wal_bytes: replay.wal_bytes,
            torn: replay.torn,
            clock: replay.clock,
            ..report
        };
        // Started programs first, then the arrivals still to come, each in
        // pid order.
        let journalled: Vec<(u64, ReplayProc, bool)> =
            [(&replay.procs, true), (&replay.scheduled, false)]
                .into_iter()
                .flat_map(|(m, started)| m.iter().map(move |(pid, rp)| (*pid, rp.clone(), started)))
                .collect();
        for (pid, rp, started) in journalled {
            if rp.exit.is_some() {
                self.restore_exited(pid, &rp);
                report.finished += 1;
                continue;
            }
            let Some(image) = resolve(&rp.name) else {
                self.restore_exited(pid, &rp);
                report.lost += 1;
                continue;
            };
            // The original pid and main tid: re-execution draws the same
            // RNG stream and allocates the same identifiers.
            let pid = self.install(
                Some(Pid(pid)),
                &rp.name,
                &rp.args,
                rp.arrival,
                rp.limits,
                true,
            );
            let main_tid = Some(Tid(rp.main_tid));
            let body = Body::Hosted(Box::new(move |ctx| image(ctx)));
            if started {
                self.start(pid, main_tid, body);
            } else {
                // Arrivals already in the past fire at the restored clock.
                let at = rp.arrival.max(now);
                let ev = Event::SpawnProgram {
                    pid,
                    body,
                    main_tid,
                };
                self.events.schedule(at, ev);
            }
            report.resumed += 1;
        }
        // Rebuild mailboxes: delivered sends in journal order, minus the
        // prefix each receiver already consumed (journalled recvs replay
        // from the log, not from the mailbox).
        if let Some(replay) = &self.replay {
            let mut to_skip = replay.recv_counts();
            for &(from, seq) in &replay.sends {
                let sent = replay.effects.get(&(from, EffectClass::Send, seq));
                let Some(Effect::Send { to, data, .. }) = sent else {
                    continue;
                };
                if let Some(n) = to_skip.get_mut(to).filter(|n| **n > 0) {
                    *n -= 1;
                } else if let Some(p) = self.procs.get_mut(*to).and_then(Proc::live_mut) {
                    p.mailbox
                        .push_back((Pid(from), data.clone(), SimTime::ZERO, 0));
                }
            }
        }
        let (resumed, replayed_frames) = (report.resumed as u64, report.frames);
        self.bus.emit(now, move || EventKind::KernelRecovery {
            resumed,
            replayed_frames,
        });
        report
    }

    /// Restores a journalled program that will not run again as a zombie:
    /// with its journalled outcome (its outputs are already durable), or —
    /// unfinished, its image unresolvable — as crashed now.
    fn restore_exited(&mut self, pid: u64, rp: &ReplayProc) {
        // It holds nothing any more, so no quota or deadline is re-armed.
        let limits = Limits::default();
        let pid = self.install(Some(Pid(pid)), &rp.name, &rp.args, rp.arrival, limits, true);
        self.bury(pid);
        let now = self.events.now();
        let Some(p) = self.procs.get_mut(pid.0) else {
            return;
        };
        match &rp.exit {
            Some(exit) => {
                p.record.exited_at = Some(exit.at);
                p.record.status = exit.status.clone();
                p.record.output = exit.output.clone();
                p.record.usage = exit.usage;
            }
            None => {
                p.record.exited_at = Some(now);
                p.record.status = ExitStatus::Crashed;
            }
        }
    }

    // ---- writing the journal -------------------------------------------------------

    /// `true` when `pid`'s effectful syscalls are journalled.
    pub(crate) fn is_durable(&self, pid: Pid) -> bool {
        self.procs.get(pid.0).is_some_and(|p| p.durable)
    }

    /// Journals one frame under its durability class (no-op when the WAL
    /// is disabled).
    pub(crate) fn wal_append(&mut self, rec: WalRecord) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        w.write(&rec)
            // lint:allow(k1): a failed WAL write silently voids durability
            .expect("kernel WAL append");
        self.kmetrics.wal_bytes.set(w.log.disk_len() as i64);
    }

    /// Journals the `seq`-th effect `pid` drew in the effect's class — the
    /// only constructor of effect frames. Written when `pid` is durable, or
    /// `peer` is: a send is the sender's effect (its replay needs the
    /// result) *and* the receiver's (its mailbox rebuild needs the
    /// payload). `effect` is not evaluated otherwise. Frames are flushed
    /// before the effect is observable, except `pred` markers, which wait
    /// for the next checkpoint (see [`crate::wal`], "Durability classes").
    pub(crate) fn journal(
        &mut self,
        pid: Pid,
        peer: Option<Pid>,
        seq: u64,
        effect: impl FnOnce() -> Effect,
    ) {
        if self.wal.is_none() {
            return;
        }
        if !self.is_durable(pid) && !peer.is_some_and(|p| self.is_durable(p)) {
            return;
        }
        self.wal_append(WalRecord::Effect {
            at: self.events.now(),
            pid: pid.0,
            seq,
            effect: effect(),
        });
    }

    /// Writes a checkpoint frame (flushing buffered pred frames) when the
    /// virtual clock has passed the next checkpoint boundary.
    pub(crate) fn maybe_checkpoint(&mut self) {
        let now = self.events.now();
        if !self.wal.as_ref().is_some_and(|w| w.checkpoint_due(now)) {
            return;
        }
        let breakers = self
            .breakers
            .as_ref()
            .map(|b| b.export_states())
            .unwrap_or_default();
        let rec = WalRecord::Checkpoint {
            at: now,
            next_pid: self.next_pid,
            next_tid: self.next_tid,
            breakers,
        };
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        let frames = w
            .checkpoint(&rec)
            // lint:allow(k1): a failed WAL write silently voids durability
            .expect("kernel WAL checkpoint");
        let wal_bytes = w.log.disk_len();
        self.kmetrics.checkpoints.inc();
        self.kmetrics.wal_bytes.set(wal_bytes as i64);
        self.bus
            .emit(now, move || EventKind::WalCheckpoint { frames, wal_bytes });
    }

    /// An injected kernel crash: halt the run loop, dropping buffered
    /// (unflushed) pred frames exactly as a real crash would.
    pub(crate) fn crash_now(&mut self, boundary: u64) {
        let at = self.events.now();
        self.bus
            .emit(at, move || EventKind::KernelCrash { boundary });
        if let Some(w) = self.wal.as_mut() {
            w.log.drop_pending();
        }
        self.crashed = Some(boundary);
    }

    // ---- answering from the journal --------------------------------------------------

    /// Answers the syscall `tid` is parked in from the journal, if this is
    /// a recovered kernel and the log holds the `seq`-th effect `pid` drew
    /// in the call's class: the reply the call got before the crash is
    /// scheduled again and nothing is re-performed — no tool handler fires
    /// twice, no message is delivered twice, `now` reads what it read then.
    /// `false` means the call runs live (and journals what it does).
    pub(crate) fn answer_from_journal(
        &mut self,
        pid: Pid,
        tid: Tid,
        seq: u64,
        asked: Asked<'_>,
    ) -> bool {
        let class = match asked {
            Asked::Tool { .. } => EffectClass::Tool,
            Asked::Send => EffectClass::Send,
            Asked::Recv => EffectClass::Recv,
            Asked::Lookup => EffectClass::Lookup,
            Asked::Now => EffectClass::Now,
            Asked::Pred { .. } => EffectClass::Pred,
        };
        let Some(replay) = self.replay.as_ref().filter(|_| self.is_durable(pid)) else {
            return false;
        };
        let Some(effect) = replay.effects.get(&(pid.0, class, seq)).cloned() else {
            return false;
        };
        let now = self.events.now();
        let reply = match (effect, asked) {
            (Effect::Tool { latency_ns, result }, Asked::Tool { name }) => {
                // The breaker re-learns the outcome (post-checkpoint
                // reports were lost with the crash) unless the journalled
                // result was itself a breaker rejection.
                if !matches!(result, Err(SysError::Unavailable)) {
                    if let Some(bank) = self.breakers.as_mut() {
                        let done = now + SimDuration::from_nanos(latency_ns);
                        bank.report(name, result.is_ok(), done);
                    }
                }
                match result {
                    Ok(s) => SysReply::Text(s),
                    Err(e) => SysReply::Err(e),
                }
            }
            // The delivery (if any) happened pre-crash and is already in
            // the rebuilt mailbox or a journalled recv.
            (Effect::Send { ok: true, .. }, Asked::Send) => SysReply::Unit,
            (Effect::Send { ok: false, .. }, Asked::Send) => SysReply::Err(SysError::NotFound),
            (Effect::Recv { from, data }, Asked::Recv) => SysReply::Msg {
                from: Pid(from),
                data,
            },
            (Effect::Lookup { found }, Asked::Lookup) => SysReply::MaybePid(found.map(Pid)),
            // The *original* observation: the recovered clock starts past
            // the crash point, and a LIP branching on time must see the
            // values it saw before.
            (Effect::Now { t }, Asked::Now) => SysReply::Time(t),
            // A marker for a different call, or a file that no longer
            // admits the append: execute live.
            (Effect::Pred { n_tokens }, Asked::Pred { kv, tokens })
                if n_tokens as usize == tokens.len() =>
            {
                match self.replay_pred(kv, OwnerId(pid.0), tokens) {
                    Some(dists) => SysReply::Dists(dists),
                    None => return false,
                }
            }
            _ => return false,
        };
        // Causal mode: the recovery-replay phase bucket of the critical path.
        let parked_in = self.threads.get(tid.0).and_then(|t| t.open_syscall);
        if let Some(sys) = parked_in.filter(|_| self.causal) {
            self.bus.emit(now, || EventKind::ReplayAnswered {
                pid: pid.0,
                tid: tid.0,
                sys,
            });
        }
        self.complete(tid, reply);
        true
    }

    /// Answers a replayed `pred`: rebuilds the KV entries it appended
    /// pre-crash, so later live `pred`s against the same file see identical
    /// contents, and re-derives its reply along the fingerprint chain the
    /// GPU executor walked. Charges no GPU time (the work was already paid
    /// for before the crash). `None` if the file state does not admit the
    /// append (the caller then falls back to live execution).
    fn replay_pred(
        &mut self,
        file: FileId,
        owner: OwnerId,
        tokens: &[(TokenId, u32)],
    ) -> Option<Vec<symphony_model::Dist>> {
        let model = self.gpu.model();
        let fpr = model.fingerprinter();
        let mut fp = self
            .store
            .tail_fingerprint(file)
            .ok()?
            .unwrap_or_else(|| fpr.origin());
        let (entries, dists) = tokens
            .iter()
            .map(|&(t, p)| {
                fp = fpr.advance(fp, t, p);
                (symphony_kvfs::KvEntry::new(t, p, fp), model.next_dist(fp))
            })
            .unzip::<_, _, Vec<_>, Vec<_>>();
        self.store.append(file, owner, &entries).ok()?;
        Some(dists)
    }

    /// The kill-point that halted this kernel, when an injected crash fired.
    pub fn crashed(&self) -> Option<u64> {
        self.crashed
    }

    /// WAL frames replayed by `recover` across this kernel's lifetime.
    pub fn replayed_frames(&self) -> u64 {
        self.registry
            .counter_value("kernel.replayed_frames")
            .unwrap_or(0)
    }
}
