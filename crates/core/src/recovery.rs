//! The kernel's side of the write-ahead log ([`crate::wal`] is the format):
//! writing effects as they happen, and after a crash booting from the log,
//! re-admitting its programs and answering their re-executed syscalls from
//! it.
//!
//! Durability is decided in one place each way: [`Kernel::journal`] is the
//! only constructor of effect frames (and [`Kernel::record_pred`] the only
//! writer of a `pred` completion record), and [`Kernel::answer_from_journal`]
//! the only reader of either. All ask the process table's one `durable`
//! field; the syscall handlers call them unconditionally.

use std::collections::BTreeSet;
use std::sync::Arc;

use symphony_kvfs::journal::Record;
use symphony_kvfs::{FileId, KvStore, KvStoreConfig, OwnerId, RestoreReport};
use symphony_model::{Preds, TokenId};
use symphony_telemetry::{EventKind, MetricsRegistry};

use crate::kernel::{Kernel, KernelConfig};
use crate::proc::Proc;
use crate::syscall::{Body, SysReply};
use crate::types::{ExitStatus, Limits, Pid, SysError, Tid};
use crate::wal::{
    self, Effect, EffectClass, RecoveryReport, ReplayProc, WalConfig, WalError, WalRecord, WalState,
};

/// The call site's half of a replay hit: which class the call draws from,
/// and what its journalled effect cannot rebuild on its own.
pub(crate) enum Asked<'a> {
    Tool,
    Send,
    Recv,
    Lookup,
    Now,
    /// The KV append of a replayed `pred` is rebuilt from its arguments,
    /// if the process's completion record vouches for the call.
    Pred {
        kv: FileId,
        tokens: &'a [(TokenId, u32)],
    },
}

impl Kernel {
    // ---- boot ------------------------------------------------------------------

    /// Boots a kernel from the write-ahead log at `config.wal.path` and
    /// re-admits its programs; [`Kernel::run`] then carries on where the
    /// log left off. The virtual clock, the pid allocator, the durable
    /// process table and the KV store are restored: the store from the
    /// log's complete KV batches (the linked files and the admin's), less
    /// every file a program it re-executes owns ([`Kernel::settle_store`]).
    /// `resolve` gets an unfinished program's name and the image its
    /// admission frame carries, if its body was data
    /// ([`crate::InlineBody::take_image`]), and returns the body to run
    /// again: a LipScript program is rebuilt from its image alone, a
    /// native one found by its name. The body re-executes
    /// deterministically from its start under the journalled pid
    /// (journalled effects answer its syscalls up to the crash point), at
    /// once if its arrival is at or before the restored clock and at its
    /// arrival otherwise, in pid order; a finished program is restored as a
    /// record without re-execution, and one `resolve` cannot rebuild is
    /// recorded as crashed.
    pub fn recover<F>(config: KernelConfig, resolve: F) -> Result<(Self, RecoveryReport), WalError>
    where
        F: Fn(&str, Option<&[u8]>) -> Option<Body>,
    {
        let wal_cfg = config.wal.clone().ok_or(WalError::Disabled)?;
        let bytes = std::fs::read(&wal_cfg.path).map_err(|_| WalError::Unreadable)?;
        let (seed, records, valid_len, torn) = wal::read_wal(&bytes)?;
        if seed != config.seed {
            return Err(WalError::Incompatible);
        }
        let mut replay = wal::build_replay(records, valid_len, torn);
        let procs = std::mem::take(&mut replay.procs);
        let mut report = RecoveryReport {
            resumed: 0,
            finished: 0,
            lost: 0,
            frames: replay.frames,
            wal_bytes: replay.wal_bytes,
            torn: replay.torn,
            clock: replay.clock,
        };
        // Which programs run again decides which files the store keeps, so
        // the bodies are rebuilt before the kernel is.
        let procs: Vec<(u64, ReplayProc, Option<Body>)> = procs
            .into_iter()
            .map(|(pid, rp)| {
                let body = rp.exit.is_none().then(|| resolve(&rp.name, rp.image.as_deref()));
                (pid, rp, body.flatten())
            })
            .collect();
        let reexecuted = procs.iter().filter(|p| p.2.is_some()).map(|p| p.0).collect();
        let mut kernel = Self::build(config, Some(replay));
        kernel.settle_store(&reexecuted);
        for (pid, rp, body) in procs {
            let Some(body) = body else {
                match rp.exit {
                    Some(_) => report.finished += 1,
                    None => report.lost += 1,
                }
                kernel.restore_exited(pid, rp);
                continue;
            };
            // The original pid: re-execution draws the same RNG streams and
            // allocates the same identifiers.
            kernel.readmit(Pid(pid), &rp, body);
            report.resumed += 1;
        }
        // A resumed process's `pred` record starts as the log left it, so
        // its next listing holds at least as much.
        if let Some(replay) = &kernel.replay {
            for (pid, preds) in &replay.preds {
                if let Some(p) = kernel.procs.get_mut(*pid).and_then(Proc::live_mut) {
                    p.preds = preds.log.clone();
                }
            }
        }
        let (resumed, replayed_frames) = (report.resumed as u64, report.frames);
        let now = kernel.events.now();
        kernel.bus.emit(now, move || EventKind::KernelRecovery {
            resumed,
            replayed_frames,
        });
        Ok((kernel, report))
    }

    /// The store a kernel boots from a log's KV batches — the log it
    /// recovers from, or for a warm restart the one at `journal_path`,
    /// whatever kernel seed wrote it — and what it restored. The log's
    /// complete batches come with whether it was torn, which reads torn
    /// even when the cut spared the last batch. No log, or one whose
    /// records do not restore (another geometry, a corrupt replay), boots
    /// an empty store: a kernel must boot either way.
    pub(crate) fn boot_store(
        config: KvStoreConfig,
        registry: &MetricsRegistry,
        log: Option<(Vec<Record<'static>>, bool)>,
    ) -> (KvStore, Option<RestoreReport>) {
        let restore = |(records, torn)| KvStore::restore(config, registry, records, torn).ok();
        match log.and_then(restore) {
            Some((store, report)) => (store, Some(report)),
            None => (KvStore::with_registry(config, registry), None),
        }
    }

    /// Takes out of a store booted from a log what no program will own: the
    /// files of the programs recovery re-executes (`reexecuted`; the
    /// re-execution builds them again). The log describes no other
    /// unlinked file than the admin's ([`symphony_kvfs::KvStore::drain_changes`]).
    /// Locks held by anyone but the admin go first: no process that took
    /// one is running. Published files stay.
    pub(crate) fn settle_store(&mut self, reexecuted: &BTreeSet<u64>) {
        let Some(restored) = self.restored else {
            return; // a cold store holds nothing a log described
        };
        let files = self.store.list_files();
        for holder in files.iter().filter_map(|f| f.locked_by).filter(|&o| o != OwnerId::ADMIN) {
            self.store.release_locks(holder);
        }
        for f in files.iter().filter(|f| reexecuted.contains(&f.owner.0)) {
            let _ = self.store.remove(f.id, OwnerId::ADMIN);
        }
        // The report counts what the kernel serves from.
        self.restored = Some(RestoreReport {
            torn: restored.torn,
            ..self.store.census()
        });
    }

    /// Opens the WAL of a freshly built kernel. A new log starts with the
    /// store's snapshot as its first KV batch when the store was restored
    /// (a warm restart, settled first: [`Kernel::settle_store`]; a cold
    /// store is empty). Booting from `replay`, the old log is reopened for
    /// appending, with the virtual clock and the pid allocator restored so
    /// re-executed programs keep their pids (hence their threads' RNG
    /// streams) and see the same scheduling decisions; change tracking
    /// starts from the store as the log described it, so what `recover`
    /// then settles goes in the next batch. Tids are not restored: they
    /// name a thread for one execution only.
    pub(crate) fn open_wal(
        &mut self,
        cfg: Option<&WalConfig>,
        seed: u64,
        replay: Option<wal::Replay>,
    ) {
        let opened = match replay {
            Some(r) => {
                self.events.advance_to(r.clock);
                self.next_pid = self.next_pid.max(r.next_pid);
                self.kmetrics.recoveries.inc();
                self.kmetrics.replayed_frames.add(r.frames);
                let opened = cfg.map(|cfg| WalState::open_append(cfg, r.wal_bytes, r.clock));
                self.replay = Some(r);
                opened
            }
            // A cold store is empty: a new log describes it by holding no
            // KV frame at all.
            None => {
                self.settle_store(&BTreeSet::new());
                let mut snapshot = Vec::new();
                if cfg.is_some() && self.restored.is_some() {
                    self.store.snapshot(&mut snapshot);
                }
                cfg.map(|cfg| WalState::create(cfg, seed, &snapshot))
            }
        };
        let Some(opened) = opened else {
            return;
        };
        // lint:allow(k1): a kernel asked for a WAL it cannot open or reopen must not serve
        let w = opened.expect("open kernel WAL");
        self.store.track_changes();
        self.kmetrics.wal_bytes.set(w.log.disk_len() as i64);
        self.wal = Some(w);
    }

    /// Restores a journalled program that will not run again as a zombie:
    /// with its journalled outcome (its outputs are already durable), or —
    /// unfinished, its body not rebuilt — as crashed now.
    fn restore_exited(&mut self, pid: u64, rp: ReplayProc) {
        // It holds nothing any more, so no quota or deadline is re-armed.
        let limits = Limits::default();
        let pid = self.install(Some(Pid(pid)), &rp.name, &rp.args, rp.arrival, limits, true);
        self.bury(pid);
        let now = self.events.now();
        let Some(p) = self.procs.get_mut(pid.0) else {
            return;
        };
        match rp.exit {
            Some(exit) => {
                p.record.exited_at = Some(exit.at);
                p.record.status = exit.status;
                p.record.output = exit.output;
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

    /// Appends the KV store's changes since the last batch to the log as
    /// one batch ([`crate::wal`], "KV batches"): when `forced`, or when a
    /// linked file or the namespace changed. No-op without a WAL.
    pub(crate) fn log_kv_batch(&mut self, forced: bool) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        if !forced && !self.store.has_published_changes() {
            return;
        }
        if self.store.drain_changes(w.log.pending()) {
            // lint:allow(k1): a failed WAL write silently voids durability
            w.log.flush().expect("kernel WAL KV batch");
            self.kmetrics.wal_bytes.set(w.log.disk_len() as i64);
        }
    }

    /// Journals one frame (no-op when the WAL is disabled).
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
    /// result) *and* the receiver's (its replayed `recv` needs the
    /// payload). `effect` is not evaluated otherwise. The frame is written
    /// before the effect is observable.
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

    /// Notes in `pid`'s completion record that its `pred` number `seq`, of
    /// `n_tokens` input tokens, completed; the next checkpoint lists the
    /// record (see [`crate::wal`], "`pred`s"). No-op unless `pid` is
    /// durable and the WAL is open.
    pub(crate) fn record_pred(&mut self, pid: Pid, seq: u64, n_tokens: u32) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        let proc = self.procs.get_mut(pid.0).filter(|p| p.durable);
        if let Some(live) = proc.and_then(Proc::live_mut) {
            live.preds.complete(seq, n_tokens);
            w.moved.insert(pid.0);
        }
    }

    /// Writes a checkpoint frame, listing the `pred` records that moved
    /// since the last one, when the virtual clock has passed the next
    /// checkpoint boundary.
    pub(crate) fn maybe_checkpoint(&mut self) {
        let now = self.events.now();
        if !self.wal.as_ref().is_some_and(|w| w.checkpoint_due(now)) {
            return;
        }
        self.log_kv_batch(false);
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        // A process that exited since is in the log by its exit frame.
        let preds = std::mem::take(&mut w.moved)
            .into_iter()
            .filter_map(|pid| {
                let live = self.procs.get(pid)?.live.as_deref()?;
                Some((pid, live.preds.clone()))
            })
            .collect();
        let rec = WalRecord::Checkpoint {
            at: now,
            next_pid: self.next_pid,
            preds,
        };
        w.checkpoint(&rec)
            // lint:allow(k1): a failed WAL write silently voids durability
            .expect("kernel WAL checkpoint");
        let wal_bytes = w.log.disk_len();
        self.kmetrics.checkpoints.inc();
        self.kmetrics.wal_bytes.set(wal_bytes as i64);
        self.bus
            .emit(now, move || EventKind::WalCheckpoint { wal_bytes });
    }

    /// An injected kernel crash: halt the run loop. Every frame is already
    /// in the file; what a crash loses is the `pred` completions no
    /// checkpoint has listed yet.
    pub(crate) fn crash_now(&mut self, boundary: u64) {
        let at = self.events.now();
        self.bus
            .emit(at, move || EventKind::KernelCrash { boundary });
        self.crashed = Some(boundary);
    }

    // ---- answering from the journal --------------------------------------------------

    /// Answers the syscall `tid` is parked in from the journal, if this is
    /// a recovered kernel and the log holds the `seq`-th effect `pid` drew
    /// in the call's class (for a `pred`: its completion record vouches for
    /// call `seq`; for a `recv`: a `seq`-th delivery to `pid` is
    /// journalled): the reply the call got before the crash is scheduled
    /// again and nothing is re-performed — no tool handler fires twice, no
    /// message is delivered twice, `now` reads what it read then, no GPU
    /// time is charged. `false` means the call runs live (and journals what
    /// it does).
    pub(crate) fn answer_from_journal(
        &mut self,
        pid: Pid,
        tid: Tid,
        seq: u64,
        asked: Asked<'_>,
    ) -> bool {
        if self.replay.is_none() || !self.is_durable(pid) {
            return false;
        }
        let reply = match asked {
            Asked::Pred { kv, tokens } => self.replay_pred(pid, seq, kv, tokens),
            asked => self.replay_effect(pid, seq, asked),
        };
        let Some(reply) = reply else {
            return false;
        };
        // Causal mode: the recovery-replay phase bucket of the critical path.
        let parked_in = self.threads.get(tid.0).and_then(|t| t.open_syscall);
        if let Some(sys) = parked_in.filter(|_| self.causal) {
            let now = self.events.now();
            self.bus.emit(now, || EventKind::ReplayAnswered {
                pid: pid.0,
                tid: tid.0,
                sys,
            });
        }
        self.complete(tid, reply);
        true
    }

    /// The reply a journalled effect frame gives call `seq` of `pid`. A
    /// `recv`'s frame is the send of the `seq`-th message delivered to
    /// `pid` (see [`crate::wal`], "Receives").
    fn replay_effect(&mut self, pid: Pid, seq: u64, asked: Asked<'_>) -> Option<SysReply> {
        let replay = self.replay.as_ref()?;
        let (owner, class, seq) = match asked {
            Asked::Tool => (pid.0, EffectClass::Tool, seq),
            Asked::Send => (pid.0, EffectClass::Send, seq),
            Asked::Recv => {
                let &(from, send_seq) = replay
                    .inboxes
                    .get(&pid.0)?
                    .get(usize::try_from(seq).ok()?)?;
                (from, EffectClass::Send, send_seq)
            }
            Asked::Lookup => (pid.0, EffectClass::Lookup, seq),
            Asked::Now => (pid.0, EffectClass::Now, seq),
            Asked::Pred { .. } => return None,
        };
        let effect = replay.effects.get(&(owner, class, seq)).cloned()?;
        Some(match (effect, asked) {
            (Effect::Tool { result }, Asked::Tool) => match result {
                Ok(s) => SysReply::Text(s),
                Err(e) => SysReply::Err(e),
            },
            // The delivery (if any) happened pre-crash: the receiver's
            // replayed `recv` answers from this same frame.
            (Effect::Send { ok: true, .. }, Asked::Send) => SysReply::Unit,
            (Effect::Send { ok: false, .. }, Asked::Send) => SysReply::Err(SysError::NotFound),
            (Effect::Send { data, .. }, Asked::Recv) => SysReply::Msg {
                from: Pid(owner),
                data,
            },
            (Effect::Lookup { found }, Asked::Lookup) => SysReply::MaybePid(found.map(Pid)),
            // The *original* observation: the recovered clock starts past
            // the crash point, and a LIP branching on time must see the
            // values it saw before.
            (Effect::Now { t }, Asked::Now) => SysReply::Time(t),
            _ => return None,
        })
    }

    /// Answers `pid`'s replayed `pred` number `seq` if its completion
    /// record vouches for the call (see [`crate::wal`], "The guard"):
    /// rebuilds the KV entries it appended pre-crash, so later live `pred`s
    /// against the same file see identical contents, and re-derives its
    /// reply along the fingerprint chain the GPU executor walked. Charges
    /// no GPU time (the work was already paid for before the crash). `None`
    /// — the call runs live — for a call the record does not vouch for, or
    /// a file state that does not admit the append.
    fn replay_pred(
        &mut self,
        pid: Pid,
        seq: u64,
        file: FileId,
        tokens: &[(TokenId, u32)],
    ) -> Option<SysReply> {
        let n_tokens = u32::try_from(tokens.len()).ok()?;
        let record = self.replay.as_mut()?.preds.get_mut(&pid.0)?;
        if !record.vouch(seq, n_tokens) {
            return None;
        }
        let model = self.gpu.model();
        let fpr = model.fingerprinter();
        let mut fp = self
            .store
            .tail_fingerprint(file)
            .ok()?
            .unwrap_or_else(|| fpr.origin());
        let (entries, fps) = tokens
            .iter()
            .map(|&(t, p)| {
                fp = fpr.advance(fp, t, p);
                (symphony_kvfs::KvEntry::new(t, p, fp), fp)
            })
            .unzip::<_, _, Vec<_>, Vec<_>>();
        let preds = Preds::new(Arc::clone(model), fps);
        self.store.append(file, OwnerId(pid.0), &entries).ok()?;
        Some(SysReply::Dists(preds))
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
