//! The durable driver: `agent_loop`'s programs scheduled straight into
//! `Kernel::schedule_durable`, with the kernel WAL and the incremental
//! KV journal switched on.
//!
//! This path bypasses `serve` and `rpc`: session events come from the
//! kernel's session sink. To keep the pair (`agent_loop`,
//! `agent_durable`) differing in durability only, the driver does what
//! the door does for each program — parse, verify, install the
//! verifier's cost hint — before scheduling it, and the program body
//! parses again inside `run_lip`, exactly as a served one does.
//!
//! The log files live under the benchmark's output directory. The WAL
//! and journal code never call `fsync`, so what is measured here is the
//! CPU cost of encoding and appending (into the page cache), not disk.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use symphony::{ExitStatus, Kernel, ProgramImage, SessionEvent, SimTime, SysError, WalConfig};
use symphony_kvfs::JournalConfig;
use symphony_lipscript::{parse::parse, run_lip, verify::verify, InterpLimits};

use crate::client::{SessionOutcome, WireCounts};
use crate::clock;
use crate::inproc::{Epoch, EpochStamps};
use crate::workload::{Job, Workload};

/// A kernel with WAL and KV journal open, plus the sink that collects
/// its session events.
pub struct Durable {
    kernel: Kernel,
    events: Arc<Mutex<VecDeque<SessionEvent>>>,
    next_session: u64,
    wal_path: PathBuf,
    journal_path: PathBuf,
    /// Host nanoseconds spent in `persist_kv_delta`, per epoch.
    pub persist_ns: Vec<u64>,
    /// Journal compactions that ran.
    pub compactions: u64,
}

impl Durable {
    /// Boots the durable kernel with its logs under `dir`.
    pub fn new(dir: &Path, traced: bool) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let tag = format!("agent_durable-{}", std::process::id());
        let wal_path = dir.join(format!("{tag}.wal"));
        let journal_path = dir.join(format!("{tag}.kvj"));
        let w = Workload::AgentDurable;
        let mut cfg = w.kernel_config(traced);
        cfg.wal = Some(WalConfig::new(&wal_path));
        let mut kernel = w.build_kernel_with(cfg);
        kernel
            .open_kv_journal(&journal_path, JournalConfig::default())
            .map_err(|e| format!("{}: {e}", journal_path.display()))?;
        let events: Arc<Mutex<VecDeque<SessionEvent>>> = Arc::default();
        let sink = Arc::clone(&events);
        kernel.set_session_sink(Box::new(move |ev| {
            sink.lock().unwrap_or_else(|p| p.into_inner()).push_back(ev);
        }));
        Ok(Durable {
            kernel,
            events,
            next_session: 1,
            wal_path,
            journal_path,
            persist_ns: Vec::new(),
            compactions: 0,
        })
    }

    /// The kernel (read-only: metrics, telemetry, store).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The server's current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.kernel.now().as_nanos()
    }

    /// The WAL file's contents (for frame counts).
    pub fn wal_bytes(&self) -> Vec<u8> {
        std::fs::read(&self.wal_path).unwrap_or_default()
    }

    /// Bytes in the KV journal file right now.
    pub fn journal_file_bytes(&self) -> u64 {
        std::fs::metadata(&self.journal_path)
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Schedules one program — `schedule_durable` returning a pid is this
    /// path's ACCEPTED, the end point of set-up time.
    pub fn admit_one(&mut self, job: &Job, at_ns: u64) -> Result<(), String> {
        self.admit(job, at_ns).map(|_| ())
    }

    /// What the door does for a served program — parse, verify, cost
    /// hint — then `schedule_durable`. Returns the pid.
    fn admit(&mut self, job: &Job, at_ns: u64) -> Result<u64, String> {
        let prog = parse(&job.source).map_err(|e| e.render(&job.name))?;
        let report = verify(&prog);
        if let Some(d) = report.first_error() {
            return Err(d.render(&job.name));
        }
        let source = Arc::clone(&job.source);
        let image: ProgramImage = Arc::new(move |ctx| {
            run_lip(&source, ctx, InterpLimits::default())
                .map(|_| ())
                .map_err(|e| SysError::ToolFailed(e.to_string()))
        });
        let at = SimTime::from_nanos(at_ns.max(self.kernel.now().as_nanos()));
        let pid = self
            .kernel
            .schedule_durable(at, &job.name, &job.args, image);
        self.kernel
            .set_cost_hint(pid, report.effects.service_estimate());
        Ok(pid.0)
    }

    /// Serves one epoch; the stamps map admit → `feed`, `Kernel::run` →
    /// `pump`, journal persist + sink drain → `drain`.
    pub fn run_epoch(
        &mut self,
        origin: Instant,
        jobs: &[Job],
        arrivals: &[u64],
        keep_text: impl Fn(u64) -> bool,
    ) -> Result<Epoch, String> {
        assert_eq!(arrivals.len(), jobs.len());
        let stamp = || clock::ns_since(origin) as u64;
        let first = self.next_session;
        self.next_session += jobs.len() as u64;
        let mut sessions: BTreeMap<u64, SessionOutcome> = BTreeMap::new();
        let mut by_pid: BTreeMap<u64, u64> = BTreeMap::new();
        let events_before = self.kernel.events_processed();
        let mut wire = WireCounts::default();

        let mut stamps = EpochStamps {
            encode: stamp(),
            ..Default::default()
        };
        stamps.feed = stamps.encode;
        for (i, (job, &at)) in jobs.iter().zip(arrivals).enumerate() {
            let session = first + i as u64;
            sessions.insert(
                session,
                SessionOutcome::sent(session, at, keep_text(session)),
            );
            let pid = self.admit(job, at)?;
            by_pid.insert(pid, session);
            sessions.get_mut(&session).expect("just inserted").accepted = true;
            wire.accepted += 1;
        }
        stamps.pump = stamp();
        self.kernel.run();
        stamps.drain = stamp();
        let (compacted, persist_ns) = clock::time(|| self.kernel.persist_kv_delta());
        self.persist_ns.push(persist_ns as u64);
        if compacted.map_err(|e| format!("persist_kv_delta: {e}"))? {
            self.compactions += 1;
        }
        let drained: Vec<SessionEvent> = self
            .events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        stamps.decode = stamp();

        for ev in drained {
            match ev {
                SessionEvent::Emitted {
                    pid,
                    at,
                    text,
                    tokens,
                } => {
                    if let Some(s) = by_pid.get(&pid.0).and_then(|id| sessions.get_mut(id)) {
                        s.on_stream(at.as_nanos(), tokens, &text);
                        wire.frames += 1;
                        wire.bytes += text.len() as u64;
                    }
                }
                SessionEvent::Exited {
                    pid,
                    at,
                    status,
                    usage,
                } => {
                    if let Some(s) = by_pid.get(&pid.0).and_then(|id| sessions.get_mut(id)) {
                        s.on_done(
                            at.as_nanos(),
                            status == ExitStatus::Ok,
                            usage.emitted_tokens,
                            usage.pred_tokens,
                        );
                        wire.frames += 1;
                    }
                }
            }
        }
        stamps.end = stamp();
        Ok(Epoch {
            stamps,
            sessions: sessions.into_values().collect(),
            wire,
            events: self.kernel.events_processed() - events_before,
        })
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        // Hundreds of megabytes of log per run; nothing reads them back.
        let _ = std::fs::remove_file(&self.wal_path);
        let _ = std::fs::remove_file(&self.journal_path);
    }
}
