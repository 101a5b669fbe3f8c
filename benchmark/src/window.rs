//! One measurement window over an epoch server: a fixed number of
//! epochs. Fixed work, not fixed time: the kernel keeps every finished
//! process's record, so epochs get slower as a run gets longer, and two
//! commits are only comparable over the same epochs.
//!
//! *Open loop in virtual time, closed loop in host time*: inside an
//! epoch, sessions arrive on a seeded Poisson schedule on the server's
//! virtual clock and their latencies are timed from the scheduled
//! arrival; on the host, the next epoch starts when the previous one
//! has drained, from one driver thread.

use std::time::Instant;

use symphony::Kernel;
use symphony_sim::Rng;

use crate::client::{SessionOutcome, SimStats, Slo, WireCounts};
use crate::clock;
use crate::durable::Durable;
use crate::inproc::{Epoch, EpochStamps, Inproc, Recording};
use crate::schedule::poisson_arrivals;
use crate::span::{SpanId, Tracer};
use crate::workload::{Generator, Job, Workload, EPOCH_SESSIONS};

/// Sessions whose streamed text is kept for the isolation re-run.
pub const ISOLATION_SAMPLE: usize = 64;
/// The same under `--smoke`.
pub const ISOLATION_SAMPLE_SMOKE: usize = 8;

/// An in-process server that serves whole epochs.
pub enum Server {
    /// `ServerCore` behind SYMR frames.
    Serve(Box<Inproc>),
    /// The durable kernel API.
    Durable(Box<Durable>),
}

impl Server {
    /// Boots the server for `workload`.
    pub fn boot(
        workload: Workload,
        traced: bool,
        out_dir: &std::path::Path,
    ) -> Result<Self, String> {
        match workload {
            Workload::AgentDurable => Ok(Server::Durable(Box::new(Durable::new(out_dir, traced)?))),
            w => Ok(Server::Serve(Box::new(Inproc::new(
                w.build_kernel(traced),
            )?))),
        }
    }

    /// The kernel being driven.
    pub fn kernel(&self) -> &Kernel {
        match self {
            Server::Serve(s) => s.kernel(),
            Server::Durable(d) => d.kernel(),
        }
    }

    fn now_ns(&self) -> u64 {
        match self {
            Server::Serve(s) => s.now_ns(),
            Server::Durable(d) => d.now_ns(),
        }
    }

    fn run_epoch(
        &mut self,
        origin: Instant,
        jobs: &[Job],
        arrivals: &[u64],
        keep_text: impl Fn(u64) -> bool,
        record: Option<&mut Recording>,
    ) -> Result<Epoch, String> {
        match self {
            Server::Serve(s) => s.run_epoch(origin, jobs, arrivals, keep_text, record),
            Server::Durable(d) => d.run_epoch(origin, jobs, arrivals, keep_text),
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct WindowSpec {
    /// The workload generating sessions.
    pub workload: Workload,
    /// Generator seed.
    pub seed: u64,
    /// Arrival rate, sessions per virtual second; 0 for a burst.
    pub rate_per_s: f64,
    /// Epochs to run.
    pub epochs: usize,
    /// SLO limits for `sim_slo_ok_frac`.
    pub slo: Slo,
    /// Sessions, evenly spaced, kept for the isolation re-run.
    pub isolation_sample: usize,
}

/// A session kept for the isolation re-run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The submission.
    pub job: Job,
    /// What the served run streamed for it.
    pub text: String,
}

/// What a window measured.
pub struct Window {
    /// Host stamps of every epoch, warm-up included.
    pub stamps: Vec<EpochStamps>,
    /// Epochs at the start excluded from host-time statistics: LIP pool
    /// growth and other lazy set-up land in them.
    pub warmup_epochs: usize,
    /// Virtual-time statistics over every session sent.
    pub sim: SimStats,
    /// Peak RSS (VmHWM) of this process when the last epoch had drained.
    pub peak_rss_mb: f64,
    /// Wire counts.
    pub wire: WireCounts,
    /// Kernel events processed, one value per epoch.
    pub epoch_events: Vec<u64>,
    /// Sessions completed over sessions arrived during the second half
    /// of an epoch's arrival schedule, one value per epoch: about 1
    /// while the server keeps up with the arrival rate, below it while a
    /// backlog builds, whatever order the scheduler serves it in. One
    /// of the two tests `--calibrate` finds the saturation rate with.
    pub keep_up: Vec<f64>,
    /// Sessions for the isolation re-run.
    pub samples: Vec<Sample>,
    /// Wire bytes of the first epoch, for the probes.
    pub recording: Recording,
    /// Jobs of the first epoch, for the probes.
    pub first_jobs: Vec<Job>,
    /// GPU pages in use at the end of an epoch, highest seen.
    pub gpu_pages_peak: usize,
    /// Forked (reused) prompt tokens; see `kvfs.prefix_reuse_frac`.
    pub forked_tokens: u64,
}

impl Window {
    /// Sessions per host second, one value per measured epoch.
    pub fn epoch_rates(&self) -> Vec<f64> {
        self.measured()
            .map(|s| EPOCH_SESSIONS as f64 / (s.timed_ns() as f64 / 1e9))
            .collect()
    }

    /// Stamps of the measured (non-warm-up) epochs.
    pub fn measured(&self) -> impl Iterator<Item = &EpochStamps> {
        self.stamps.iter().skip(self.warmup_epochs)
    }

    /// Sessions sent.
    pub fn sent(&self) -> u64 {
        self.sim.sent
    }

    /// Sessions sent without a DONE{Ok}.
    pub fn failed(&self) -> u64 {
        self.sim.failed()
    }
}

/// Warm-up epochs for a window of `epochs`: the first 5 %, at least one.
pub fn warmup_for(epochs: usize) -> usize {
    (epochs.div_ceil(20)).max(1).min(epochs.saturating_sub(1))
}

/// Peak resident set of the process `pid` (`self` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    proc_status_kb(pid, "VmHWM:") / 1024.0
}

/// Threads of this process right now.
pub fn thread_count() -> f64 {
    proc_status_kb("self", "Threads:")
}

fn proc_status_kb(pid: &str, key: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Runs one window on `server`. With a `tracer`, every epoch is
/// recorded as `epoch > {gen, encode, serve.feed, serve.pump,
/// serve.drain, client.decode}` under `run`, and every session as
/// `session > {ttft, stream}` on the virtual clock.
pub fn run_window(
    server: &mut Server,
    spec: WindowSpec,
    mut tracer: Option<(&mut Tracer, SpanId)>,
    origin: Instant,
) -> Result<Window, String> {
    let mut generator = Generator::new(spec.workload, spec.seed);
    let mut arrivals_rng = Rng::new(spec.seed ^ 0xa221_7a15);
    let total = (spec.epochs * EPOCH_SESSIONS) as u64;
    let stride = (total / spec.isolation_sample.max(1) as u64).max(1);
    let sampled = |session: u64| (session - 1).is_multiple_of(stride);
    let doc_tokens = corpus_doc_tokens(spec.workload, server.kernel());

    let mut out = Window {
        stamps: Vec::new(),
        warmup_epochs: 0,
        sim: SimStats::default(),
        peak_rss_mb: 0.0,
        wire: WireCounts::default(),
        epoch_events: Vec::new(),
        keep_up: Vec::new(),
        samples: Vec::new(),
        recording: Recording::default(),
        first_jobs: Vec::new(),
        gpu_pages_peak: 0,
        forked_tokens: 0,
    };
    for epoch_idx in 0..spec.epochs {
        let gen_start = clock::ns_since(origin) as u64;
        let jobs = generator.next_epoch();
        let arrivals = poisson_arrivals(
            &mut arrivals_rng,
            server.now_ns(),
            spec.rate_per_s,
            EPOCH_SESSIONS,
        );
        let record = (epoch_idx == 0).then_some(&mut out.recording);
        let epoch = server.run_epoch(origin, &jobs, &arrivals, sampled, record)?;
        out.gpu_pages_peak = out
            .gpu_pages_peak
            .max(server.kernel().store().gpu_pages_used());

        if let Some((tracer, run)) = tracer.as_mut() {
            record_spans(tracer, *run, gen_start, &epoch);
        }
        out.stamps.push(epoch.stamps);
        out.epoch_events.push(epoch.events);
        out.wire.add(epoch.wire);
        out.keep_up.push(keep_up(&epoch.sessions));
        for (job, s) in jobs.iter().zip(&epoch.sessions) {
            if let Some(text) = &s.text {
                out.samples.push(Sample {
                    job: job.clone(),
                    text: text.clone(),
                });
            }
            if s.ok {
                out.forked_tokens += forked_tokens(job, &doc_tokens);
            }
        }
        out.sim.add(epoch.sessions.into_iter(), spec.slo);
        if epoch_idx == 0 {
            out.first_jobs = jobs;
        }
    }
    out.peak_rss_mb = peak_rss_mb("self");
    out.warmup_epochs = warmup_for(out.stamps.len());
    Ok(out)
}

/// See [`Window::keep_up`]. `sessions` are in arrival order.
fn keep_up(sessions: &[SessionOutcome]) -> f64 {
    let (Some(mid), Some(end)) = (sessions.get(sessions.len() / 2), sessions.last()) else {
        return 1.0;
    };
    let second_half = |t: u64| t > mid.arrival_ns && t <= end.arrival_ns;
    let arrived = sessions
        .iter()
        .filter(|s| second_half(s.arrival_ns))
        .count();
    let completed = sessions
        .iter()
        .filter(|s| s.done_ns.is_some_and(second_half))
        .count();
    if arrived == 0 {
        1.0
    } else {
        completed as f64 / arrived as f64
    }
}

/// Token length of each preloaded `doc{n}.kv`, read from the store.
fn corpus_doc_tokens(workload: Workload, kernel: &Kernel) -> Vec<u64> {
    if workload != Workload::RagChurn {
        return Vec::new();
    }
    (0..crate::workload::RAG_DOCS)
        .map(|d| {
            kernel
                .store()
                .lookup(&format!("doc{d}.kv"))
                .and_then(|f| kernel.store().len(f).ok())
                .unwrap_or(0) as u64
        })
        .collect()
}

/// Prompt tokens a session took from a forked file instead of
/// prefilling: the document length for a RAG reader, 0 otherwise.
fn forked_tokens(job: &Job, doc_tokens: &[u64]) -> u64 {
    if !job.name.starts_with("rag-") {
        return 0;
    }
    job.args
        .split('|')
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .and_then(|t| doc_tokens.get(t).copied())
        .unwrap_or(0)
}

fn record_spans(tracer: &mut Tracer, run: SpanId, gen_start: u64, epoch: &Epoch) {
    let s = epoch.stamps;
    let e = tracer.host("epoch", Some(run), gen_start, s.end);
    tracer.host("gen", Some(e), gen_start, s.encode);
    tracer.host("encode", Some(e), s.encode, s.feed);
    tracer.host("serve.feed", Some(e), s.feed, s.pump);
    tracer.host("serve.pump", Some(e), s.pump, s.drain);
    tracer.host("serve.drain", Some(e), s.drain, s.decode);
    tracer.host("client.decode", Some(e), s.decode, s.end);
    tracer.extend_to(run, s.end);
    for o in &epoch.sessions {
        record_session(tracer, e, o);
    }
}

fn record_session(tracer: &mut Tracer, epoch: SpanId, o: &SessionOutcome) {
    let Some(done) = o.done_ns else { return };
    let session = tracer.session("session", Some(epoch), o.session, o.arrival_ns, done);
    if let Some(first) = o.first_token_ns {
        tracer.session("ttft", Some(session), o.session, o.arrival_ns, first);
        tracer.session("stream", Some(session), o.session, first, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_is_five_percent_and_at_least_one() {
        assert_eq!(warmup_for(1), 0);
        assert_eq!(warmup_for(2), 1);
        assert_eq!(warmup_for(20), 1);
        assert_eq!(warmup_for(21), 2);
        assert_eq!(warmup_for(100), 5);
    }

    #[test]
    fn traced_epoch_self_times_sum_to_the_epoch_wall() {
        let w = Workload::AgentLoop;
        let mut server = Server::boot(w, false, std::path::Path::new("out")).expect("boot");
        let mut tracer = Tracer::new();
        let origin = clock::now();
        let run = tracer.host("run", None, 0, 0);
        let spec = WindowSpec {
            workload: w,
            seed: 1,
            rate_per_s: 0.0,
            epochs: 2,
            slo: Slo {
                ttft_ms: 1e9,
                itl_ms: 1e9,
            },
            isolation_sample: ISOLATION_SAMPLE_SMOKE,
        };
        let window =
            run_window(&mut server, spec, Some((&mut tracer, run)), origin).expect("window");
        assert_eq!(window.failed(), 0);
        let epochs = tracer.named("epoch");
        assert_eq!(epochs.len(), 2);
        for e in epochs {
            let children = tracer.children(e);
            assert_eq!(children.len(), 6);
            let sum: u64 =
                tracer.self_ns(e) + children.iter().map(|&c| tracer.self_ns(c)).sum::<u64>();
            assert_eq!(sum, tracer.get(e).duration_ns());
            assert!(tracer.covered_ns(e) <= tracer.get(e).duration_ns());
        }
        assert_eq!(tracer.named("session").len(), 2 * EPOCH_SESSIONS);
    }
}
