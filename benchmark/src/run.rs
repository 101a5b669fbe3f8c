//! One benchmark run: a workload, a seed, a time budget, traced or not.
//!
//! `--trace 0` measures the end-to-end metrics with kernel telemetry
//! off. `--trace 1` runs the workload again at quarter length twice —
//! once as it ships, once with typed telemetry and causal edges on —
//! records the benchmark-side spans, replays the recorded inputs through
//! each layer's public API, and reports the per-layer metrics. Both
//! finish with the correctness checks: no session failed, and a sample
//! of sessions re-run alone on a fresh kernel streamed the same bytes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use symphony::telemetry::{analyze, build_forest, MetricValue, MetricsSnapshot, Phase};
use symphony::Kernel;

use crate::client::{SimStats, Slo};
use crate::clock;
use crate::inproc::Inproc;
use crate::isolation::{self, IsolationReport};
use crate::metrics::{Sheet, END_TO_END, PER_LAYER};
use crate::pin::Placement;
use crate::probes::{self, Effort};
use crate::span::Tracer;
use crate::stats;
use crate::tcp::{self, ServerChild, TcpRun, TcpSpec, TCP_CONNS, TCP_WINDOW};
use crate::window::{self, run_window, Server, Window, WindowSpec};
use crate::workload::{Generator, Job, Workload, EPOCH_SESSIONS};

/// Sessions under `output_digest_head`: two epochs, what `--smoke` runs.
const HEAD_SESSIONS: u64 = 2 * EPOCH_SESSIONS as u64;

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 31;

/// Everything a run needs to know.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Generator seed.
    pub seed: u64,
    /// Host seconds the measurement should fill.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// `--smoke`: two epochs, one set-up, tiny probes.
    pub smoke: bool,
    /// Where the process is pinned.
    pub place: Placement,
    /// The `symphony-serve` binary for `tcp_agent`.
    pub serve_bin: PathBuf,
    /// Directory for logs and traces.
    pub out_dir: PathBuf,
    /// This executable, for set-up children.
    pub self_exe: PathBuf,
}

/// What a run produced.
pub struct Report {
    /// Sessions sent in the measured window.
    pub attempted: u64,
    /// Of those, sessions without a DONE{Ok}.
    pub failed: u64,
    /// The metric values.
    pub sheet: Sheet,
    /// `key value` facts that are not metrics: digests, counts per
    /// phase, check outcomes.
    pub info: Vec<(String, String)>,
    /// Correctness checks that failed.
    pub problems: Vec<String>,
}

impl Report {
    /// Every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

impl Options {
    fn effort(&self) -> Effort {
        if self.smoke {
            Effort::Smoke
        } else {
            Effort::Full
        }
    }

    /// Epochs of the end-to-end window: the frozen count for a 10 s
    /// window, scaled by `--seconds`.
    fn epochs(&self) -> usize {
        if self.smoke {
            return 2;
        }
        let per_10s = self.workload.frozen().epochs_per_10s as f64;
        ((per_10s * self.seconds / 10.0).round() as usize).max(2)
    }

    /// Epochs of each half of the traced run: a quarter of the window.
    fn traced_epochs(&self) -> usize {
        (self.epochs() / 4).max(2)
    }

    fn slo(&self) -> Slo {
        let f = self.workload.frozen();
        Slo {
            ttft_ms: f.slo_ttft_ms,
            itl_ms: f.slo_itl_ms,
        }
    }

    fn window_spec(&self, workload: Workload, epochs: usize) -> WindowSpec {
        WindowSpec {
            workload,
            seed: self.seed,
            rate_per_s: workload.arrival_rate(),
            epochs,
            slo: self.slo(),
            isolation_sample: self.isolation_sample(),
        }
    }

    fn isolation_sample(&self) -> usize {
        if self.smoke {
            window::ISOLATION_SAMPLE_SMOKE
        } else {
            window::ISOLATION_SAMPLE
        }
    }
}

/// Runs what `opts` describes.
pub fn run(opts: &Options) -> Result<Report, String> {
    match (opts.workload, opts.trace) {
        (Workload::TcpAgent, false) => tcp_end_to_end(opts),
        (Workload::TcpAgent, true) => tcp_per_layer(opts),
        (_, false) => inproc_end_to_end(opts),
        (_, true) => inproc_per_layer(opts),
    }
}

// ---- set-up time -----------------------------------------------------------

/// Body of a `--setup-child` process: boot the workload's server, send
/// one SUBMIT, and return once it is ACCEPTED.
pub fn setup_child(workload: Workload, out_dir: &Path) -> Result<(), String> {
    let mut server = Server::boot(workload, false, out_dir)?;
    let job = Generator::new(workload, 1).next_job();
    let now = server.kernel().now().as_nanos();
    match &mut server {
        Server::Serve(s) => s.submit_one(&job, now),
        Server::Durable(d) => d.admit_one(&job, now),
    }
}

/// `setup_s` for the in-process workloads: process start → first
/// ACCEPTED of a fresh child process, [`SETUP_REPS`] times.
fn measure_setup_inproc(opts: &Options) -> Result<Vec<f64>, String> {
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut samples = Vec::new();
    for _ in 0..reps {
        let start = clock::now();
        let mut child = Command::new(&opts.self_exe)
            .args(["--setup-child", opts.workload.name()])
            .arg("--out-dir")
            .arg(&opts.out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: {e}", opts.self_exe.display()))?;
        let stdout = child.stdout.take().ok_or("set-up child has no stdout")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = clock::ns_since(start) / 1e9;
        let status = child.wait().map_err(|e| e.to_string())?;
        read.map_err(|e| e.to_string())?;
        if line.trim() != "accepted" || !status.success() {
            return Err(format!("set-up child failed ({status}): {}", line.trim()));
        }
        samples.push(elapsed);
    }
    Ok(samples)
}

/// Why host-time numbers cannot be trusted when the process is not
/// pinned: the kernel thread and the LIP workers then share or split
/// cores as the OS pleases, and the same work runs up to five times
/// slower.
const NOT_PINNED: &str = "UNRESOLVED: affinity could not be set (host.pinned 0)";

/// The `setup_s` row: the median of the set-ups timed, or unresolved
/// when the process is not pinned.
fn setup_row(sheet: &mut Sheet, samples: &[f64], pinned: bool) {
    if !pinned {
        return sheet.set_unresolved("setup_s", NOT_PINNED);
    }
    let q = stats::quartiles(samples);
    sheet.set(
        "setup_s",
        q.median,
        format!("median of {} set-ups, q1 {:.4} q3 {:.4}", q.n, q.q1, q.q3),
    );
}

/// Host-time throughput of a window: the median of `rates`, one per
/// epoch (per chunk of an epoch's worth of completions over the
/// socket), with quartiles and sample count. Not an end-to-end metric:
/// on a shared host ten runs of one binary do not agree on it within
/// any bound the contract allows, so nothing is gated on it. It is the
/// `host.sessions_per_s` row of the traced run and a fact of the
/// untraced one, for comparisons made with interleaved runs.
fn rate_note(rates: &[f64], what: &str) -> (f64, String) {
    let r = stats::quartiles(rates);
    (
        r.median,
        format!(
            "median of {} {what}, q1 {:.1} q3 {:.1}; raw host time, not gated",
            r.n, r.q1, r.q3
        ),
    )
}

/// The `host.sessions_per_s` fact of a `--trace 0` run.
fn rate_fact(info: &mut Vec<(String, String)>, rates: &[f64], what: &str, pinned: bool) {
    let value = if pinned {
        let (median, note) = rate_note(rates, what);
        format!("{median} 1/s  # {note}")
    } else {
        NOT_PINNED.into()
    };
    info.push(("host.sessions_per_s".into(), value));
}

// ---- in-process workloads, end to end --------------------------------------

fn inproc_end_to_end(opts: &Options) -> Result<Report, String> {
    let mut sheet = Sheet::new(END_TO_END);
    let mut info = Vec::new();
    let mut problems = Vec::new();

    setup_row(&mut sheet, &measure_setup_inproc(opts)?, opts.place.pinned);

    let mut server = Server::boot(opts.workload, false, &opts.out_dir)?;
    let spec = opts.window_spec(opts.workload, opts.epochs());
    let mut w = run_window(&mut server, spec, None, clock::now())?;

    rate_fact(
        &mut info,
        &w.epoch_rates(),
        &format!("epochs ({} warm-up excluded)", w.warmup_epochs),
        opts.place.pinned,
    );
    sheet.set(
        "peak_rss_mb",
        w.peak_rss_mb,
        format!("VmHWM after {} epochs", spec.epochs),
    );
    for (name, value, note) in w.sim.metrics() {
        sheet.set(name, value, note);
    }
    phase_info(&mut info, "window", w.sim.sent, w.sim.ok);
    digest_info(&mut info, &w.sim);

    let iso = isolation::rerun(opts.workload, &w.samples);
    check_isolation(&iso, &mut info, &mut problems);
    if w.failed() > 0 {
        problems.push(format!("{} of {} sessions failed", w.failed(), w.sent()));
    }
    Ok(Report {
        attempted: w.sent(),
        failed: w.failed(),
        sheet,
        info,
        problems,
    })
}

/// The digest over every session, and over the first [`HEAD_SESSIONS`]
/// so runs of different length can be compared.
fn digest_info(info: &mut Vec<(String, String)>, sim: &SimStats) {
    info.push((
        "output_digest".into(),
        format!("{:016x}", sim.output_digest(u64::MAX)),
    ));
    info.push((
        "output_digest_head".into(),
        format!(
            "{:016x} (first {HEAD_SESSIONS} sessions)",
            sim.output_digest(HEAD_SESSIONS)
        ),
    ));
}

fn phase_info(info: &mut Vec<(String, String)>, phase: &str, sent: u64, ok: u64) {
    info.push((
        format!("sessions.{phase}"),
        format!("sent {sent} ok {ok} failed {}", sent - ok),
    ));
}

fn check_isolation(
    iso: &IsolationReport,
    info: &mut Vec<(String, String)>,
    problems: &mut Vec<String>,
) {
    info.push((
        "isolation_rerun".into(),
        format!(
            "{} of {} sessions streamed identical bytes alone",
            iso.matched, iso.total
        ),
    ));
    if !iso.ok() {
        problems.push(format!(
            "isolation re-run: {} of {} matched; {}",
            iso.matched,
            iso.total,
            iso.first_mismatch.clone().unwrap_or_default()
        ));
    }
}

// ---- in-process workloads, per layer ---------------------------------------

/// Counters read off a kernel after a window.
struct KernelCounts {
    sessions: f64,
    syscalls: f64,
    pred_calls: f64,
    pred_tokens: f64,
    emitted_tokens: f64,
    snapshot: MetricsSnapshot,
}

fn kernel_counts(kernel: &Kernel) -> KernelCounts {
    let mut c = KernelCounts {
        sessions: 0.0,
        syscalls: 0.0,
        pred_calls: 0.0,
        pred_tokens: 0.0,
        emitted_tokens: 0.0,
        snapshot: kernel.metrics_snapshot(),
    };
    for r in kernel.records() {
        c.sessions += 1.0;
        c.syscalls += r.usage.syscalls as f64;
        c.pred_calls += r.usage.pred_calls as f64;
        c.pred_tokens += r.usage.pred_tokens as f64;
        c.emitted_tokens += r.usage.emitted_tokens as f64;
    }
    c
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Mean and sample count of a registry histogram.
fn histogram_mean(snap: &MetricsSnapshot, name: &str) -> (f64, u64) {
    match snap.get(name) {
        Some(MetricValue::Histogram { count, sum, .. }) if *count > 0 => {
            (*sum as f64 / *count as f64, *count)
        }
        _ => (0.0, 0),
    }
}

/// Totals of the measured (non-warm-up) epochs of a window, in host
/// nanoseconds.
struct HostTotals {
    sessions: f64,
    feed_ns: f64,
    pump_ns: f64,
    drain_ns: f64,
}

fn host_totals(w: &Window) -> HostTotals {
    let mut t = HostTotals {
        sessions: 0.0,
        feed_ns: 0.0,
        pump_ns: 0.0,
        drain_ns: 0.0,
    };
    for s in w.measured() {
        t.sessions += EPOCH_SESSIONS as f64;
        t.feed_ns += (s.pump - s.feed) as f64;
        t.pump_ns += (s.drain - s.pump) as f64;
        t.drain_ns += (s.decode - s.drain) as f64;
    }
    t
}

fn inproc_per_layer(opts: &Options) -> Result<Report, String> {
    let mut sheet = Sheet::new(PER_LAYER);
    let mut info = Vec::new();
    let mut problems = Vec::new();
    let effort = opts.effort();
    sheet.set("host.pinned", f64::from(u8::from(opts.place.pinned)), "");
    sheet.set(
        "host.calib_mops_before",
        probes::calib_mops(effort),
        "FNV-1a loop",
    );

    let epochs = opts.traced_epochs();
    let spec = opts.window_spec(opts.workload, epochs);

    // The workload as it ships: host-time rows and kernel counters.
    let mut reference = Server::boot(opts.workload, false, &opts.out_dir)?;
    let r = run_window(&mut reference, spec, None, clock::now())?;
    let threads = window::thread_count();

    // The same epochs with kernel telemetry and causal edges on.
    let mut traced_server = Server::boot(opts.workload, true, &opts.out_dir)?;
    let mut tracer = Tracer::new();
    let origin = clock::now();
    let run_span = tracer.host("run", None, 0, 0);
    let t = run_window(
        &mut traced_server,
        spec,
        Some((&mut tracer, run_span)),
        origin,
    )?;

    if r.failed() + t.failed() > 0 {
        problems.push(format!(
            "{} sessions failed untraced, {} traced",
            r.failed(),
            t.failed()
        ));
    }
    phase_info(&mut info, "untraced", r.sim.sent, r.sim.ok);
    phase_info(&mut info, "traced", t.sim.sent, t.sim.ok);
    let (dr, dt) = (r.sim.output_digest(u64::MAX), t.sim.output_digest(u64::MAX));
    digest_info(&mut info, &r.sim);
    if dr != dt {
        problems.push(format!(
            "output_digest differs between repetitions: {dr:016x} untraced, {dt:016x} traced"
        ));
    }
    check_span_arithmetic(&tracer, &mut info, &mut problems);

    let kc = kernel_counts(reference.kernel());
    let h = host_totals(&r);
    let serve = matches!(reference, Server::Serve(_));
    let pump_us = h.pump_ns / h.sessions / 1e3;
    if serve {
        sheet.set(
            "serve.feed_us_per_submit",
            h.feed_ns / h.sessions / 1e3,
            format!("{} submits", h.sessions),
        );
        sheet.set(
            "serve.drain_us_per_session",
            h.drain_ns / h.sessions / 1e3,
            "take_output on 32 connections",
        );
        sheet.set(
            "serve.door_share",
            h.feed_ns / (h.feed_ns + h.pump_ns + h.drain_ns),
            "feed / (feed + pump + drain)",
        );
        sheet.set(
            "serve.frames_out_per_session",
            r.wire.frames as f64 / r.sim.sent as f64,
            format!("{} frames", r.wire.frames),
        );
        sheet.set(
            "serve.bytes_out_per_session",
            r.wire.bytes as f64 / r.sim.sent as f64,
            format!("{} bytes", r.wire.bytes),
        );
        sheet.set(
            "serve.accepted",
            counter(&kc.snapshot, "serve.sessions.accepted"),
            "",
        );
        sheet.set(
            "serve.shed",
            counter(&kc.snapshot, "serve.sessions.shed"),
            "",
        );
        sheet.set("serve.errors", counter(&kc.snapshot, "serve.errors"), "");
    }
    sheet.set(
        "serve.pump_us_per_session",
        pump_us,
        if serve {
            "ServerCore::pump"
        } else {
            "Kernel::run (no door on this path)"
        },
    );

    // core
    let syscalls_per_session = kc.syscalls / kc.sessions.max(1.0);
    let events: u64 = r.epoch_events.iter().skip(r.warmup_epochs).sum();
    sheet.set(
        "core.events_per_s",
        events as f64 / (h.pump_ns / 1e9),
        format!("{events} events"),
    );
    sheet.set(
        "core.syscalls_per_session",
        syscalls_per_session,
        format!("{} sessions", kc.sessions),
    );
    sheet.set(
        "core.pump_us_per_syscall",
        pump_us / syscalls_per_session.max(1.0),
        "",
    );
    sheet.set(
        "core.lip_threads_peak",
        threads - 1.0,
        "process threads after the window, minus main",
    );
    let (qd_mean, qd_n) = histogram_mean(&kc.snapshot, "sched.queue_delay_ns");
    sheet.set(
        "core.sched.queue_delay_ms_mean",
        qd_mean / 1e6,
        format!("{qd_n} preds"),
    );
    sheet.set(
        "core.preemptions",
        reference.kernel().preemptions() as f64,
        "",
    );
    sheet.set(
        "core.prefill_chunks",
        reference.kernel().prefill_chunks() as f64,
        "",
    );

    // gpu
    let gpu = reference.kernel().gpu_metrics();
    let makespan = r.sim.makespan_s();
    sheet.set(
        "gpu.batches_per_session",
        gpu.batches as f64 / kc.sessions.max(1.0),
        format!("{} batches", gpu.batches),
    );
    let (occ_mean, occ_n) = histogram_mean(&kc.snapshot, "gpu.batch_occupancy_pct");
    sheet.set(
        "gpu.batch_occupancy_mean",
        occ_mean / 100.0,
        format!("{occ_n} batches, share of max_batch"),
    );
    sheet.set(
        "gpu.busy_frac",
        gpu.busy.as_secs_f64() / makespan.max(1e-9),
        format!(
            "{:.3} busy of {makespan:.3} virtual s",
            gpu.busy.as_secs_f64()
        ),
    );

    // kvfs
    let kv = reference.kernel().kv_stats();
    let per_session = |v: u64| v as f64 / kc.sessions.max(1.0);
    sheet.set(
        "kvfs.cow_copies_per_session",
        per_session(kv.cow_copies),
        "",
    );
    sheet.set(
        "kvfs.swapped_in_tokens_per_session",
        per_session(kv.swapped_in_tokens),
        "",
    );
    sheet.set(
        "kvfs.swapped_out_tokens_per_session",
        per_session(kv.swapped_out_tokens),
        "",
    );
    let prefilled = (kc.pred_tokens - kc.emitted_tokens).max(0.0);
    sheet.set(
        "kvfs.prefix_reuse_frac",
        r.forked_tokens as f64 / (r.forked_tokens as f64 + prefilled).max(1.0),
        format!(
            "{} forked, {prefilled} prefilled prompt tokens",
            r.forked_tokens
        ),
    );
    sheet.set(
        "kvfs.gpu_pages_peak_frac",
        r.gpu_pages_peak as f64 / reference.kernel().store().gpu_pages_capacity().max(1) as f64,
        "highest epoch-end sample",
    );

    // durable-only rows, and the pair with agent_loop
    if let Server::Durable(d) = &reference {
        let wal = d.wal_bytes();
        let frames: u64 = symphony::wal::frame_counts(&wal)
            .map(|m| m.values().sum())
            .unwrap_or(0);
        sheet.set(
            "core.wal.bytes_per_session",
            wal.len() as f64 / kc.sessions.max(1.0),
            format!("{} bytes, no fsync: page-cache appends", wal.len()),
        );
        sheet.set(
            "core.wal.frames_per_session",
            frames as f64 / kc.sessions.max(1.0),
            format!("{frames} frames"),
        );
        sheet.set(
            "core.wal.checkpoints",
            counter(&kc.snapshot, "kernel.checkpoints"),
            "",
        );
        sheet.set(
            "kvfs.journal.bytes_final",
            d.journal_file_bytes() as f64,
            "",
        );
        sheet.set("kvfs.journal.compactions", d.compactions as f64, "");
        let persist: Vec<f64> = d.persist_ns.iter().map(|&n| n as f64 / 1e3).collect();
        sheet.set(
            "kvfs.journal.persist_us_per_epoch",
            stats::median(&persist),
            format!("median of {} epochs", persist.len()),
        );
        let mut plain = Server::boot(Workload::AgentLoop, false, &opts.out_dir)?;
        let p = run_window(
            &mut plain,
            opts.window_spec(Workload::AgentLoop, epochs),
            None,
            clock::now(),
        )?;
        let ph = host_totals(&p);
        // The whole timed section on both sides: admit + run + persist
        // against feed + pump + drain. Pump alone would count the frame
        // encoding `ServerCore` does inside it against `agent_loop`.
        let timed_us = |t: &HostTotals| (t.feed_ns + t.pump_ns + t.drain_ns) / t.sessions / 1e3;
        let (durable_us, plain_us) = (timed_us(&h), timed_us(&ph));
        sheet.set(
            "core.durable_slowdown",
            durable_us / plain_us.max(1e-9),
            format!("{durable_us:.1} us durable / {plain_us:.1} us agent_loop timed section per session"),
        );
        if p.sim.output_digest(u64::MAX) != dr {
            problems.push("agent_durable streamed different bytes than agent_loop".into());
        }
    }

    // telemetry: event counts and critical path from the traced kernel
    let tk = traced_server.kernel();
    let traced_sessions = t.sim.sent as f64;
    sheet.set(
        "telemetry.events_per_session",
        tk.telemetry_events().len() as f64 / traced_sessions.max(1.0),
        format!("{} events", tk.telemetry_events().len()),
    );
    let (ref_rate, traced_rate) = (
        stats::median(&r.epoch_rates()),
        stats::median(&t.epoch_rates()),
    );
    sheet.set(
        "telemetry.overhead_frac",
        1.0 - traced_rate / ref_rate.max(1e-9),
        format!("{traced_rate:.1} traced vs {ref_rate:.1} untraced sessions/s"),
    );
    critical_path_rows(&mut sheet, tk);
    let (rate, note) = rate_note(
        &r.epoch_rates(),
        &format!("epochs ({} warm-up excluded)", r.warmup_epochs),
    );
    sheet.set("host.sessions_per_s", rate, note);
    sheet.set(
        "host.epoch_rate_iqr_frac",
        stats::quartiles(&r.epoch_rates()).iqr_frac(),
        format!("{} epochs", r.epoch_rates().len()),
    );

    // probes on the recorded inputs
    let iso = isolation::rerun(opts.workload, &r.samples);
    check_isolation(&iso, &mut info, &mut problems);
    sheet.set(
        "lipscript.fuel_per_session",
        iso.fuel_per_session(),
        format!("{} isolated sessions", iso.total),
    );
    let costs = probe_rows(
        &mut sheet,
        opts.workload,
        &r.recording,
        &r.first_jobs,
        reference.kernel(),
        effort,
    );
    if pump_us > 0.0 {
        let per_session = |v: f64| v / kc.sessions.max(1.0);
        let events_per_session = events as f64 / h.sessions;
        let shares = [
            (
                "pump_share.handoff",
                syscalls_per_session * costs.handoff_us,
            ),
            (
                "pump_share.lipscript",
                (iso.fuel_per_session() * costs.interp_ns_per_fuel) / 1e3 + costs.parse_us,
            ),
            (
                "pump_share.model",
                per_session(kc.pred_tokens) * costs.next_dist_ns / 1e3,
            ),
            (
                "pump_share.gpu",
                gpu.batches as f64 / kc.sessions.max(1.0) * costs.cost_eval_ns / 1e3,
            ),
            (
                "pump_share.kvfs",
                (per_session(kc.pred_calls) + 4.0) * costs.kvfs_op_ns / 1e3,
            ),
            (
                "pump_share.rpc",
                if serve {
                    r.wire.frames as f64 / r.sim.sent as f64 * costs.rpc_encode_ns / 1e3
                } else {
                    0.0
                },
            ),
            (
                "pump_share.sched",
                per_session(kc.pred_calls) * 3.0 * costs.sched_ns / 1e3,
            ),
            (
                "pump_share.sim",
                events_per_session * 2.0 * costs.event_queue_ns / 1e3,
            ),
            (
                "pump_share.tokenizer",
                per_session(prefilled) * costs.tokenizer_ns / 1e3,
            ),
        ];
        let mut attributed = 0.0;
        for (name, us) in shares {
            let share = us / pump_us;
            attributed += share;
            sheet.set(
                name,
                share,
                format!("{us:.1} us of {pump_us:.1} us pump per session"),
            );
        }
        sheet.set(
            "core.unattributed_share",
            1.0 - attributed,
            "1 - sum of pump_share.*",
        );
    }

    let trace_path = opts
        .out_dir
        .join(format!("{}.trace.json", opts.workload.name()));
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    std::fs::write(&trace_path, tracer.to_chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    info.push(("trace_file".into(), trace_path.display().to_string()));
    sheet.set(
        "host.calib_mops_after",
        probes::calib_mops(effort),
        "FNV-1a loop",
    );

    Ok(Report {
        attempted: r.sent() + t.sent(),
        failed: r.failed() + t.failed(),
        sheet,
        info,
        problems,
    })
}

/// For every epoch span: children stay inside it, and its own self time
/// plus its children's self times is its wall time.
fn check_span_arithmetic(
    tracer: &Tracer,
    info: &mut Vec<(String, String)>,
    problems: &mut Vec<String>,
) {
    let mut worst: f64 = 0.0;
    let epochs = tracer.named("epoch");
    for &e in &epochs {
        let wall = tracer.get(e).duration_ns() as f64;
        let sum = tracer.self_ns(e)
            + tracer
                .children(e)
                .iter()
                .map(|&c| tracer.self_ns(c))
                .sum::<u64>();
        worst = worst.max((sum as f64 - wall).abs() / wall.max(1.0));
    }
    info.push((
        "span_self_time_check".into(),
        format!(
            "{} epochs, worst |sum of self times - wall| / wall = {worst:.6}",
            epochs.len()
        ),
    ));
    if worst > 0.01 {
        problems.push(format!("span self times miss the epoch wall by {worst:.4}"));
    }
}

fn critical_path_rows(sheet: &mut Sheet, kernel: &Kernel) {
    let forest = build_forest(kernel.telemetry_events());
    let breakdowns = analyze(&forest);
    let total: u64 = breakdowns.iter().map(|b| b.total_ns).sum();
    let frac = |phases: &[Phase]| -> f64 {
        let ns: u64 = breakdowns
            .iter()
            .map(|b| phases.iter().map(|&p| b.get(p)).sum::<u64>())
            .sum();
        ns as f64 / total.max(1) as f64
    };
    let note = format!("{} programs, virtual time", breakdowns.len());
    let rows = [
        ("critpath.queue_wait_frac", frac(&[Phase::QueueWait])),
        ("critpath.prefill_frac", frac(&[Phase::Prefill])),
        ("critpath.decode_frac", frac(&[Phase::Decode])),
        ("critpath.tool_frac", frac(&[Phase::Tool])),
        (
            "critpath.kv_swap_frac",
            frac(&[Phase::KvSwapIn, Phase::KvSwapOut]),
        ),
    ];
    let named: f64 = rows.iter().map(|(_, v)| v).sum();
    for (name, v) in rows {
        sheet.set(name, v, note.clone());
    }
    sheet.set(
        "critpath.other_frac",
        1.0 - named,
        "rest of the critical path",
    );
}

/// Unit costs the probes measured, for the pump-share estimate.
struct ProbeCosts {
    handoff_us: f64,
    interp_ns_per_fuel: f64,
    parse_us: f64,
    next_dist_ns: f64,
    cost_eval_ns: f64,
    kvfs_op_ns: f64,
    rpc_encode_ns: f64,
    sched_ns: f64,
    event_queue_ns: f64,
    tokenizer_ns: f64,
}

/// Runs every probe and records its row.
fn probe_rows(
    sheet: &mut Sheet,
    workload: Workload,
    rec: &crate::inproc::Recording,
    jobs: &[Job],
    kernel: &Kernel,
    effort: Effort,
) -> ProbeCosts {
    let rpc_decode = probes::rpc_decode_ns(rec, effort);
    let (rpc_encode, sim_frame) = probes::frame_encode_ns(rec, effort);
    if rec.wire_in.iter().any(|w| !w.is_empty()) {
        sheet.set(
            "rpc.decode_ns_per_frame",
            rpc_decode,
            "recorded SUBMITs, 1460-byte chunks",
        );
        sheet.set(
            "rpc.encode_ns_per_frame",
            rpc_encode,
            "recorded server frames",
        );
    }
    sheet.set(
        "sim.frame_ns_per_frame",
        sim_frame,
        "append_frame + read_frames",
    );
    let event_queue = probes::event_queue_ns(effort);
    sheet.set("sim.event_queue_ns_per_op", event_queue, "1024 live events");
    let (parse_us, verify_us) = probes::parse_verify_us(jobs, effort);
    sheet.set(
        "lipscript.parse_us_per_program",
        parse_us,
        format!("{} recorded programs", jobs.len()),
    );
    sheet.set("lipscript.verify_us_per_program", verify_us, "");
    let (interp, skipped) = probes::interp_ns_per_fuel(jobs, effort);
    sheet.set(
        "lipscript.interp_ns_per_fuel",
        interp,
        format!("on MockHost, {skipped} programs the mock could not finish"),
    );
    let texts = crate::workload::tokenized_texts(jobs);
    let tokenizer = probes::tokenizer_ns(&texts, effort);
    sheet.set(
        "tokenizer.encode_ns_per_token",
        tokenizer,
        format!("{} recorded texts", texts.len()),
    );
    let handoff = probes::handoff_us(workload, effort);
    sheet.set(
        "core.handoff_us_per_roundtrip",
        handoff,
        "64 native LIPs, `now` syscalls",
    );
    let sched = probes::sched_decide_ns(effort);
    sheet.set("core.sched.decide_ns_per_op", sched, "MLFQ push/pop/charge");
    let next_dist = probes::next_dist_ns(workload, effort);
    sheet.set("model.next_dist_ns", next_dist, "");
    let cost_eval = probes::cost_eval_ns(workload, effort);
    sheet.set("model.cost_eval_ns", cost_eval, "forward_work + batch_time");
    let kvfs = probes::kvfs_op_ns(kernel, effort);
    sheet.set(
        "kvfs.op_ns",
        kvfs,
        "create/append/fork/CoW/swap/remove cycle",
    );
    let (off, on, causal) = probes::telemetry_emit_ns(effort);
    sheet.set("telemetry.emit_ns_per_event_off", off, "");
    sheet.set("telemetry.emit_ns_per_event_on", on, "");
    sheet.set(
        "telemetry.emit_ns_per_event_causal",
        causal,
        "emit_batch of 16",
    );
    ProbeCosts {
        handoff_us: handoff,
        interp_ns_per_fuel: interp,
        parse_us,
        next_dist_ns: next_dist,
        cost_eval_ns: cost_eval,
        kvfs_op_ns: kvfs,
        rpc_encode_ns: rpc_encode,
        sched_ns: sched,
        event_queue_ns: event_queue,
        tokenizer_ns: tokenizer,
    }
}

// ---- tcp_agent -------------------------------------------------------------

fn tcp_spec(opts: &Options, sessions: usize) -> TcpSpec {
    TcpSpec {
        seed: opts.seed,
        sessions,
        slo: opts.slo(),
        conns: TCP_CONNS,
        window: TCP_WINDOW,
        isolation_sample: opts.isolation_sample(),
    }
}

/// `setup_s` for `tcp_agent`: server process start → first ACCEPTED
/// read by a client, [`SETUP_REPS`] times.
fn measure_setup_tcp(opts: &Options) -> Result<Vec<f64>, String> {
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut samples = Vec::new();
    for _ in 0..reps {
        let start = clock::now();
        let server = ServerChild::spawn(&opts.serve_bin, &opts.out_dir, opts.place)?;
        tcp::first_accepted(&server)?;
        let elapsed = clock::ns_since(start) / 1e9;
        drop(server);
        samples.push(elapsed);
    }
    Ok(samples)
}

/// Serves `jobs` on an in-process replica of what `symphony-serve`
/// boots, in epochs of `per_epoch` sessions arriving "now" — what the
/// socket run does when every window refill reaches the server in one
/// read — and returns the replica's statistics and its timed
/// nanoseconds per session.
fn replica(jobs: &[Job], per_epoch: usize, slo: Slo) -> Result<(SimStats, f64), String> {
    let mut server = Inproc::new(Workload::TcpAgent.build_kernel(false))?;
    let mut sim = SimStats::default();
    let origin = clock::now();
    let mut timed_ns = 0.0;
    for chunk in jobs.chunks(per_epoch) {
        let arrivals = vec![server.now_ns(); chunk.len()];
        let epoch = server.run_epoch(origin, chunk, &arrivals, |_| false, None)?;
        timed_ns += epoch.stamps.timed_ns() as f64;
        sim.add(epoch.sessions.into_iter(), slo);
    }
    Ok((sim, timed_ns / jobs.len().max(1) as f64))
}

fn tcp_checks(
    opts: &Options,
    run: &TcpRun,
    info: &mut Vec<(String, String)>,
    problems: &mut Vec<String>,
) -> Result<(SimStats, f64, IsolationReport), String> {
    phase_info(info, "window", run.sim.sent, run.sim.ok);
    let digest = run.sim.output_digest(u64::MAX);
    digest_info(info, &run.sim);
    // Same programs, same kernel configuration, no socket: the bytes
    // each session streams must not depend on the transport.
    let (rep, rep_ns) = replica(&run.jobs, TCP_CONNS * TCP_WINDOW, opts.slo())?;
    let rep_digest = rep.output_digest(u64::MAX);
    info.push((
        "replica_digest".into(),
        format!("{rep_digest:016x} (in-process, same kernel configuration)"),
    ));
    if rep_digest != digest {
        problems.push(format!(
            "transport changed outputs: tcp {digest:016x}, in-process {rep_digest:016x}"
        ));
    }
    if run.failed() > 0 {
        problems.push(format!(
            "{} of {} sessions failed",
            run.failed(),
            run.sent()
        ));
    }
    let iso = isolation::rerun(Workload::TcpAgent, &run.samples);
    check_isolation(&iso, info, problems);
    Ok((rep, rep_ns, iso))
}

fn tcp_end_to_end(opts: &Options) -> Result<Report, String> {
    let mut sheet = Sheet::new(END_TO_END);
    let mut info = Vec::new();
    let mut problems = Vec::new();
    setup_row(&mut sheet, &measure_setup_tcp(opts)?, opts.place.pinned);

    let server = ServerChild::spawn(&opts.serve_bin, &opts.out_dir, opts.place)?;
    let sessions = opts.epochs() * EPOCH_SESSIONS;
    let mut run = tcp::run(&server, opts.place, tcp_spec(opts, sessions))?;
    drop(server);

    rate_fact(
        &mut info,
        &run.chunk_rates,
        &format!("chunks of {EPOCH_SESSIONS} completions (first excluded)"),
        opts.place.pinned,
    );
    sheet.set(
        "peak_rss_mb",
        run.server_rss_mb,
        format!("server VmHWM after {sessions} sessions"),
    );
    let (mut rep, _, _) = tcp_checks(opts, &run, &mut info, &mut problems)?;
    // Over the socket, virtual timing follows a host-time race: whether
    // both connections' refills reach the server before it pumps, and
    // once one refill is split the two connections stay out of step.
    // The `sim_*` rows therefore come from the replica, which serves
    // the same sessions on the same server configuration with every
    // refill whole; what the socket run itself showed is printed
    // beside them.
    for (name, value, note) in rep.metrics() {
        sheet.set(
            name,
            value,
            format!("{note}; in-process replica, refills of 16"),
        );
    }
    for (name, value, _) in run.sim.metrics() {
        info.push((
            format!("over_socket.{name}"),
            format!("{value} (arrival estimated from server stamps)"),
        ));
    }
    Ok(Report {
        attempted: run.sent(),
        failed: run.failed(),
        sheet,
        info,
        problems,
    })
}

fn tcp_per_layer(opts: &Options) -> Result<Report, String> {
    let mut sheet = Sheet::new(PER_LAYER);
    let mut info = Vec::new();
    let mut problems = Vec::new();
    let effort = opts.effort();
    sheet.set("host.pinned", f64::from(u8::from(opts.place.pinned)), "");
    sheet.set(
        "host.calib_mops_before",
        probes::calib_mops(effort),
        "FNV-1a loop",
    );

    let server = ServerChild::spawn(&opts.serve_bin, &opts.out_dir, opts.place)?;
    let mut run = tcp::run(
        &server,
        opts.place,
        tcp_spec(opts, opts.traced_epochs() * EPOCH_SESSIONS),
    )?;
    drop(server);
    let (_, replica_ns, iso) = tcp_checks(opts, &run, &mut info, &mut problems)?;

    let sessions = run.sent() as f64;
    sheet.set(
        "serve.frames_out_per_session",
        run.wire.frames as f64 / sessions,
        "as read by the client",
    );
    sheet.set(
        "serve.bytes_out_per_session",
        run.wire.bytes as f64 / sessions,
        "",
    );
    sheet.set(
        "serve.accepted",
        run.wire.accepted as f64,
        "ACCEPTED frames read",
    );
    sheet.set("serve.shed", run.wire.shed as f64, "");
    sheet.set("serve.errors", run.wire.errors as f64, "");
    let tcp_us = 1e6 / stats::median(&run.chunk_rates).max(1e-9);
    sheet.set(
        "serve.tcp.extra_us_per_session",
        tcp_us - replica_ns / 1e3,
        format!(
            "{tcp_us:.1} us over the socket - {:.1} us on an in-process replica, refills of {}",
            replica_ns / 1e3,
            TCP_CONNS * TCP_WINDOW
        ),
    );
    stats::sort(&mut run.wall_ttft_ms);
    stats::sort(&mut run.wall_latency_ms);
    let (ttft50, lat50) = (
        stats::percentile(&run.wall_ttft_ms, 50.0),
        stats::percentile(&run.wall_latency_ms, 50.0),
    );
    sheet.set(
        "serve.tcp.wall_ttft_ms_p50",
        ttft50,
        format!(
            "SUBMIT write → first token read, {} sessions",
            run.wall_ttft_ms.len()
        ),
    );
    sheet.set(
        "serve.tcp.wall_latency_ms_p50",
        lat50,
        format!(
            "SUBMIT write → DONE read, {} sessions",
            run.wall_latency_ms.len()
        ),
    );
    sheet.set(
        "serve.tcp.ttft_over_latency",
        ttft50 / lat50.max(1e-9),
        format!("{ttft50:.2} ms / {lat50:.2} ms"),
    );
    let (p, v) = stats::tail(&run.wall_ttft_ms, 99.0);
    sheet.set(
        "serve.tcp.wall_ttft_ms_p99",
        v,
        format!("p{p} of {}", run.wall_ttft_ms.len()),
    );
    let (p, v) = stats::tail(&run.wall_latency_ms, 99.0);
    sheet.set(
        "serve.tcp.wall_latency_ms_p99",
        v,
        format!("p{p} of {}", run.wall_latency_ms.len()),
    );
    let (rate, note) = rate_note(
        &run.chunk_rates,
        &format!("chunks of {EPOCH_SESSIONS} completions (first excluded)"),
    );
    sheet.set("host.sessions_per_s", rate, note);
    sheet.set(
        "host.epoch_rate_iqr_frac",
        stats::quartiles(&run.chunk_rates).iqr_frac(),
        format!("{} chunks", run.chunk_rates.len()),
    );
    sheet.set(
        "lipscript.fuel_per_session",
        iso.fuel_per_session(),
        format!("{} isolated sessions", iso.total),
    );
    let jobs: Vec<Job> = run.jobs.iter().take(EPOCH_SESSIONS).cloned().collect();
    let probe_kernel = Workload::TcpAgent.build_kernel(false);
    probe_rows(
        &mut sheet,
        Workload::TcpAgent,
        &run.recording,
        &jobs,
        &probe_kernel,
        effort,
    );

    // The client's view as a trace: per-session wall and virtual spans.
    let mut tracer = Tracer::new();
    let run_span = tracer.host("run", None, 0, (run.wall_s * 1e9) as u64);
    for s in &run.wall_spans {
        let session = tracer.host("session.wall", Some(run_span), s.sent_ns, s.done_ns);
        tracer.host(
            "ttft.wall",
            Some(session),
            s.sent_ns,
            s.first_ns.min(s.done_ns),
        );
    }
    let trace_path = opts
        .out_dir
        .join(format!("{}.trace.json", opts.workload.name()));
    std::fs::write(&trace_path, tracer.to_chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    info.push(("trace_file".into(), trace_path.display().to_string()));
    sheet.set(
        "host.calib_mops_after",
        probes::calib_mops(effort),
        "FNV-1a loop",
    );
    Ok(Report {
        attempted: run.sent(),
        failed: run.failed(),
        sheet,
        info,
        problems,
    })
}

// ---- calibration -----------------------------------------------------------

/// Epochs each calibration window runs.
const CALIBRATE_EPOCHS: usize = 6;

/// Arrival rate, sessions per virtual second, at which sessions run
/// alone: the reference the latency limit is a multiple of.
const ALONE_RATE: f64 = 0.01;

/// A rate is sustainable while the median latency stays within this
/// many times its value at [`ALONE_RATE`] ...
const LATENCY_LIMIT: f64 = 3.0;

/// ... and no backlog builds: [`Window::keep_up`] (median over the
/// window's epochs) stays at or above this.
const KEEP_UP: f64 = 0.9;

/// How close the rate sweep brackets the saturation rate.
const SWEEP_RESOLUTION: f64 = 1.05;

/// Re-measures the frozen constants. The saturation rate is the highest
/// Poisson arrival rate the server sustains: the median latency meets
/// its limit, and sessions complete as fast as they arrive, so no
/// backlog builds. It is found by doubling from [`ALONE_RATE`] and
/// bisecting. The SLO limits are 3× the medians at one tenth of the
/// arrival rate. Returns `key value` lines, one per rate tried among
/// them.
pub fn calibrate(opts: &Options) -> Result<Vec<(String, String)>, String> {
    let mut out = vec![(
        "frozen_at".to_string(),
        format!(
            "{} seed {}",
            crate::workload::FROZEN_COMMIT,
            crate::workload::FROZEN_SEED
        ),
    )];
    let slo = Slo {
        ttft_ms: f64::MAX,
        itl_ms: f64::MAX,
    };
    if opts.workload == Workload::TcpAgent {
        let server = ServerChild::spawn(&opts.serve_bin, &opts.out_dir, opts.place)?;
        let spec = TcpSpec {
            seed: opts.seed,
            sessions: 2 * EPOCH_SESSIONS,
            slo,
            conns: 1,
            window: 1,
            isolation_sample: 0,
        };
        let mut run = tcp::run(&server, opts.place, spec)?;
        let (ttft, itl) = run.sim.calibration_medians_ms();
        out.push(("slo_ttft_ms".into(), format!("{:.3}", 3.0 * ttft)));
        out.push(("slo_itl_ms".into(), format!("{:.3}", 3.0 * itl)));
        return Ok(out);
    }
    let mut spec = opts.window_spec(opts.workload, CALIBRATE_EPOCHS);
    spec.slo = slo;
    let at_rate = |rate: f64| -> Result<(Window, f64), String> {
        let mut spec = spec;
        spec.rate_per_s = rate;
        let mut server = Server::boot(opts.workload, false, &opts.out_dir)?;
        let w = run_window(&mut server, spec, None, clock::now())?;
        let busy = server.kernel().gpu_metrics().busy.as_secs_f64() / w.sim.makespan_s();
        Ok((w, busy))
    };
    let p50_ms = |w: &mut Window| w.sim.metrics()[2].1;
    let limit_ms = LATENCY_LIMIT * p50_ms(&mut at_rate(ALONE_RATE)?.0);
    out.push(("latency_limit_ms".into(), format!("{limit_ms:.3}")));
    let mut sustained = |rate: f64| -> Result<bool, String> {
        let (mut w, busy) = at_rate(rate)?;
        let (keep_up, p50) = (stats::median(&w.keep_up), p50_ms(&mut w));
        out.push((
            format!("rate_{rate:.4}"),
            format!(
                "sim_latency_ms_p50 {p50:.1} keep_up {keep_up:.3} gpu_busy {busy:.3} failed {}",
                w.failed()
            ),
        ));
        Ok(p50 <= limit_ms && keep_up >= KEEP_UP && w.failed() == 0)
    };
    let (mut lo, mut hi) = (ALONE_RATE, 2.0 * ALONE_RATE);
    while sustained(hi)? {
        (lo, hi) = (hi, 2.0 * hi);
        if hi > 1e6 {
            return Err("no arrival rate saturates this workload".into());
        }
    }
    while hi / lo > SWEEP_RESOLUTION {
        let mid = (lo * hi).sqrt();
        if sustained(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let saturation = lo;
    out.push(("saturation_per_s".into(), format!("{saturation:.4}")));

    let (mut light, _) = at_rate(saturation * crate::workload::LOAD / 10.0)?;
    let (ttft, itl) = light.sim.calibration_medians_ms();
    out.push(("slo_ttft_ms".into(), format!("{:.3}", 3.0 * ttft)));
    out.push(("slo_itl_ms".into(), format!("{:.3}", 3.0 * itl)));

    let (loaded, busy) = at_rate(saturation * crate::workload::LOAD)?;
    let wall: f64 = loaded.measured().map(|s| s.timed_ns() as f64 / 1e9).sum();
    out.push((
        "loaded_epoch_wall_s".into(),
        format!("{:.3}", wall / loaded.measured().count() as f64),
    ));
    out.push(("loaded_gpu_busy".into(), format!("{busy:.3}")));
    out.push(("loaded_failed".into(), loaded.failed().to_string()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unpinned_run_reports_no_wall_clock_number() {
        let mut sheet = Sheet::new(END_TO_END);
        setup_row(&mut sheet, &[0.05, 0.06, 0.07], false);
        assert_eq!(sheet.unresolved(), ["setup_s"]);
        assert!(sheet.to_json().contains("\"setup_s\": {\"value\": null"));
        let mut info = Vec::new();
        rate_fact(&mut info, &[640.0, 650.0, 660.0], "epochs", false);
        assert_eq!(info[0].0, "host.sessions_per_s");
        assert!(info[0].1.starts_with("UNRESOLVED"));
    }

    #[test]
    fn a_pinned_run_reports_medians() {
        let mut sheet = Sheet::new(END_TO_END);
        setup_row(&mut sheet, &[0.05, 0.06, 0.07], true);
        assert!(sheet.unresolved().is_empty());
        assert!(sheet.to_json().contains("\"setup_s\": {\"value\": 0.06"));
        let mut info = Vec::new();
        rate_fact(&mut info, &[640.0, 650.0, 660.0], "epochs", true);
        assert!(info[0]
            .1
            .starts_with("650 1/s  # median of 3 epochs, q1 645.0 q3 655.0"));
    }
}
