//! E13 — warm restart: KVFS journal persistence across kernel reboots.
//!
//! A kernel that snapshots its KV store to an append-only journal at
//! shutdown and replays it at boot starts with the popular prefixes already
//! hot: the first wave of requests after a restart forks restored KV
//! instead of re-prefilling every document. We run two workloads — the
//! Fig-3 RAG application and a shared-system-prompt agent fleet — twice
//! each: a cold boot, then a warm restart from the cold run's journal, and
//! compare prefix-cache hit rates and latency.

use crate::fig3::{run_symphony_point_persist, Fig3Config, Scale};
use crate::{ExpArgs, Report, Table};
use serde::Serialize;
use symphony::sampling::{self, GenOpts};
use symphony::{
    Ctx, Kernel, KernelConfig, Mode, SimDuration, SimTime, SysError, ToolOutcome, ToolSpec,
};

const AGENTS: usize = 24;
/// Cold-boot agents arrive in waves; the kernel drains the KVFS delta log
/// to the journal between waves, so the journal grows incrementally the
/// way a live deployment's would (and compaction has something to reclaim).
const WAVE: usize = 4;

#[derive(Debug, Clone, Serialize)]
struct Point {
    workload: &'static str,
    boot: &'static str,
    completed: usize,
    failed: usize,
    cache_hit_rate: f64,
    mean_latency_ms: f64,
    restored_files: usize,
    restored_tokens: usize,
    /// Journal size this run wrote (cold) or replayed (warm).
    journal_bytes: u64,
    /// Per-tag frame counts of that journal (growth observability).
    journal_frames: Vec<(String, u64)>,
}

/// Reads a journal back and summarises its growth: total bytes plus valid
/// frames per tag.
fn journal_growth(path: &std::path::Path) -> (u64, Vec<(String, u64)>) {
    let Ok(bytes) = std::fs::read(path) else {
        return (0, Vec::new());
    };
    let frames = symphony_kvfs::journal::frame_counts(&bytes)
        .map(|m| m.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        .unwrap_or_default();
    (bytes.len() as u64, frames)
}

// ---- Fig-3 RAG workload ---------------------------------------------------

fn rag_points(smoke: bool, journal: &std::path::Path) -> (Point, Point) {
    let (cfg, scale) = if smoke {
        let c = Fig3Config::quick();
        let s = Scale::quick(&c);
        (c, s)
    } else {
        let c = Fig3Config::paper();
        let s = Scale::paper(&c);
        (c, s)
    };
    // Heavy skew: the regime where retained document KV matters most.
    let (pareto, load) = (0.5, 20.0);
    std::fs::remove_file(journal).ok();
    eprintln!("E13: rag cold ...");
    let (cold, r) = run_symphony_point_persist(&cfg, &scale, pareto, load, None, Some(journal));
    assert!(r.is_none(), "cold boot must not report a restore");
    eprintln!("E13: rag warm ...");
    let (warm, r) = run_symphony_point_persist(&cfg, &scale, pareto, load, Some(journal), None);
    let report = r.expect("warm boot must replay the journal");
    let (jbytes, jframes) = journal_growth(journal);
    let to_point = |boot, p: &crate::fig3::PointResult, files, tokens| Point {
        workload: "rag",
        boot,
        completed: p.completed,
        failed: p.failed,
        cache_hit_rate: p.cache_hit_rate,
        mean_latency_ms: p.mean_latency_s * 1e3,
        restored_files: files,
        restored_tokens: tokens,
        journal_bytes: jbytes,
        journal_frames: jframes.clone(),
    };
    (
        to_point("cold", &cold, 0, 0),
        to_point("warm", &warm, report.files, report.tokens),
    )
}

// ---- shared-system-prompt agent workload ----------------------------------

/// One agent session: fork the published system prompt if present,
/// otherwise fetch + prefill + publish it (pinned), then run the task turn.
fn agent_lip(ctx: &mut Ctx) -> Result<(), SysError> {
    let kv = match ctx.kv_open("agent/system.kv") {
        Ok(sys) => ctx.kv_fork(sys)?,
        Err(_) => {
            let text = ctx.call_tool("fetch-system", "")?;
            let toks = ctx.tokenize(&text)?;
            let f = ctx.kv_create()?;
            ctx.pred_positions(f, &toks, 0)?;
            // Racing sessions may have published first; losing is fine.
            if ctx.kv_link(f, "agent/system.kv").is_ok() {
                ctx.kv_chmod(f, Mode::SHARED_READ)?;
                ctx.kv_pin(f)?;
                ctx.kv_fork(f)?
            } else {
                f
            }
        }
    };
    let task = ctx.tokenize(&ctx.args())?;
    sampling::generate(
        ctx,
        kv,
        &task,
        &GenOpts {
            max_tokens: 16,
            emit: false,
            ..Default::default()
        },
    )?;
    ctx.kv_remove(kv)?;
    Ok(())
}

fn agent_run(smoke: bool, journal: &std::path::Path, warm: bool) -> Point {
    let mut cfg = if smoke {
        KernelConfig::for_tests()
    } else {
        let mut c = KernelConfig::paper_setup();
        c.model = c.model.with_mean_output_tokens(16);
        c
    };
    if warm {
        cfg.journal_path = Some(journal.to_path_buf());
    }
    let mut kernel = Kernel::new(cfg);
    let sys_text = std::sync::Arc::new("You are a careful planning agent. ".repeat(if smoke {
        8
    } else {
        96
    }));
    {
        let sys = sys_text.clone();
        kernel.register_tool(
            "fetch-system",
            ToolSpec::fixed(SimDuration::from_millis(40), move |_| {
                ToolOutcome::Ok(sys.as_ref().clone())
            }),
        );
    }
    let mut pids = Vec::new();
    if warm {
        for i in 0..AGENTS {
            let at = SimTime::ZERO + SimDuration::from_millis(25 * i as u64);
            let args = format!("plan step {i}");
            pids.push(kernel.schedule_process(at, &format!("agent{i}"), &args, agent_lip));
        }
        kernel.run();
    } else {
        // Cold boot persists incrementally: open the journal up front, run
        // the fleet in waves, and drain the KVFS delta log after each wave.
        // A deliberately small compaction threshold forces the journal to be
        // rewritten to its snapshot-equivalent form mid-run, which is what
        // keeps `journal_bytes` bounded no matter how long the fleet runs.
        let threshold: u64 = if smoke { 4 * 1024 } else { 16 * 1024 };
        kernel
            .open_kv_journal(
                journal,
                symphony_kvfs::JournalConfig {
                    compact_threshold_bytes: threshold,
                },
            )
            .expect("open journal");
        let mut max_bytes = 0u64;
        for wave in 0..AGENTS.div_ceil(WAVE) {
            let base = kernel.now();
            for j in 0..WAVE {
                let i = wave * WAVE + j;
                if i >= AGENTS {
                    break;
                }
                let at = base + SimDuration::from_millis(25 * j as u64);
                let args = format!("plan step {i}");
                pids.push(kernel.schedule_process(at, &format!("agent{i}"), &args, agent_lip));
            }
            kernel.run();
            kernel.persist_kv_delta().expect("delta flush");
            let on_disk = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
            max_bytes = max_bytes.max(on_disk);
            eprintln!("E13: agent wave {wave}: journal {on_disk} bytes");
        }
        // Boundedness: after every drain the journal is at most the
        // compaction threshold, or one snapshot of live state when a single
        // snapshot already exceeds the threshold (plus one buffered batch).
        let snap_path = journal.with_extension("snapshot.tmp");
        kernel.persist_kv(&snap_path).expect("snapshot write");
        let snapshot_len = std::fs::metadata(&snap_path).map(|m| m.len()).unwrap_or(0);
        std::fs::remove_file(&snap_path).ok();
        let bound = threshold.max(snapshot_len) + threshold;
        assert!(
            max_bytes <= bound,
            "journal must stay bounded under compaction: max {max_bytes} > bound {bound}"
        );
        let compactions = kernel
            .metrics_registry()
            .counter_value("kvfs.compactions")
            .unwrap_or(0);
        assert!(
            compactions >= 1,
            "agent fleet must trigger at least one journal compaction"
        );
        eprintln!(
            "E13: agent cold: {compactions} compactions, max journal {max_bytes} bytes \
             (snapshot {snapshot_len}, threshold {threshold})"
        );
    }
    let report = kernel.restored().copied();
    let (journal_bytes, journal_frames) = journal_growth(journal);

    let mut lat = symphony_sim::Series::new();
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut misses = 0u64;
    for &pid in &pids {
        let rec = kernel.record(pid).expect("record");
        if !rec.status.is_ok() {
            failed += 1;
            continue;
        }
        completed += 1;
        misses += u64::from(rec.usage.tool_calls > 0);
        lat.add(rec.latency().expect("exited").as_millis_f64());
    }
    Point {
        workload: "agent",
        boot: if warm { "warm" } else { "cold" },
        completed,
        failed,
        cache_hit_rate: if completed > 0 {
            1.0 - misses as f64 / completed as f64
        } else {
            0.0
        },
        mean_latency_ms: lat.mean(),
        restored_files: report.map_or(0, |r| r.files),
        restored_tokens: report.map_or(0, |r| r.tokens),
        journal_bytes,
        journal_frames,
    }
}

pub(super) fn run(args: &ExpArgs) -> Report {
    let smoke = args.smoke;
    let dir = args.out_dir();
    std::fs::create_dir_all(&dir).ok();
    let rag_journal = dir.join("exp_persist_rag.journal");
    let agent_journal = dir.join("exp_persist_agent.journal");

    let (rag_cold, rag_warm) = rag_points(smoke, &rag_journal);
    eprintln!("E13: agent cold ...");
    std::fs::remove_file(&agent_journal).ok();
    let agent_cold = agent_run(smoke, &agent_journal, false);
    eprintln!("E13: agent warm ...");
    let agent_warm = agent_run(smoke, &agent_journal, true);

    let points = vec![rag_cold, rag_warm, agent_cold, agent_warm];
    let mut table = Table::new(
        "E13 — warm restart from KVFS journal (cold boot vs replayed journal)",
        &[
            "workload", "boot", "done", "failed", "hit rate", "mean lat", "restored", "journal",
        ],
    );
    for p in &points {
        table.row(vec![
            p.workload.to_string(),
            p.boot.to_string(),
            p.completed.to_string(),
            p.failed.to_string(),
            format!("{:.1}%", p.cache_hit_rate * 100.0),
            format!("{:.0}ms", p.mean_latency_ms),
            format!("{} files / {} tok", p.restored_files, p.restored_tokens),
            format!("{:.1}KB", p.journal_bytes as f64 / 1024.0),
        ]);
    }
    table.print();

    for p in &points {
        if p.boot == "cold" && !p.journal_frames.is_empty() {
            let breakdown: Vec<String> = p
                .journal_frames
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "journal growth ({}): {} bytes; frames: {}",
                p.workload,
                p.journal_bytes,
                breakdown.join(" ")
            );
        }
    }

    let rate = |w, b| {
        points
            .iter()
            .find(|p| p.workload == w && p.boot == b)
            .map(|p| p.cache_hit_rate)
            .unwrap()
    };
    assert!(
        rate("rag", "warm") > rate("rag", "cold"),
        "warm restart must beat cold start on RAG prefix-cache hit rate"
    );
    assert!(
        rate("agent", "warm") > rate("agent", "cold"),
        "warm restart must beat cold start on agent prefix-cache hit rate"
    );
    println!("\nShape check: the journal replay pre-populates the popular prefixes, so");
    println!("warm-restart hit rates sit strictly above cold start on both workloads.");
    Report::new(&points)
}
