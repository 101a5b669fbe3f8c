//! E13 — warm restart: KV files that persist across kernel reboots.
//!
//! A kernel whose log carries its KV store's batches, booted again from
//! that log, starts with the popular prefixes already hot: the first wave
//! of requests after a restart forks restored KV instead of re-prefilling
//! every document. We run two workloads — the Fig-3 RAG application and a
//! shared-system-prompt agent fleet — twice each: a cold boot that writes
//! a kernel log (`KernelConfig::wal`), then a warm restart from that log
//! (`KernelConfig::journal_path`), and compare prefix-cache hit rates and
//! latency.

use crate::fig3::{run_symphony_point_persist, Fig3Config, Scale};
use crate::{lip, ExpArgs, Report, Table};
use serde::Serialize;
use symphony::{Kernel, KernelConfig, SimDuration, SimTime, SpawnOpts, ToolOutcome, ToolSpec};

const AGENTS: usize = 24;
/// Cold-boot agents arrive in waves, and the log grows across them the
/// way a live deployment's would.
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
    /// Size of the kernel log the cold run wrote (and the warm run booted
    /// from).
    journal_bytes: u64,
    /// Per-tag frame counts of that log, its KV records among them
    /// (growth observability).
    journal_frames: Vec<(String, u64)>,
}

/// Reads a kernel log back and summarises its growth: total bytes plus
/// valid frames per tag.
fn journal_growth(path: &std::path::Path) -> (u64, Vec<(String, u64)>) {
    let Ok(bytes) = std::fs::read(path) else {
        return (0, Vec::new());
    };
    let frames = symphony::wal::frame_counts(&bytes)
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

/// One agent session (args: its task): fork the published system prompt
/// if present, otherwise fetch + prefill + publish it (pinned), then run
/// the task turn.
const AGENT: &str =
    include_str!("../../../../examples/lipscript/with_prelude/system_prompt_agent.lip");

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
    } else {
        cfg.wal = Some(symphony::WalConfig::new(journal));
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
            let (name, args) = (format!("agent{i}"), format!("plan step {i}"));
            pids.push(kernel.admit(&name, &args, SpawnOpts::at(at), lip::program(AGENT)));
        }
        kernel.run();
    } else {
        // Cold boot logs as it goes: the fleet runs in waves, and the one
        // agent that publishes the system prompt puts it in the log before
        // its exit.
        for wave in 0..AGENTS.div_ceil(WAVE) {
            let base = kernel.now();
            for j in 0..WAVE {
                let i = wave * WAVE + j;
                if i >= AGENTS {
                    break;
                }
                let at = base + SimDuration::from_millis(25 * j as u64);
                let (name, args) = (format!("agent{i}"), format!("plan step {i}"));
                pids.push(kernel.admit(&name, &args, SpawnOpts::at(at), lip::program(AGENT)));
            }
            kernel.run();
            let on_disk = std::fs::metadata(journal).map(|m| m.len()).unwrap_or(0);
            eprintln!("E13: agent wave {wave}: log {on_disk} bytes");
        }
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
    let rag_journal = dir.join("exp_persist_rag.wal");
    let agent_journal = dir.join("exp_persist_agent.wal");

    let (rag_cold, rag_warm) = rag_points(smoke, &rag_journal);
    eprintln!("E13: agent cold ...");
    std::fs::remove_file(&agent_journal).ok();
    let agent_cold = agent_run(smoke, &agent_journal, false);
    eprintln!("E13: agent warm ...");
    let agent_warm = agent_run(smoke, &agent_journal, true);

    let points = vec![rag_cold, rag_warm, agent_cold, agent_warm];
    let mut table = Table::new(
        "E13 — warm restart from the kernel log's KV batches (cold boot vs replayed log)",
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
