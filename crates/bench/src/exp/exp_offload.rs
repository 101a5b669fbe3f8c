//! E6 — §4.3 KV offload during I/O waits.
//!
//! Agents with large contexts block on slow tools. With offload enabled the
//! kernel swaps a blocked process's KV files to host memory, freeing HBM
//! for concurrently arriving work; the agent pays the PCIe restore on
//! resume. We measure the throughput of background completions that must
//! squeeze into the remaining memory, with and without offload.

use crate::{ExpArgs, Report, Table, Telemetry};
use serde::Serialize;
use symphony::sampling::{generate, GenOpts};
use symphony::{Kernel, KernelConfig, SimDuration, SimTime, SysError, ToolOutcome, ToolSpec};

const AGENTS: usize = 6;
const AGENT_CONTEXT_TOKENS: usize = 3_000;
const BG_JOBS: usize = 12;
const TOOL_LATENCY: SimDuration = SimDuration::from_secs(3);

#[derive(Debug, Clone, Serialize)]
struct Point {
    offload: bool,
    disk_tier: bool,
    agent_mean_latency_ms: f64,
    bg_mean_latency_ms: f64,
    bg_failures: usize,
    swapped_tokens: u64,
    disk_spilled_tokens: u64,
}

fn run_point(
    offload: bool,
    disk_tier: bool,
    telemetry: &ExpArgs,
    designated: bool,
) -> (Point, Option<Telemetry>) {
    let mut cfg = KernelConfig::paper_setup();
    cfg.model = cfg.model.with_mean_output_tokens(24);
    cfg.offload_on_io_wait = offload;
    cfg.offload_min_latency = SimDuration::from_millis(50);
    // A pool that fits the agents' contexts with little slack, so the
    // background jobs depend on offload for memory.
    let kv_per_token = cfg.model.kv_bytes_per_token();
    cfg.gpu_kv_bytes_override = Some((AGENTS * AGENT_CONTEXT_TOKENS + 4_500) as u64 * kv_per_token);
    if disk_tier {
        // Shrink DRAM to two agents' worth of context: offloading the other
        // four cascades onto the NVMe tier, and they pay the disk lane on
        // resume. Without the disk tier this configuration would simply
        // refuse the swap-outs (NoCpuMemory) and keep HBM full.
        cfg.cpu_swap_bytes = (2 * AGENT_CONTEXT_TOKENS) as u64 * kv_per_token;
    }
    cfg.telemetry = telemetry.record(designated);
    let mut kernel = Kernel::new(cfg);
    kernel.register_tool(
        "slow-api",
        ToolSpec::fixed(TOOL_LATENCY, |_| ToolOutcome::Ok("api data".into())),
    );

    let doc = symphony_tokenizer::CorpusGen::new(9).paragraph(AGENT_CONTEXT_TOKENS);
    let doc = std::sync::Arc::new(doc);
    let mut agents = Vec::new();
    for i in 0..AGENTS {
        let doc = doc.clone();
        let at = SimTime::ZERO + SimDuration::from_millis(10 * i as u64);
        agents.push(
            kernel.schedule_process(at, &format!("agent{i}"), "", move |ctx| {
                let kv = ctx.kv_create()?;
                let toks = ctx.tokenize(&doc)?;
                ctx.pred_positions(kv, &toks, 0)?;
                // Long blocking tool call: the kernel may offload `kv`.
                ctx.call_tool("slow-api", "q")?;
                // The kernel restores offloaded files on I/O completion, but
                // under pressure the restore can fail; the application owns the
                // fallback: ensure residency, generate, and back off (holding
                // the context in host memory, not HBM) on any memory error.
                let q = ctx.tokenize("\nsummarize")?;
                let base = ctx.kv_len(kv)?;
                let mut done = false;
                for attempt in 0..200u64 {
                    if ctx.kv_swap_in(kv).is_err() {
                        ctx.sleep(SimDuration::from_millis(20 + 5 * attempt))?;
                        continue;
                    }
                    match generate(
                        ctx,
                        kv,
                        &q,
                        &GenOpts {
                            max_tokens: 16,
                            emit: false,
                            ..Default::default()
                        },
                    ) {
                        Ok(_) => {
                            done = true;
                            break;
                        }
                        Err(SysError::Kv(symphony_kvfs::KvError::NoGpuMemory)) => {
                            ctx.kv_truncate(kv, base)?;
                            let _ = ctx.kv_swap_out(kv);
                            ctx.sleep(SimDuration::from_millis(30 + 5 * attempt))?;
                        }
                        Err(e) => return Err(e),
                    }
                }
                if !done {
                    return Err(SysError::Kv(symphony_kvfs::KvError::NoGpuMemory));
                }
                ctx.kv_remove(kv)?;
                Ok(())
            }),
        );
    }
    // Background completions arrive while the agents block on I/O.
    let mut bg = Vec::new();
    for i in 0..BG_JOBS {
        // Arrive while every agent sits inside its 3 s tool call (the
        // agents' prefills serialise on the GPU and finish by ~3.3 s).
        let at = SimTime::ZERO + SimDuration::from_millis(3_600 + 40 * i as u64);
        bg.push(
            kernel.schedule_process(at, &format!("bg{i}"), "", move |ctx| {
                let prompt =
                    ctx.tokenize(&symphony_tokenizer::CorpusGen::new(50).paragraph(700))?;
                let kv = ctx.kv_create()?;
                match ctx.pred_positions(kv, &prompt, 0) {
                    Ok(_) => {}
                    Err(e) => return Err(e), // no retry: measures raw headroom
                }
                let q = [prompt[0]];
                generate(
                    ctx,
                    kv,
                    &q,
                    &GenOpts {
                        max_tokens: 12,
                        emit: false,
                        ..Default::default()
                    },
                )?;
                ctx.kv_remove(kv)?;
                Ok(())
            }),
        );
    }
    kernel.run();

    let mut agent_lat = symphony_sim::Series::new();
    for &pid in &agents {
        let rec = kernel.record(pid).expect("record");
        assert!(rec.status.is_ok(), "agent failed: {:?}", rec.status);
        agent_lat.add(rec.latency().expect("exited").as_millis_f64());
    }
    let mut bg_lat = symphony_sim::Series::new();
    let mut bg_failures = 0;
    for &pid in &bg {
        let rec = kernel.record(pid).expect("record");
        if rec.status.is_ok() {
            bg_lat.add(rec.latency().expect("exited").as_millis_f64());
        } else {
            bg_failures += 1;
        }
    }
    let snap = telemetry.capture(&kernel, designated);
    let stats = kernel.kv_stats();
    let point = Point {
        offload,
        disk_tier,
        agent_mean_latency_ms: agent_lat.mean(),
        bg_mean_latency_ms: bg_lat.mean(),
        bg_failures,
        swapped_tokens: stats.swapped_out_tokens,
        disk_spilled_tokens: stats.disk_spilled_tokens,
    };
    (point, snap)
}

pub(super) fn run(opts: &ExpArgs) -> Report {
    let mut table = Table::new(
        "E6 — KV offload on I/O wait (6 agents x 3000-token contexts, 3s tool)",
        &[
            "offload",
            "tier",
            "agent lat",
            "bg lat",
            "bg failures",
            "swapped",
            "disk spill",
        ],
    );
    let mut results = Vec::new();
    let mut captured: Option<Telemetry> = None;
    for (offload, disk) in [(false, false), (true, false), (true, true)] {
        eprintln!("E6: offload={offload} disk={disk} ...");
        // The designated telemetry run: offload enabled, DRAM-only (swaps
        // happen and the output stays comparable with older traces).
        let (p, snap) = run_point(offload, disk, opts, offload && !disk);
        if let Some(s) = snap {
            captured = Some(s);
        }
        table.row(vec![
            offload.to_string(),
            if disk { "dram+nvme" } else { "dram" }.to_string(),
            format!("{:.0}ms", p.agent_mean_latency_ms),
            format!("{:.0}ms", p.bg_mean_latency_ms),
            p.bg_failures.to_string(),
            p.swapped_tokens.to_string(),
            p.disk_spilled_tokens.to_string(),
        ]);
        results.push(p);
    }
    table.print();
    println!("\nShape check: offload lets background jobs fit (fewer failures) at the");
    println!("price of agents paying PCIe swap time on resume; with DRAM squeezed to");
    println!("two contexts the overflow spills to NVMe and resume gets dearer still.");
    Report::new(&results).with_telemetry(captured)
}

// Referenced to keep the import used when assertions compile out.
#[allow(dead_code)]
fn _t(e: SysError) -> SysError {
    e
}
