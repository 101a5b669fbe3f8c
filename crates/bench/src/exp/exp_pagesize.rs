//! E10 — KVFS page-size ablation.
//!
//! The page size trades fragmentation against copy-on-write cost: small
//! pages waste little tail space but make `kv_fork`-heavy workloads copy
//! more often (any partial tail page is COWed on divergence); big pages
//! amortise metadata but strand unused tokens in every file's last page —
//! with 100+ pinned documents that adds up. We run the heavy-skew Figure 3
//! point at several page sizes.

use crate::fig3::{run_symphony_point, Fig3Config, Scale};
use crate::{ExpArgs, Report, Table};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct Point {
    page_tokens: usize,
    throughput_tok_s: f64,
    latency_per_token_ms: f64,
    cache_hit_rate: f64,
    failed: usize,
}

fn run_sweep(title: &str, cfg: &Fig3Config, tight: bool, results: &mut Vec<Point>) {
    let mut table = Table::new(
        title,
        &["page tokens", "tok/s", "lat/token", "hit%", "failed"],
    );
    for page_tokens in [4usize, 16, 64, 256] {
        eprintln!("E10: tight={tight} page_tokens={page_tokens} ...");
        let mut scale = Scale::paper(cfg);
        scale.page_tokens = page_tokens;
        if tight {
            // A pool of ~40k tokens (13 documents): pinning plus working
            // memory now contends, so per-file tail fragmentation matters.
            scale.gpu_kv_override = Some(40_000 * scale.model.kv_bytes_per_token());
        }
        let p = run_symphony_point(cfg, &scale, 0.5, 4.0);
        table.row(vec![
            page_tokens.to_string(),
            format!("{:.0}", p.throughput_tok_s),
            format!("{:.1}ms", p.latency_per_token_ms),
            format!("{:.0}%", p.cache_hit_rate * 100.0),
            p.failed.to_string(),
        ]);
        results.push(Point {
            page_tokens,
            throughput_tok_s: p.throughput_tok_s,
            latency_per_token_ms: p.latency_per_token_ms,
            cache_hit_rate: p.cache_hit_rate,
            failed: p.failed,
        });
    }
    table.print();
    println!();
}

pub(super) fn run(_args: &ExpArgs) -> Report {
    let mut cfg = Fig3Config::paper();
    cfg.requests = 120;
    let mut results = Vec::new();
    run_sweep(
        "E10 — page-size ablation, ample pool (Fig. 3 point: pareto 0.5, 4 rps)",
        &cfg,
        false,
        &mut results,
    );
    let mut tight_cfg = cfg.clone();
    tight_cfg.cache_top_k = 8;
    run_sweep(
        "E10 — page-size ablation, tight pool (~13 documents of capacity)",
        &tight_cfg,
        true,
        &mut results,
    );
    println!("\nShape check: performance is flat across reasonable page sizes (16 is the");
    println!("vLLM default); very large pages waste pool capacity to tail fragmentation,");
    println!("which surfaces as extra memory pressure at full utilisation.");
    Report::new(&results)
}
