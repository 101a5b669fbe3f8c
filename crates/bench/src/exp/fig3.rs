//! Regenerates Figure 3 (both panels) and the headline throughput ratio.
//!
//! Four systems share one substrate: Symphony (LIP-controlled caching), a
//! 2024-era vLLM without automatic prefix caching (the paper's comparator),
//! a stronger vLLM *with* automatic prefix caching, and TGI.

use crate::fig3::{sweep, Fig3Config, PointResult, Scale};
use crate::{ExpArgs, Report, Table};

const SYSTEMS: &[&str] = &["symphony", "vllm-noapc", "vllm", "tgi"];

pub(super) fn run(args: &ExpArgs) -> Report {
    let quick = args.smoke;
    let cfg = if quick {
        Fig3Config::quick()
    } else {
        Fig3Config::paper()
    };
    let scale = if quick {
        Scale::quick(&cfg)
    } else {
        Scale::paper(&cfg)
    };
    // The paper sweeps request load and the Pareto index of topic
    // popularity. Small index = heavy skew.
    let paretos: &[f64] = &[0.5, 1.0, 2.0, 4.0];
    let loads: &[f64] = if quick {
        &[10.0, 40.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    };

    let mut results = sweep(&cfg, &scale, paretos, loads);
    print_panels(&results, paretos, loads);

    if !quick {
        // Headline probe: the ratio is maximised when decode is short and
        // the system saturates (prefill dominates). The paper does not
        // state its answer length; this probe uses 16-token answers at
        // heavy skew and overload.
        eprintln!("fig3: headline probe ...");
        let mut hcfg = cfg.clone();
        hcfg.answer_tokens = 16;
        hcfg.requests = 200;
        let hscale = Scale::paper(&hcfg);
        let s = crate::fig3::run_symphony_point(&hcfg, &hscale, 0.5, 32.0);
        let v = crate::fig3::run_engine_point("vllm-noapc", &hcfg, &hscale, 0.5, 32.0);
        println!(
            "Headline probe (16-token answers, pareto 0.5, 32 rps): \
             {:.0} vs {:.0} tok/s = {:.2}x vs vLLM-without-APC",
            s.throughput_tok_s,
            v.throughput_tok_s,
            s.throughput_tok_s / v.throughput_tok_s
        );
        results.push(s);
        results.push(v);
    }
    Report::new(&results)
}

fn by<'a>(
    results: &'a [PointResult],
    system: &str,
    pareto: f64,
    load: f64,
) -> Option<&'a PointResult> {
    results
        .iter()
        .find(|r| r.system == system && r.pareto_index == pareto && r.load_rps == load)
}

fn print_panels(results: &[PointResult], paretos: &[f64], loads: &[f64]) {
    // Panel (a): normalized mean end-to-end latency per generated token.
    let mut a = Table::new(
        "Figure 3a — mean E2E latency per generated token (ms; x = normalized to Symphony)",
        &[
            "pareto",
            "load",
            "symphony",
            "vllm-noapc",
            "vllm+apc",
            "tgi",
            "sym hit%",
        ],
    );
    for &p in paretos {
        for &l in loads {
            let Some(s) = by(results, "symphony", p, l) else {
                continue;
            };
            let norm = |r: Option<&PointResult>| match r {
                Some(r) => format!(
                    "{:.0} ({:.2}x)",
                    r.latency_per_token_ms,
                    r.latency_per_token_ms / s.latency_per_token_ms
                ),
                None => "-".into(),
            };
            a.row(vec![
                format!("{p}"),
                format!("{l}"),
                format!("{:.0}", s.latency_per_token_ms),
                norm(by(results, "vllm-noapc", p, l)),
                norm(by(results, "vllm", p, l)),
                norm(by(results, "tgi", p, l)),
                format!("{:.0}%", s.cache_hit_rate * 100.0),
            ]);
        }
    }
    a.print();
    println!();

    // Panel (b): throughput.
    let mut b = Table::new(
        "Figure 3b — generated-token throughput (tok/s; x = normalized to Symphony)",
        &[
            "pareto",
            "load",
            "symphony",
            "vllm-noapc",
            "vllm+apc",
            "tgi",
            "gpu%",
            "failed",
        ],
    );
    let mut max_vs_noapc: f64 = 0.0;
    let mut max_vs_apc: f64 = 0.0;
    for &p in paretos {
        for &l in loads {
            let Some(s) = by(results, "symphony", p, l) else {
                continue;
            };
            let norm = |r: Option<&PointResult>| match r {
                Some(r) => format!(
                    "{:.0} ({:.2}x)",
                    r.throughput_tok_s,
                    r.throughput_tok_s / s.throughput_tok_s
                ),
                None => "-".into(),
            };
            if let Some(v) = by(results, "vllm-noapc", p, l) {
                if v.throughput_tok_s > 0.0 {
                    max_vs_noapc = max_vs_noapc.max(s.throughput_tok_s / v.throughput_tok_s);
                }
            }
            if let Some(v) = by(results, "vllm", p, l) {
                if v.throughput_tok_s > 0.0 {
                    max_vs_apc = max_vs_apc.max(s.throughput_tok_s / v.throughput_tok_s);
                }
            }
            let failed: String = SYSTEMS
                .iter()
                .map(|sys| {
                    by(results, sys, p, l)
                        .map(|r| r.failed.to_string())
                        .unwrap_or_else(|| "-".into())
                })
                .collect::<Vec<_>>()
                .join("/");
            b.row(vec![
                format!("{p}"),
                format!("{l}"),
                format!("{:.0}", s.throughput_tok_s),
                norm(by(results, "vllm-noapc", p, l)),
                norm(by(results, "vllm", p, l)),
                norm(by(results, "tgi", p, l)),
                format!("{:.0}%", s.gpu_util * 100.0),
                failed,
            ]);
        }
    }
    b.print();
    println!();
    println!(
        "Headline: max Symphony throughput ratio = {max_vs_noapc:.2}x vs vLLM-without-APC \
         (the paper's comparator; paper reports up to 7x), {max_vs_apc:.2}x vs vLLM-with-APC"
    );
}
