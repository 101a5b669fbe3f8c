//! E4 — §4.1 speculative decoding via multi-token `pred`.
//!
//! The LIP drafts `k` tokens, verifies the whole draft with ONE `pred`, and
//! truncates the KV file back to the accepted prefix. The draft model is
//! simulated by an *agreement parameter* `alpha`: each draft token matches
//! the target's choice with probability `alpha` (the harness precomputes the
//! target's greedy continuation with its own copy of the surrogate — it is
//! deterministic — and flips tokens with probability `1 − alpha`). This is
//! the standard way to study speculation independent of a concrete drafter.
//!
//! Expected shape: expected accepted-per-pred rises then flattens as
//! `alpha^k` decays, so time/token improves steeply for small `k` and
//! saturates (or degrades) at large `k` — the classic speculation curve.

use crate::{ExpArgs, Report, Table};
use serde::Serialize;
use symphony::sampling::verify_greedy;
use symphony::{Kernel, KernelConfig, SysError};
use symphony_model::surrogate::VocabInfo;
use symphony_model::Surrogate;
use symphony_tokenizer::Bpe;

const TARGET_TOKENS: usize = 96;
const RUNS: usize = 12;
const ALPHA: f64 = 0.8;

#[derive(Debug, Clone, Serialize)]
struct Point {
    draft_len: usize,
    alpha: f64,
    time_per_token_ms: f64,
    acceptance: f64,
    pred_calls_per_token: f64,
    speedup_vs_autoregressive: f64,
}

/// Precomputes the target's greedy continuation (the surrogate is
/// deterministic, so the harness can know the "truth" a draft model would
/// approximate).
fn greedy_truth(cfg: &KernelConfig, prompt_text: &str, n: usize) -> Vec<u32> {
    let bpe = Bpe::default_tokenizer();
    let model =
        Surrogate::new(cfg.model, cfg.model_seed).with_vocab(VocabInfo::from_tokenizer(bpe));
    let fpr = model.fingerprinter();
    let prompt = bpe.encode(prompt_text);
    let mut fp = fpr.origin();
    for (i, &t) in prompt.iter().enumerate() {
        fp = fpr.advance(fp, t, i as u32);
    }
    let mut out = Vec::with_capacity(n);
    for pos in (prompt.len() as u32..).take(n) {
        let t = model.next_dist(fp).argmax();
        if t == model.vocab().eos {
            break;
        }
        out.push(t);
        fp = fpr.advance(fp, t, pos);
    }
    out
}

fn run_point(draft_len: usize) -> (f64, f64, f64) {
    let mut cfg = KernelConfig::paper_setup();
    cfg.model = cfg.model.with_mean_output_tokens(100_000); // no early EOS
    let kernel_cfg = cfg.clone();
    let mut kernel = Kernel::new(cfg);
    let mut pids = Vec::new();
    for i in 0..RUNS {
        let prompt_text = format!("a drafting context number {i}");
        let truth = greedy_truth(&kernel_cfg, &prompt_text, TARGET_TOKENS + 16);
        let truth_str: Vec<String> = truth.iter().map(|t| t.to_string()).collect();
        let args = format!("{draft_len}|{prompt_text}|{}", truth_str.join(","));
        pids.push(kernel.spawn_process(&format!("spec{i}"), &args, |ctx| {
            let args = ctx.args();
            let mut parts = args.splitn(3, '|');
            let k: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(SysError::BadArgument)?;
            let text = parts.next().ok_or(SysError::BadArgument)?.to_string();
            let truth: Vec<u32> = parts
                .next()
                .ok_or(SysError::BadArgument)?
                .split(',')
                .filter_map(|s| s.parse().ok())
                .collect();
            let target = truth.len().min(TARGET_TOKENS);

            let prompt = ctx.tokenize(&text)?;
            let kv = ctx.kv_create()?;
            let mut dist = ctx
                .pred_positions(kv, &prompt, 0)?
                .pop()
                .ok_or(SysError::BadArgument)?;
            let mut pos = prompt.len() as u32;
            let mut produced = 0usize;
            let mut drafted = 0usize;
            let mut accepted_total = 0usize;
            while produced < target {
                if k == 0 {
                    // Plain autoregressive baseline.
                    let t = dist.argmax();
                    ctx.emit_tokens(&[t])?;
                    dist = ctx.pred(kv, &[(t, pos)])?.remove(0);
                    pos += 1;
                    produced += 1;
                    continue;
                }
                // Draft k tokens with agreement probability ALPHA.
                let draft: Vec<u32> = (0..k.min(target - produced))
                    .map(|j| {
                        let truth_tok = truth[produced + j];
                        if ctx.rng_f64() < ALPHA {
                            truth_tok
                        } else {
                            truth_tok.wrapping_add(1) % 1500
                        }
                    })
                    .collect();
                drafted += draft.len();
                let pairs: Vec<(u32, u32)> = draft
                    .iter()
                    .enumerate()
                    .map(|(j, &t)| (t, pos + j as u32))
                    .collect();
                let dists = ctx.pred(kv, &pairs)?;
                let (accepted, next) = verify_greedy(&draft, &dist, &dists);
                accepted_total += accepted;
                if accepted < draft.len() {
                    let keep = ctx.kv_len(kv)? - (draft.len() - accepted);
                    ctx.kv_truncate(kv, keep)?;
                }
                ctx.emit_tokens(&draft[..accepted])?;
                produced += accepted;
                pos += accepted as u32;
                // Commit the correction/bonus token from the target.
                ctx.emit_tokens(&[next])?;
                dist = ctx.pred(kv, &[(next, pos)])?.remove(0);
                pos += 1;
                produced += 1;
            }
            ctx.emit(&format!("|{accepted_total}|{drafted}"))?;
            Ok(())
        }));
    }
    kernel.run();

    let mut time_per_tok = symphony_sim::Series::new();
    let mut acc = 0usize;
    let mut dr = 0usize;
    let mut pred_calls = 0u64;
    let mut tokens = 0u64;
    for &pid in &pids {
        let rec = kernel.record(pid).expect("record");
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        let parts: Vec<&str> = rec.output.rsplit('|').collect();
        dr += parts[0].parse::<usize>().unwrap_or(0);
        acc += parts[1].parse::<usize>().unwrap_or(0);
        tokens += rec.usage.emitted_tokens;
        pred_calls += rec.usage.pred_calls;
        time_per_tok
            .add(rec.latency().expect("exited").as_millis_f64() / rec.usage.emitted_tokens as f64);
    }
    let acceptance = if dr == 0 { 1.0 } else { acc as f64 / dr as f64 };
    (
        time_per_tok.mean(),
        acceptance,
        pred_calls as f64 / tokens as f64,
    )
}

pub(super) fn run(_args: &ExpArgs) -> Report {
    eprintln!("E4: k=0 (baseline) ...");
    let (baseline_tpt, _, baseline_calls) = run_point(0);
    let mut results = vec![Point {
        draft_len: 0,
        alpha: ALPHA,
        time_per_token_ms: baseline_tpt,
        acceptance: 1.0,
        pred_calls_per_token: baseline_calls,
        speedup_vs_autoregressive: 1.0,
    }];
    let mut table = Table::new(
        "E4 — speculative decoding vs draft length (draft agreement alpha = 0.8)",
        &[
            "draft k",
            "time/token",
            "acceptance",
            "pred calls/token",
            "speedup",
        ],
    );
    table.row(vec![
        "0".into(),
        format!("{baseline_tpt:.1}ms"),
        "-".into(),
        format!("{baseline_calls:.2}"),
        "1.00x".into(),
    ]);
    for k in [1usize, 2, 3, 4, 6, 8] {
        eprintln!("E4: k={k} ...");
        let (tpt, acceptance, calls) = run_point(k);
        table.row(vec![
            k.to_string(),
            format!("{tpt:.1}ms"),
            format!("{:.0}%", acceptance * 100.0),
            format!("{calls:.2}"),
            format!("{:.2}x", baseline_tpt / tpt),
        ]);
        results.push(Point {
            draft_len: k,
            alpha: ALPHA,
            time_per_token_ms: tpt,
            acceptance,
            pred_calls_per_token: calls,
            speedup_vs_autoregressive: baseline_tpt / tpt,
        });
    }
    table.print();
    println!("\nShape check: speedup rises with k then saturates as alpha^k acceptance decays.");
    Report::new(&results)
}
