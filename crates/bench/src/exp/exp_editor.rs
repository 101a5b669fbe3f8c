//! E7 — the §2 code-editor motivation, quantified.
//!
//! Per-keystroke autocompletion over a growing buffer, three ways:
//!
//! - `symphony-incremental`: one LIP (`editor.lip`) keeps the buffer's KV
//!   file for the whole session and appends only newly typed tokens.
//! - `prompt-apc`: a prompt server with automatic prefix caching — each
//!   keystroke resubmits the buffer; the cache absorbs most of it.
//! - `prompt-nocache`: a stateless prompt server re-prefills everything.
//! - `prompt-apc-lip` and `prompt-nocache-lip`: the same two prompt
//!   servers written as a program ([`PromptServer`]), one process per
//!   keystroke on the incremental LIP's kernel.
//!
//! Expected: incremental per-keystroke latency is near-constant in buffer
//! size; no-cache grows linearly; APC sits close to incremental but pays
//! block-granular re-prefill and request overhead.

use crate::prompt_server::PromptServer;
use crate::{lip, ExpArgs, Report, Table};
use serde::Serialize;
use symphony::{Kernel, KernelConfig, SpawnOpts};
use symphony_baseline::{Engine, EngineConfig, PromptRequest};
use symphony_sim::{SimDuration, SimTime};
use symphony_tokenizer::Bpe;
use symphony_workloads::{EditorTrace, EditorWorkload};

/// The incremental session (§2).
const PROGRAM: &str = include_str!("../../../../examples/lipscript/with_prelude/editor.lip");

const KEYSTROKES: usize = 24;
const SUGGESTION_TOKENS: usize = 4;

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    buffer_words: usize,
    mean_keystroke_latency_ms: f64,
    total_pred_tokens: u64,
}

fn trace(buffer_words: usize) -> EditorTrace {
    EditorWorkload::new(buffer_words, KEYSTROKES, SimDuration::from_millis(250), 11).next_trace()
}

/// The kernel of E7's programs: the paper's setup, with answers that do
/// not end on their own.
fn kernel_config() -> KernelConfig {
    let mut cfg = KernelConfig::paper_setup();
    cfg.model = cfg.model.with_mean_output_tokens(100_000);
    cfg
}

/// The session as `editor.lip`'s args: the suggestion length, the buffer,
/// then a `<gap ns>\t<text>` line per keystroke.
fn session_args(tr: &EditorTrace) -> String {
    let mut args = format!("{SUGGESTION_TOKENS}\n{}", tr.initial_buffer);
    for (chunk, gap) in tr.appends.iter().zip(&tr.gaps) {
        args.push_str(&format!("\n{}\t{chunk}", gap.as_nanos()));
    }
    args
}

fn run_symphony(buffer_words: usize) -> Point {
    let mut kernel = Kernel::new(kernel_config());
    let args = session_args(&trace(buffer_words));
    let pid = kernel.admit("editor", &args, SpawnOpts::default(), lip::program(PROGRAM));
    kernel.run();
    let rec = kernel.record(pid).expect("record");
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    // The program's first line: the keystrokes' summed latency and count.
    let (sum_ns, count) = rec
        .output
        .lines()
        .next()
        .and_then(|l| l.split_once('\t'))
        .expect("the session's marks");
    let sum_ns: u64 = sum_ns.parse().expect("summed latency");
    let count: usize = count.parse().expect("keystrokes");
    Point {
        mode: "symphony-incremental".into(),
        buffer_words,
        mean_keystroke_latency_ms: sum_ns as f64 / count.max(1) as f64 / 1e6,
        total_pred_tokens: rec.usage.pred_tokens,
    }
}

fn run_prompt(buffer_words: usize, apc: bool) -> Point {
    let bpe = Bpe::default_tokenizer();
    let tr = trace(buffer_words);
    let mut ecfg = if apc {
        EngineConfig::vllm_like()
    } else {
        EngineConfig::vllm_noapc()
    };
    ecfg.model = ecfg.model.with_mean_output_tokens(100_000);
    let mut engine = Engine::new(ecfg);

    // Each keystroke submits the whole buffer as a fresh prompt.
    let mut buffer = tr.initial_buffer.clone();
    let mut at = SimTime::ZERO;
    let mut requests = Vec::new();
    for (i, (chunk, gap)) in tr.appends.iter().zip(&tr.gaps).enumerate() {
        at += *gap;
        buffer.push_str(chunk);
        requests.push(PromptRequest {
            id: i as u64,
            arrival: at,
            prompt: bpe.encode(&buffer),
            max_tokens: SUGGESTION_TOKENS,
            temperature: 0.0,
        });
    }
    let (completions, stats) = engine.run(requests);
    let mut lat = symphony_sim::Series::new();
    for c in &completions {
        lat.add(c.latency().as_millis_f64());
    }
    Point {
        mode: if apc { "prompt-apc" } else { "prompt-nocache" }.into(),
        buffer_words,
        mean_keystroke_latency_ms: lat.mean(),
        total_pred_tokens: stats.prompt_tokens - stats.cached_prompt_tokens
            + stats.generated_tokens,
    }
}

/// [`run_prompt`] with the prompt server as a program: each keystroke is
/// one [`PromptServer`] process, admitted at the keystroke with the whole
/// buffer as its args.
fn run_prompt_lip(buffer_words: usize, apc: bool) -> Point {
    let server = if apc {
        PromptServer::with_apc(kernel_config().page_tokens, SUGGESTION_TOKENS)
    } else {
        PromptServer::without_cache(SUGGESTION_TOKENS)
    };
    let mut kernel = Kernel::new(kernel_config());
    let tr = trace(buffer_words);
    let mut buffer = tr.initial_buffer.clone();
    let mut at = SimTime::ZERO;
    let mut pids = Vec::with_capacity(tr.appends.len());
    for (i, (chunk, gap)) in tr.appends.iter().zip(&tr.gaps).enumerate() {
        at += *gap;
        buffer.push_str(chunk);
        let name = format!("keystroke{i}");
        pids.push(kernel.admit(&name, &buffer, SpawnOpts::at(at), server.body()));
    }
    kernel.run();
    let mut lat = symphony_sim::Series::new();
    let mut total_pred_tokens = 0;
    for pid in pids {
        let rec = kernel.record(pid).expect("record");
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        lat.add(rec.latency().expect("exited").as_millis_f64());
        total_pred_tokens += rec.usage.pred_tokens;
    }
    Point {
        mode: if apc {
            "prompt-apc-lip"
        } else {
            "prompt-nocache-lip"
        }
        .into(),
        buffer_words,
        mean_keystroke_latency_ms: lat.mean(),
        total_pred_tokens,
    }
}

pub(super) fn run(_args: &ExpArgs) -> Report {
    let mut results = Vec::new();
    let mut table = Table::new(
        "E7 — editor autocompletion: per-keystroke latency vs buffer size",
        &[
            "buffer words",
            "incremental",
            "prompt+apc",
            "prompt-nocache",
            "apc-lip",
            "nocache-lip",
            "pred tokens i/a/n/al/nl",
        ],
    );
    for buffer_words in [200usize, 800, 2000] {
        eprintln!("E7: buffer={buffer_words} words ...");
        let s = run_symphony(buffer_words);
        let a = run_prompt(buffer_words, true);
        let n = run_prompt(buffer_words, false);
        let al = run_prompt_lip(buffer_words, true);
        let nl = run_prompt_lip(buffer_words, false);
        table.row(vec![
            buffer_words.to_string(),
            format!("{:.1}ms", s.mean_keystroke_latency_ms),
            format!("{:.1}ms", a.mean_keystroke_latency_ms),
            format!("{:.1}ms", n.mean_keystroke_latency_ms),
            format!("{:.1}ms", al.mean_keystroke_latency_ms),
            format!("{:.1}ms", nl.mean_keystroke_latency_ms),
            format!(
                "{}/{}/{}/{}/{}",
                s.total_pred_tokens,
                a.total_pred_tokens,
                n.total_pred_tokens,
                al.total_pred_tokens,
                nl.total_pred_tokens
            ),
        ]);
        results.extend([s, a, n, al, nl]);
    }
    table.print();
    println!("\nShape check: incremental latency is ~flat in buffer size; no-cache grows");
    println!("with the buffer; APC tracks incremental at block granularity.");
    Report::new(&results)
}
