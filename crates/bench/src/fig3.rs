//! Figure 3: the RAG prompt-caching experiment (§5).
//!
//! "We compare Symphony with two popular prompt-serving systems, vLLM and
//! TGI, in a retrieval-augmented generation (RAG) application scenario. The
//! application inputs a topic, fetches the relevant document, and generates
//! an answer. There are 100 documents, each containing 3,000 tokens. A LIP
//! implements prompt caching by retaining the KV cache for the top `k` most
//! popular topics and discarding it for others. We evaluate throughput and
//! latency under varying request loads and Pareto indices."
//!
//! All three systems run on the same surrogate model, GPU cost model and
//! paged KV store; the only difference is who controls cache policy.
//!
//! Note on `cache_top_k`: the paper pins the top 20 topics. On an A100-80G
//! the Llama-13B KV budget fits ~18 documents of 3,000 tokens with *zero*
//! working memory left, so a LIP that pinned 20 would starve its own
//! prefills. The harness defaults to 12 — exactly the kind of
//! application-level capacity planning the paper argues only the
//! application can do. The axis behaviour (Symphony wins at small Pareto
//! index) is unaffected.

use crate::lip;
use crate::prompt_server::{split_response, PromptServer};
use serde::Serialize;
use symphony::{
    BatchPolicy, Kernel, KernelConfig, Pid, ProcessRecord, SimDuration, SpawnOpts, ToolOutcome,
    ToolSpec,
};
use symphony_baseline::{Engine, EngineConfig, PromptRequest};
use symphony_gpu::DeviceSpec;
use symphony_lipscript::InterpLimits;
use symphony_model::ModelConfig;
use symphony_sim::{LogNormal, Rng, SimTime};
use symphony_tokenizer::Bpe;
use symphony_workloads::{RagCorpus, RagRequest, RagWorkload};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Number of documents/topics (paper: 100).
    pub num_docs: usize,
    /// Tokens per document (paper: 3,000).
    pub tokens_per_doc: usize,
    /// Requests per measured point.
    pub requests: usize,
    /// Target mean answer length in tokens.
    pub answer_tokens: u32,
    /// Topics the Symphony LIP pins (see module docs).
    pub cache_top_k: usize,
    /// Mean retrieval latency (tool call / client fetch).
    pub retrieval: SimDuration,
    /// Base seed; workloads and engines derive their streams from it.
    pub seed: u64,
}

impl Fig3Config {
    /// The paper-scale configuration.
    pub fn paper() -> Self {
        Fig3Config {
            num_docs: 100,
            tokens_per_doc: 3_000,
            requests: 150,
            answer_tokens: 64,
            cache_top_k: 12,
            retrieval: SimDuration::from_millis(30),
            seed: 0xF163,
        }
    }

    /// A miniature configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Fig3Config {
            num_docs: 10,
            tokens_per_doc: 120,
            requests: 30,
            answer_tokens: 12,
            cache_top_k: 3,
            retrieval: SimDuration::from_millis(10),
            seed: 0xF163,
        }
    }
}

/// Model/device scale the experiment runs at.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Served model (with the answer-length target applied).
    pub model: ModelConfig,
    /// Accelerator.
    pub device: DeviceSpec,
    /// Surrogate seed shared by every system.
    pub model_seed: u64,
    /// KV page size in tokens.
    pub page_tokens: usize,
    /// Optional KV-pool override (used by the quick scale to create
    /// contention despite the tiny model).
    pub gpu_kv_override: Option<u64>,
}

impl Scale {
    /// Llama-13B on A100-80G — the paper's setup.
    pub fn paper(cfg: &Fig3Config) -> Self {
        Scale {
            model: ModelConfig::llama_13b().with_mean_output_tokens(cfg.answer_tokens),
            device: DeviceSpec::a100_80g(),
            model_seed: 13,
            page_tokens: 16,
            gpu_kv_override: None,
        }
    }

    /// Tiny model on the test device, with a pool sized so only a few
    /// documents fit (mirroring the paper's capacity pressure).
    pub fn quick(cfg: &Fig3Config) -> Self {
        let model = ModelConfig::tiny().with_mean_output_tokens(cfg.answer_tokens);
        let doc_bytes = cfg.tokens_per_doc as u64 * model.kv_bytes_per_token();
        Scale {
            model,
            device: DeviceSpec::test_device(),
            model_seed: 7,
            page_tokens: 4,
            // ~5 documents plus working space.
            gpu_kv_override: Some(doc_bytes * 11 / 2),
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Serialize)]
pub struct PointResult {
    /// System name.
    pub system: String,
    /// Popularity skew (paper's Pareto index; small = heavy skew).
    pub pareto_index: f64,
    /// Offered load in requests/second.
    pub load_rps: f64,
    /// Requests completed successfully.
    pub completed: usize,
    /// Requests that failed (e.g. out-of-memory after retries).
    pub failed: usize,
    /// Mean end-to-end latency (seconds).
    pub mean_latency_s: f64,
    /// 95th-percentile end-to-end latency (seconds).
    pub p95_latency_s: f64,
    /// Mean end-to-end latency per generated token (milliseconds) — the
    /// Figure 3a metric.
    pub latency_per_token_ms: f64,
    /// Generated-token throughput (tokens/second) — the Figure 3b metric.
    pub throughput_tok_s: f64,
    /// Request throughput (requests/second).
    pub throughput_req_s: f64,
    /// Fraction of requests served from cached document KV.
    pub cache_hit_rate: f64,
    /// GPU busy fraction over the run.
    pub gpu_util: f64,
}

/// The Symphony RAG LIP (the paper's §5 program, args
/// `"topic|top_k|query"`), after the decoding loop that hands it a refused
/// `pred`: it pins the `top_k` topics' documents, and on a full KV pool it
/// releases what it holds and backs off — the application owns both.
const RAG_LIP: &str = concat!(
    include_str!("../../../examples/lipscript/with_prelude/decode_try.lip"),
    include_str!("../../../examples/lipscript/with_prelude/rag.lip")
);

/// Room for every attempt a request may make: the memory meter credits
/// nothing back, and 40 attempts of a 3 000-token prefill and a 512-token
/// answer (`push` charges the list it copies) come to ≈ 9 M cells, past
/// the default 4 M.
const RAG_LIMITS: InterpLimits = InterpLimits {
    fuel: 1_000_000_000,
    memory_cells: 1_000_000_000,
    max_depth: 64,
};

/// Builds the shared workload for one point (same seed ⇒ same requests for
/// every system).
fn workload(cfg: &Fig3Config, pareto: f64, load: f64) -> Vec<RagRequest> {
    let mut wl = RagWorkload::new(cfg.num_docs, pareto, load, cfg.seed);
    wl.take(cfg.requests)
}

/// Document texts (decoded once; the tool and the baseline clients share
/// them).
fn doc_texts(cfg: &Fig3Config) -> Vec<String> {
    let bpe = Bpe::default_tokenizer();
    let corpus = RagCorpus::generate(bpe, cfg.num_docs, cfg.tokens_per_doc, cfg.seed ^ 0xD0C5);
    (0..corpus.len()).map(|i| bpe.decode(corpus.doc(i))).collect()
}

/// Runs Symphony at one `(pareto, load)` point.
pub fn run_symphony_point(
    cfg: &Fig3Config,
    scale: &Scale,
    pareto: f64,
    load: f64,
) -> PointResult {
    run_symphony_point_persist(cfg, scale, pareto, load, None, None).0
}

/// The kernel every system of a point runs on: work-conserving batching,
/// no residency management (a `pred` that does not fit fails, and the
/// program decides what happens next), and the scale's model and pool.
fn kernel_config(cfg: &Fig3Config, scale: &Scale) -> KernelConfig {
    KernelConfig {
        model: scale.model,
        model_seed: scale.model_seed,
        device: scale.device,
        // The policy trade-off itself is studied in exp E1.
        exec: symphony::ExecMode::Static(BatchPolicy::Immediate),
        max_batch: 64,
        page_tokens: scale.page_tokens,
        cpu_swap_bytes: 256_000_000_000,
        disk_swap_bytes: 0,
        journal_path: None,
        gpu_kv_bytes_override: scale.gpu_kv_override,
        syscall_cost: SimDuration::from_micros(2),
        offload_on_io_wait: false,
        offload_min_latency: SimDuration::from_millis(20),
        seed: cfg.seed,
        telemetry: false,
        causal: false,
        faults: symphony::FaultPlan::none(),
        wal: None,
    }
}

/// Runs Symphony at one point with optional warm-restart logging (E13):
/// boots its KV store from the kernel log at `boot_journal` when the file
/// exists, and writes its own kernel log to `persist_to`, whose KV batches
/// carry every document the run publishes. Returns the restore report when
/// the kernel warm-started.
pub fn run_symphony_point_persist(
    cfg: &Fig3Config,
    scale: &Scale,
    pareto: f64,
    load: f64,
    boot_journal: Option<&std::path::Path>,
    persist_to: Option<&std::path::Path>,
) -> (PointResult, Option<symphony::RestoreReport>) {
    let kcfg = KernelConfig {
        journal_path: boot_journal.map(|p| p.to_path_buf()),
        wal: persist_to.map(symphony::WalConfig::new),
        ..kernel_config(cfg, scale)
    };
    let mut kernel = Kernel::new(kcfg);
    let texts = std::sync::Arc::new(doc_texts(cfg));
    {
        let texts = texts.clone();
        kernel.register_tool(
            "retrieve",
            ToolSpec::new(cfg.retrieval, move |args| match args.parse::<usize>() {
                Ok(i) if i < texts.len() => ToolOutcome::Ok(texts[i].clone()),
                _ => ToolOutcome::Failed(format!("no such topic: {args}")),
            }),
        );
    }
    let requests = workload(cfg, pareto, load);
    let top_k = cfg.cache_top_k;
    let mut runs = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let args = format!("{}|{}|{}", r.topic, top_k, r.query);
        let name = format!("rag{i}");
        let body = lip::program_with(RAG_LIP, RAG_LIMITS);
        let pid = kernel.admit(&name, &args, SpawnOpts::at(r.at), body);
        runs.push((pid, r.at));
    }
    kernel.run();
    let restored = kernel.restored().copied();
    // A hit is a request that did not fetch its document.
    let point = measure("symphony", pareto, load, &kernel, &runs, |recs| {
        let misses = recs.iter().filter(|r| r.usage.tool_calls > 0).count();
        1.0 - misses as f64 / recs.len() as f64
    });
    (point, restored)
}

/// Runs a prompt-serving baseline at one `(pareto, load)` point.
pub fn run_engine_point(
    which: &str,
    cfg: &Fig3Config,
    scale: &Scale,
    pareto: f64,
    load: f64,
) -> PointResult {
    let mut ecfg = match which {
        "vllm" => EngineConfig::vllm_like(),
        "vllm-noapc" => EngineConfig::vllm_noapc(),
        "tgi" => EngineConfig::tgi_like(),
        other => panic!("unknown engine {other}"),
    };
    ecfg.model = scale.model;
    ecfg.model_seed = scale.model_seed;
    ecfg.device = scale.device;
    ecfg.page_tokens = scale.page_tokens;
    ecfg.gpu_kv_bytes_override = scale.gpu_kv_override;
    ecfg.seed = cfg.seed;
    let mut engine = Engine::new(ecfg);

    let texts = doc_texts(cfg);
    let bpe = Bpe::default_tokenizer();
    let requests = workload(cfg, pareto, load);
    // The client fetches the document itself before submitting the prompt;
    // the fetch costs the same retrieval latency Symphony's tool pays.
    let fetch = LogNormal::from_mean_cv(cfg.retrieval.as_secs_f64(), 0.3);
    let mut rng = Rng::new(cfg.seed ^ 0xC11E);
    let mut originals = std::collections::HashMap::new();
    let prompt_reqs: Vec<PromptRequest> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let fetch_done = r.at + SimDuration::from_secs_f64(fetch.sample(&mut rng));
            originals.insert(i as u64, r.at);
            PromptRequest {
                id: i as u64,
                arrival: fetch_done,
                prompt: bpe.encode(&format!("{}\n{}", texts[r.topic], r.query)),
                max_tokens: 512,
                temperature: 0.0,
            }
        })
        .collect();
    let (completions, stats) = engine.run(prompt_reqs);
    let gpu_busy = engine.gpu_busy();

    let mut lat = symphony_sim::Series::new();
    let mut lat_per_tok = symphony_sim::Series::new();
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut tokens = 0u64;
    let mut makespan = SimTime::ZERO;
    for c in &completions {
        let original = originals[&c.id];
        makespan = makespan.max(c.finished_at);
        if c.failed {
            failed += 1;
            continue;
        }
        completed += 1;
        tokens += c.tokens.len() as u64;
        let l = c.finished_at.duration_since(original).as_secs_f64();
        lat.add(l);
        if !c.tokens.is_empty() {
            lat_per_tok.add(l * 1e3 / c.tokens.len() as f64);
        }
    }
    let span = makespan.as_secs_f64().max(1e-9);
    PointResult {
        system: which.into(),
        pareto_index: pareto,
        load_rps: load,
        completed,
        failed,
        mean_latency_s: lat.mean(),
        p95_latency_s: lat.percentiles(&[0.95])[0].unwrap_or(0.0),
        latency_per_token_ms: lat_per_tok.mean(),
        throughput_tok_s: tokens as f64 / span,
        throughput_req_s: completed as f64 / span,
        cache_hit_rate: stats.cache_hit_rate(),
        gpu_util: gpu_busy.as_secs_f64() / span,
    }
}

/// Runs a baseline written as a program (`vllm-lip` or `vllm-noapc-lip`)
/// at one `(pareto, load)` point, on Symphony's kernel: the client fetches
/// the document as for [`run_engine_point`], then submits document and
/// query as one prompt, a [`PromptServer`] process admitted when its fetch
/// is done. Latency counts from the request's arrival, fetch included.
pub fn run_prompt_point(
    which: &str,
    cfg: &Fig3Config,
    scale: &Scale,
    pareto: f64,
    load: f64,
) -> PointResult {
    let server = match which {
        "vllm-lip" => PromptServer::with_apc(scale.page_tokens, 512),
        "vllm-noapc-lip" => PromptServer::without_cache(512),
        other => panic!("unknown prompt server {other}"),
    };
    let mut kernel = Kernel::new(kernel_config(cfg, scale));
    let texts = doc_texts(cfg);
    let bpe = Bpe::default_tokenizer();
    let requests = workload(cfg, pareto, load);
    // The fetch costs the same retrieval latency Symphony's tool pays.
    let fetch = LogNormal::from_mean_cv(cfg.retrieval.as_secs_f64(), 0.3);
    let mut rng = Rng::new(cfg.seed ^ 0xC11E);
    let mut runs = Vec::with_capacity(requests.len());
    let mut prompt_tokens = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let fetch_done = r.at + SimDuration::from_secs_f64(fetch.sample(&mut rng));
        let prompt = format!("{}\n{}", texts[r.topic], r.query);
        prompt_tokens.push(bpe.encode(&prompt).len() as u64);
        let name = format!("prompt{i}");
        let pid = kernel.admit(&name, &prompt, SpawnOpts::at(fetch_done), server.body());
        runs.push((pid, r.at));
    }
    kernel.run();
    // Token-level, as vLLM counts it: each response reports the prompt
    // tokens its request took from the table.
    let prompt_total: u64 = prompt_tokens.iter().sum();
    measure(which, pareto, load, &kernel, &runs, |recs| {
        let cached: u64 = recs.iter().map(|r| split_response(&r.output).1).sum();
        cached as f64 / prompt_total as f64
    })
}

/// One point's figures from the kernel's records of `runs` (each a
/// process and the arrival its latency counts from); `hit_rate` reads the
/// records of the requests that completed.
fn measure(
    system: &str,
    pareto: f64,
    load: f64,
    kernel: &Kernel,
    runs: &[(Pid, SimTime)],
    hit_rate: impl FnOnce(&[&ProcessRecord]) -> f64,
) -> PointResult {
    let mut lat = symphony_sim::Series::new();
    let mut lat_per_tok = symphony_sim::Series::new();
    let mut ok = Vec::with_capacity(runs.len());
    let mut failed = 0usize;
    let mut tokens = 0u64;
    let mut makespan = SimTime::ZERO;
    for &(pid, arrival) in runs {
        let rec = kernel.record(pid).expect("record");
        let Some(exit) = rec.exited_at else {
            failed += 1;
            continue;
        };
        makespan = makespan.max(exit);
        if !rec.status.is_ok() {
            failed += 1;
            continue;
        }
        tokens += rec.usage.emitted_tokens;
        let l = exit.duration_since(arrival).as_secs_f64();
        lat.add(l);
        if rec.usage.emitted_tokens > 0 {
            lat_per_tok.add(l * 1e3 / rec.usage.emitted_tokens as f64);
        }
        ok.push(rec);
    }
    let completed = ok.len();
    let span = makespan.as_secs_f64().max(1e-9);
    PointResult {
        system: system.into(),
        pareto_index: pareto,
        load_rps: load,
        completed,
        failed,
        mean_latency_s: lat.mean(),
        p95_latency_s: lat.percentiles(&[0.95])[0].unwrap_or(0.0),
        latency_per_token_ms: lat_per_tok.mean(),
        throughput_tok_s: tokens as f64 / span,
        throughput_req_s: completed as f64 / span,
        cache_hit_rate: if completed > 0 { hit_rate(&ok) } else { 0.0 },
        gpu_util: kernel.gpu_metrics().busy.as_secs_f64() / span,
    }
}

/// Runs every system over the full `(pareto, load)` grid: Symphony, the
/// three baseline engines, and the two baselines written as programs.
pub fn sweep(
    cfg: &Fig3Config,
    scale: &Scale,
    paretos: &[f64],
    loads: &[f64],
) -> Vec<PointResult> {
    let mut out = Vec::new();
    for &p in paretos {
        for &l in loads {
            eprintln!("fig3: pareto={p} load={l} ...");
            out.push(run_symphony_point(cfg, scale, p, l));
            out.push(run_engine_point("vllm", cfg, scale, p, l));
            out.push(run_engine_point("vllm-noapc", cfg, scale, p, l));
            out.push(run_engine_point("tgi", cfg, scale, p, l));
            out.push(run_prompt_point("vllm-lip", cfg, scale, p, l));
            out.push(run_prompt_point("vllm-noapc-lip", cfg, scale, p, l));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_point_runs_all_three_systems() {
        let cfg = Fig3Config::quick();
        let scale = Scale::quick(&cfg);
        let s = run_symphony_point(&cfg, &scale, 0.5, 20.0);
        assert_eq!(s.failed, 0, "symphony failures: {s:?}");
        assert_eq!(s.completed, cfg.requests);
        assert!(s.throughput_tok_s > 0.0);
        assert!(s.cache_hit_rate > 0.0, "heavy skew must produce hits");
        let v = run_engine_point("vllm", &cfg, &scale, 0.5, 20.0);
        assert_eq!(v.completed, cfg.requests);
        let t = run_engine_point("tgi", &cfg, &scale, 0.5, 20.0);
        assert_eq!(t.completed, cfg.requests);
        assert_eq!(t.cache_hit_rate, 0.0);
    }

    #[test]
    fn symphony_beats_tgi_under_heavy_skew_quick() {
        let cfg = Fig3Config::quick();
        let scale = Scale::quick(&cfg);
        let s = run_symphony_point(&cfg, &scale, 0.5, 50.0);
        let t = run_engine_point("tgi", &cfg, &scale, 0.5, 50.0);
        assert!(
            s.latency_per_token_ms < t.latency_per_token_ms,
            "symphony {s:?} vs tgi {t:?}"
        );
    }
}
