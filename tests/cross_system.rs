//! Cross-crate integration tests: the properties that hold *across* serving
//! systems built on the shared substrate.

#[path = "../crates/core/tests/decode/mod.rs"]
mod decode;

use decode::{generate, GenOpts};
use symphony::{Kernel, KernelConfig, SpawnOpts, TokenId};
use symphony_baseline::{Engine, EngineConfig, PromptRequest};
use symphony_bench::prompt_server::{split_response, PromptServer};
use symphony_gpu::DeviceSpec;
use symphony_model::surrogate::VocabInfo;
use symphony_model::{ModelConfig, Surrogate};
use symphony_sim::SimTime;
use symphony_tokenizer::Bpe;

/// A baseline preset shrunk to the tiny model on the test device.
fn small(preset: EngineConfig) -> EngineConfig {
    EngineConfig {
        model: ModelConfig::tiny(),
        model_seed: 7,
        device: DeviceSpec::test_device(),
        page_tokens: 4,
        max_batch: 16,
        ..preset
    }
}

/// The oracle: greedy decoding by its definition, with no kernel, KV
/// store, batching or cache — at each step the surrogate's argmax after a
/// fingerprint of the whole context so far.
fn reference_greedy(cfg: &KernelConfig, prompt: &[TokenId], max_tokens: usize) -> Vec<TokenId> {
    let bpe = Bpe::default_tokenizer();
    let model =
        Surrogate::new(cfg.model, cfg.model_seed).with_vocab(VocabInfo::from_tokenizer(bpe));
    let fpr = model.fingerprinter();
    let mut context = prompt.to_vec();
    while context.len() < prompt.len() + max_tokens {
        let fp = context
            .iter()
            .zip(0u32..)
            .fold(fpr.origin(), |fp, (&t, pos)| fpr.advance(fp, t, pos));
        let next = model.next_dist(fp).argmax();
        if next == bpe.specials().eos {
            break;
        }
        context.push(next);
    }
    context.split_off(prompt.len())
}

/// The same logical prompt, served greedily by Symphony (a LIP), by both
/// baseline engines and by the prompt server written as a program (with
/// and without its prefix table), says what the reference decoder says:
/// all run the same surrogate model, so only scheduling may differ —
/// never output.
#[test]
fn symphony_and_baselines_agree_on_greedy_output() {
    let prompt_text = "compare the memory management of the serving systems";
    let bpe = Bpe::default_tokenizer();
    let reference = bpe.decode(&reference_greedy(
        &KernelConfig::for_tests(),
        &bpe.encode(prompt_text),
        24,
    ));
    assert!(!reference.is_empty());

    // Symphony.
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let pid = kernel.spawn_process("lip", prompt_text, |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let out = generate(
            ctx,
            kv,
            &prompt,
            &GenOpts {
                max_tokens: 24,
                temperature: 0.0,
                emit: true,
                ..Default::default()
            },
        )?;
        assert!(out.stopped_on_eos || out.tokens.len() == 24);
        Ok(())
    });
    kernel.run();
    assert_eq!(kernel.record(pid).unwrap().output, reference, "symphony");

    // The prompt server, as a program on the same kernel.
    for server in [
        PromptServer::with_apc(4, 24),
        PromptServer::without_cache(24),
    ] {
        let mut kernel = Kernel::new(KernelConfig::for_tests());
        let pid = kernel.admit("prompt", prompt_text, SpawnOpts::default(), server.body());
        kernel.run();
        let rec = kernel.record(pid).unwrap();
        assert_eq!(split_response(&rec.output).0, reference, "{server:?}");
    }

    // Baseline engines (same model seed as KernelConfig::for_tests).
    let request = PromptRequest {
        id: 1,
        arrival: SimTime::ZERO,
        prompt: bpe.encode(prompt_text),
        max_tokens: 24,
        temperature: 0.0,
    };
    for cfg in [small(EngineConfig::vllm_like()), small(EngineConfig::tgi_like())] {
        let name = cfg.name;
        let mut engine = Engine::new(cfg);
        let (completions, _) = engine.run(vec![request.clone()]);
        let engine_out = bpe.decode(&completions[0].tokens);
        assert_eq!(engine_out, reference, "{name}");
    }
}

/// Whole-stack determinism: a mixed workload (generation + tools + threads
/// + IPC) replays identically, Chrome trace included.
#[test]
fn full_stack_determinism() {
    fn run_once() -> (String, Vec<String>) {
        let mut cfg = KernelConfig::for_tests();
        cfg.telemetry = true;
        let mut kernel = Kernel::new(cfg);
        kernel.register_tool(
            "search",
            symphony::ToolSpec::new(symphony::SimDuration::from_millis(20), |q| {
                symphony::ToolOutcome::Ok(format!("result:{q}"))
            }),
        );
        let consumer = kernel.spawn_process("consumer", "", |ctx| {
            let m = ctx.recv_msg()?;
            ctx.emit(&format!("got:{}", m.data))?;
            Ok(())
        });
        let mut pids = vec![consumer];
        for i in 0..3 {
            let args = format!("request {i}");
            pids.push(kernel.spawn_process(&format!("worker{i}"), &args, move |ctx| {
                let found = ctx.call_tool("search", &ctx.args())?;
                let prompt = ctx.tokenize(&found)?;
                let kv = ctx.kv_create()?;
                generate(
                    ctx,
                    kv,
                    &prompt,
                    &GenOpts {
                        max_tokens: 10,
                        temperature: 0.9,
                        ..Default::default()
                    },
                )?;
                if i == 0 {
                    let target = ctx.lookup_process("consumer")?.expect("consumer lives");
                    ctx.send_msg(target, "done")?;
                }
                Ok(())
            }));
        }
        kernel.run();
        let outputs = pids
            .iter()
            .map(|&p| kernel.record(p).unwrap().output.clone())
            .collect();
        (kernel.export_chrome_trace(), outputs)
    }
    let (trace1, out1) = run_once();
    let (trace2, out2) = run_once();
    assert!(trace1 == trace2, "same seed, different Chrome trace");
    assert_eq!(out1, out2);
}

/// Baseline engines are deterministic too (same seed, same trace).
#[test]
fn engine_determinism() {
    let bpe = Bpe::default_tokenizer();
    let reqs: Vec<PromptRequest> = (0..5)
        .map(|i| PromptRequest {
            id: i,
            arrival: SimTime::ZERO + symphony::SimDuration::from_millis(i * 40),
            prompt: bpe.encode(&format!("request number {i} body")),
            max_tokens: 12,
            temperature: 0.8,
        })
        .collect();
    let run = |reqs: Vec<PromptRequest>| {
        let mut e = Engine::new(small(EngineConfig::vllm_like()));
        let (c, stats) = e.run(reqs);
        let tokens: Vec<Vec<u32>> = c.iter().map(|x| x.tokens.clone()).collect();
        (tokens, stats.makespan)
    };
    let (t1, m1) = run(reqs.clone());
    let (t2, m2) = run(reqs);
    assert_eq!(t1, t2);
    assert_eq!(m1, m2);
}

/// The quick-scale Figure 3 experiment preserves the paper's ordering:
/// under heavy skew Symphony ≤ vLLM ≤ TGI in latency per token.
#[test]
fn fig3_quick_ordering_under_heavy_skew() {
    use symphony_bench::fig3::{run_engine_point, run_symphony_point, Fig3Config, Scale};
    let cfg = Fig3Config::quick();
    let scale = Scale::quick(&cfg);
    let s = run_symphony_point(&cfg, &scale, 0.5, 40.0);
    let v = run_engine_point("vllm-noapc", &cfg, &scale, 0.5, 40.0);
    let t = run_engine_point("tgi", &cfg, &scale, 0.5, 40.0);
    assert_eq!(s.failed, 0);
    assert!(s.cache_hit_rate > 0.5, "heavy skew should mostly hit: {s:?}");
    assert!(
        s.latency_per_token_ms <= v.latency_per_token_ms,
        "symphony {s:?} vs vllm-noapc {v:?}"
    );
    assert!(
        s.latency_per_token_ms <= t.latency_per_token_ms,
        "symphony {s:?} vs tgi {t:?}"
    );
}

/// Tokenizer round-trips compose with the whole pipeline: emitted output is
/// the detokenisation of emitted tokens.
#[test]
fn emitted_output_matches_detokenised_tokens() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let pid = kernel.spawn_process("echo-tokens", "round trip of tokens", |ctx| {
        let toks = ctx.tokenize(&ctx.args())?;
        ctx.emit_tokens(&toks)?;
        Ok(())
    });
    kernel.run();
    assert_eq!(kernel.record(pid).unwrap().output, "round trip of tokens");
}

/// The Figure 3 harness itself is deterministic: the same point measured
/// twice yields identical numbers (no hidden wall-clock or map-order
/// dependence anywhere in the stack).
#[test]
fn fig3_point_is_reproducible() {
    use symphony_bench::fig3::{run_symphony_point, Fig3Config, Scale};
    let cfg = Fig3Config::quick();
    let scale = Scale::quick(&cfg);
    let a = run_symphony_point(&cfg, &scale, 1.0, 20.0);
    let b = run_symphony_point(&cfg, &scale, 1.0, 20.0);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.mean_latency_s, b.mean_latency_s);
    assert_eq!(a.throughput_tok_s, b.throughput_tok_s);
    assert_eq!(a.cache_hit_rate, b.cache_hit_rate);
}
