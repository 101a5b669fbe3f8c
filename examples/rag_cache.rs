//! Application-controlled prompt caching (the Figure 3 scenario, small).
//!
//! RAG requests arrive for documents with skewed popularity. The LIP — not
//! the serving system — decides what to cache: popular documents are
//! prefilled once, published in KVFS, pinned, and forked by later requests.
//!
//! The program is a native closure: it reads a missing cache file as a
//! miss, which a LipScript program cannot yet (a failed system call ends
//! it).
//!
//! Run with: `cargo run --example rag_cache`

use symphony::{Body, Kernel, KernelConfig, Mode, SimDuration, SpawnOpts, ToolOutcome, ToolSpec};
use symphony_bench::native::greedy;
use symphony_sim::{Rng, Zipf};
use symphony_tokenizer::CorpusGen;

const DOCS: usize = 8;
const CACHE_TOP_K: usize = 3;
const REQUESTS: usize = 20;

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let bpe = kernel.tokenizer();

    // A small document corpus served by a retrieval tool.
    let docs: Vec<String> = (0..DOCS)
        .map(|i| CorpusGen::new(100 + i as u64).paragraph(60))
        .collect();
    let docs_for_tool = std::sync::Arc::new(docs);
    {
        let docs = docs_for_tool.clone();
        kernel.register_tool(
            "retrieve",
            ToolSpec::new(SimDuration::from_millis(10), move |args| {
                match args.parse::<usize>() {
                    Ok(i) if i < docs.len() => ToolOutcome::Ok(docs[i].clone()),
                    _ => ToolOutcome::Failed(format!("unknown topic {args}")),
                }
            }),
        );
    }
    let _ = bpe;

    // Zipf-popular topics, Poisson-ish arrival via fixed spacing.
    let popularity = Zipf::from_pareto_index(DOCS, 0.7);
    let mut rng = Rng::new(7);
    let mut pids = Vec::new();
    for i in 0..REQUESTS {
        let topic = popularity.sample(&mut rng);
        let at = symphony::SimTime::ZERO + SimDuration::from_millis(60 * i as u64);
        let args = format!("{topic}");
        let body = Body::hosted(|ctx| {
            let topic: usize = ctx
                .args()
                .parse()
                .map_err(|_| symphony::SysError::BadArgument)?;
            let path = format!("doc{topic}.kv");
            let (kv, hit) = match ctx.kv_open(&path) {
                Ok(doc) => (ctx.kv_fork(doc)?, true),
                Err(_) => {
                    let text = ctx.call_tool("retrieve", &topic.to_string())?;
                    let tokens = ctx.tokenize(&text)?;
                    let f = ctx.kv_create()?;
                    ctx.pred_positions(f, &tokens, 0)?;
                    // Application policy: publish only popular topics.
                    if topic < CACHE_TOP_K && ctx.kv_link(f, &path).is_ok() {
                        ctx.kv_chmod(f, Mode::SHARED_READ)?;
                        ctx.kv_pin(f)?;
                        (ctx.kv_fork(f)?, false)
                    } else {
                        (f, false)
                    }
                }
            };
            let q = ctx.tokenize("\nexplain this topic")?;
            greedy(ctx, kv, &q, 12)?;
            ctx.emit(if hit { "hit" } else { "miss" })?;
            ctx.kv_remove(kv)?;
            Ok(())
        });
        let pid = kernel.admit(&format!("rag{i}"), &args, SpawnOpts::at(at), body);
        pids.push((topic, pid));
    }

    kernel.run();

    let mut hits = 0;
    let mut misses = 0;
    println!("topic  outcome  latency");
    for (topic, pid) in &pids {
        let rec = kernel.record(*pid).expect("record");
        let outcome = rec.output.as_str();
        if outcome == "hit" {
            hits += 1;
        } else {
            misses += 1;
        }
        println!(
            "{topic:>5}  {outcome:>7}  {}",
            rec.latency().expect("exited")
        );
    }
    println!("\nhits: {hits}, misses: {misses} (top-{CACHE_TOP_K} topics cached)");
    println!(
        "pinned KV still resident: {} pages",
        kernel.store().gpu_pages_used()
    );
}
