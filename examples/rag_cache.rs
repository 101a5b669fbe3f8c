//! Application-controlled prompt caching (the Figure 3 scenario, small).
//!
//! RAG requests arrive for documents with skewed popularity. The LIP — not
//! the serving system — decides what to cache: popular documents are
//! prefilled once, published in KVFS, pinned, and forked by later requests.
//!
//! The program is LipScript text (`examples/lipscript/with_prelude/rag_cache.lip`,
//! after the decoding prelude `decode.lip`): it reads a missing cache file
//! as a miss, the error value of its `try kv_open`.
//!
//! Run with: `cargo run --example rag_cache`

use symphony::{Body, Kernel, KernelConfig, SimDuration, SpawnOpts, ToolOutcome, ToolSpec};
use symphony_lipscript::{InterpLimits, LipBody};
use symphony_sim::{Rng, Zipf};
use symphony_tokenizer::CorpusGen;

/// What each request sends: the prelude, then the program.
const PROGRAM: &str = concat!(
    include_str!("lipscript/with_prelude/decode.lip"),
    include_str!("lipscript/with_prelude/rag_cache.lip")
);
const DOCS: usize = 8;
const CACHE_TOP_K: usize = 3;
const REQUESTS: usize = 20;

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());

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

    // Zipf-popular topics, Poisson-ish arrival via fixed spacing.
    let popularity = Zipf::from_pareto_index(DOCS, 0.7);
    let mut rng = Rng::new(7);
    let mut pids = Vec::new();
    for i in 0..REQUESTS {
        let topic = popularity.sample(&mut rng);
        let at = symphony::SimTime::ZERO + SimDuration::from_millis(60 * i as u64);
        let args = format!("{topic} {CACHE_TOP_K}");
        let body = LipBody::parse(PROGRAM, InterpLimits::default()).expect("the program parses");
        let body = Body::Inline(Box::new(body));
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
