//! Tree-of-Thought reasoning as ONE program (§4.3).
//!
//! A single LIP implements the whole search: it forks the problem context
//! per hypothesis (copy-on-write, no tensor duplication), generates each
//! branch on its own thread, scores branches by model confidence, prunes,
//! and recurses on the winner. The program is LipScript text
//! (`examples/lipscript/with_prelude/tree_of_thought.lip`).
//!
//! Run with: `cargo run --example tree_of_thought`

use symphony::{Body, Kernel, KernelConfig, Mode, SpawnOpts};
use symphony_lipscript::{InterpLimits, LipBody};

/// The search, after the decoding prelude it calls.
const PROGRAM: &str = concat!(
    include_str!("lipscript/with_prelude/decode.lip"),
    include_str!("lipscript/with_prelude/tree_of_thought.lip")
);

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());

    // Publish the problem statement as a shared, pinned KV file.
    let problem = kernel
        .tokenizer()
        .encode("solve the following problem by exploring different approaches step by step");
    kernel
        .preload_kv("problem.kv", &problem, Mode::SHARED_READ, true)
        .expect("preload problem");

    let body = LipBody::parse(PROGRAM, InterpLimits::default()).expect("the program parses");
    let pid = kernel.admit(
        "tot",
        "",
        SpawnOpts::default(),
        Body::Inline(Box::new(body)),
    );

    kernel.run();
    let rec = kernel.record(pid).expect("record");
    println!("status: {:?}", rec.status);
    print!("{}", rec.output);
    let stats = kernel.kv_stats();
    println!(
        "kv: {} copy-on-write page copies; {} pages still resident",
        stats.cow_copies,
        kernel.store().gpu_pages_used()
    );
    println!(
        "gpu: {} batches, {} tokens",
        kernel.gpu_metrics().batches,
        kernel.gpu_metrics().tokens
    );
}
