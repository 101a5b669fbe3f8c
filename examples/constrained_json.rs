//! Constrained decoding inside a LIP (§2.3, §4.1).
//!
//! Because `pred` exposes the full next-token distribution, the program can
//! mask it with a grammar state machine at every step — no serving-system
//! support needed. This example forces syntactically valid JSON via a
//! byte-level pushdown automaton lifted to tokens, and a multiple-choice
//! answer via a token trie. Both are one LipScript program
//! (`examples/lipscript/with_prelude/constrained.lip`) with a different mask.
//!
//! Run with: `cargo run --example constrained_json`

use symphony::{Body, Kernel, KernelConfig, SpawnOpts};
use symphony_bench::lip::json_table;
use symphony_lipscript::{InterpLimits, LipBody};
use symphony_tokenizer::Bpe;

/// The masked decoding loop, after the decoding prelude it calls.
const PROGRAM: &str = concat!(
    include_str!("lipscript/with_prelude/decode.lip"),
    include_str!("lipscript/with_prelude/decode_constrained.lip"),
    include_str!("lipscript/with_prelude/constrained.lip")
);

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    // The grammar's mask runs over the whole vocabulary each step.
    let limits = InterpLimits {
        fuel: 1_000_000_000,
        memory_cells: 1_000_000_000,
        ..InterpLimits::default()
    };
    let mut admit = |name: &str, lines: Vec<String>| {
        let body = LipBody::parse(PROGRAM, limits).expect("the program parses");
        let args = lines.join("\n");
        kernel.admit(
            name,
            &args,
            SpawnOpts::default(),
            Body::Inline(Box::new(body)),
        )
    };

    // At most 80 tokens at temperature 0.8, masked by the JSON grammar.
    let head = ["json 80 80", "produce a configuration object as json"].map(String::from);
    let table = json_table(Bpe::default_tokenizer().vocab());
    let json_pid = admit("json", [&head[..], &table].concat());

    // Greedy, masked to three answers.
    let choice_pid = admit(
        "choice",
        [
            "trie 256 0",
            "is application-level cache control beneficial? answer:",
            " yes",
            " no",
            " it depends",
        ]
        .map(String::from)
        .to_vec(),
    );

    kernel.run();

    let json = kernel.record(json_pid).expect("record");
    println!("JSON-constrained ({:?}):", json.status);
    println!("  {}\n[{} tokens]", json.output, json.usage.emitted_tokens);
    let choice = kernel.record(choice_pid).expect("record");
    println!("Trie-constrained ({:?}):", choice.status);
    println!("  answer:{}", choice.output);
}
