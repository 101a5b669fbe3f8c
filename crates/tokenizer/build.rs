//! Learns the default vocabulary at build time.
//!
//! Runs the library's own trainer (`src/train.rs`) on the library's own
//! corpus generator (`src/corpus.rs`), both compiled in here by path, with
//! the inputs `src/train.rs` names, and writes the ranked merge pairs to
//! `$OUT_DIR/default_merges.rs` for `Bpe::default_tokenizer` to expand.
//! Nothing is checked in: change the seed, the budget, the corpus or the
//! trainer and the next build learns the new vocabulary.

use std::fmt::Write as _;
use std::path::PathBuf;

/// `src/train.rs` takes these from its including root, as it does from
/// the library's `vocab` module there.
type TokenId = u32;
const BYTE_TOKENS: usize = 256;

// Only the training corpus is needed here; the rest is the library's API.
#[allow(dead_code, unreachable_pub)]
#[path = "src/corpus.rs"]
mod corpus;
#[path = "src/train.rs"]
mod train;

fn main() {
    for input in ["build.rs", "src/corpus.rs", "src/train.rs"] {
        println!("cargo:rerun-if-changed={input}");
    }
    let text = corpus::CorpusGen::new(train::DEFAULT_CORPUS_SEED)
        .training_corpus(train::DEFAULT_CORPUS_PARAGRAPHS);
    let merges = train::learn_merges(&text, train::DEFAULT_MERGE_BUDGET);

    let mut table = String::from("[\n");
    for (a, b) in &merges {
        // Writing to a String cannot fail.
        let _ = writeln!(table, "    ({a}, {b}),");
    }
    table.push_str("]\n");
    let out_dir = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let path = out_dir.join("default_merges.rs");
    // lint:allow(f1): a build artefact in cargo's OUT_DIR, rewritten whole by every build; nothing recovers it
    std::fs::write(&path, table).expect("write the default merge table");
}
