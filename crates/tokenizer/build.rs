//! Lays out the default vocabulary at build time.
//!
//! Runs the library's own trainer (`src/train.rs`) on the library's own
//! corpus generator (`src/corpus.rs`), both compiled in here by path, with
//! the inputs `src/train.rs` names, and writes the tables `train::tables`
//! lays out from the merges it learns to `$OUT_DIR`, which
//! `Bpe::default_tokenizer` borrows as they are: the tokens' bytes end to
//! end (`default_vocab.bytes`), where each token ends
//! (`default_vocab_ends.rs`) and the ranks by pair
//! (`default_vocab_ranks.rs`). Nothing is checked in: change the seed, the
//! budget, the corpus or the trainer and the next build learns the new
//! vocabulary.

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
    let tables = train::tables(&train::learn_merges(&text, train::DEFAULT_MERGE_BUDGET));

    let out_dir = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let write = |name: &str, contents: &[u8]| {
        // lint:allow(f1): a build artefact in cargo's OUT_DIR, rewritten whole by every build; nothing recovers it
        std::fs::write(out_dir.join(name), contents).expect("write a default vocabulary table");
    };
    write("default_vocab.bytes", &tables.bytes);
    // A `Vec`'s `Debug` text is an array literal.
    write(
        "default_vocab_ends.rs",
        format!("{:?}", tables.ends).as_bytes(),
    );
    write(
        "default_vocab_ranks.rs",
        format!("{:?}", tables.ranks).as_bytes(),
    );
}
