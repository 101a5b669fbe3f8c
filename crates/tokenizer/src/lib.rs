//! A byte-level BPE tokenizer built from scratch.
//!
//! Symphony's `pred` system call operates on token IDs, so the reproduction
//! needs a real tokenizer: this crate implements byte-pair encoding with a
//! trainer, a greedy rank-based encoder, and a lossless decoder. Byte-level
//! base tokens (one per byte value) guarantee that *any* string round-trips
//! through `encode` → `decode`, which the property tests assert.
//!
//! The default tokenizer is trained deterministically on the synthetic corpus
//! in [`corpus`], mirroring how the workload generators produce documents, so
//! document token counts in the experiments are realistic rather than
//! hand-waved. The vocabulary is a constant of the build, as a provider's
//! tokenizer is part of the model it loads: `build.rs` runs the trainer
//! (`train.rs`, compiled into both) on the corpus seed and merge budget
//! `train.rs` names, which stay the vocabulary's only source of truth, and
//! writes the tables the 1 144 merges it learns lay out (every token's
//! bytes end to end, where each ends, the merges' ranks by pair) to
//! `$OUT_DIR`. [`Bpe::default_tokenizer`] borrows those tables as they are
//! (a [`Vocab`] and a rank table, nothing expanded at run time), and a
//! test relearns them at run time with [`Bpe::train`], the public
//! specification. Token ids feed every surrogate distribution
//! and output digest, so the crate is held to symphony-lint's determinism
//! rules (`build.rs` included) and pins that vocabulary in its own tests.
//!
//! # Examples
//!
//! ```
//! use symphony_tokenizer::Bpe;
//!
//! let bpe = Bpe::default_tokenizer();
//! let ids = bpe.encode("the system design of the system");
//! assert_eq!(bpe.decode(&ids), "the system design of the system");
//! ```

pub mod bpe;
pub mod corpus;
mod train;
pub mod vocab;

pub use bpe::Bpe;
pub use corpus::CorpusGen;
pub use vocab::{SpecialTokens, TokenId, Vocab};

// What `train.rs` takes from its including root (`build.rs` declares its own).
use vocab::BYTE_TOKENS;
