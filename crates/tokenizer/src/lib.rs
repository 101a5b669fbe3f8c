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
//! hand-waved. It is trained afresh, eagerly, by every process that builds a
//! kernel: the corpus seed and merge budget in [`Bpe::default_tokenizer`]
//! are the vocabulary's only source of truth (no checked-in merge table, no
//! build script), which the trainer affords by keeping its pair counts up to
//! date across merges rather than recounting them: ≈ 1.2 ms to generate the
//! corpus and ≈ 4.5 ms to learn its 1 144 merges in a release build. Token
//! ids feed every surrogate distribution and output digest, so the crate is
//! held to symphony-lint's determinism rules and pins that vocabulary in its
//! own tests.
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
pub mod vocab;

pub use bpe::Bpe;
pub use corpus::CorpusGen;
pub use vocab::{SpecialTokens, TokenId, Vocab};
