//! Surrogate LLM: deterministic token distributions plus an analytic cost
//! model.
//!
//! No GPU or model weights are available to this reproduction (and the paper
//! itself evaluates on a simulation, §5), so this crate substitutes the
//! Llama-13B forward pass with two decoupled pieces:
//!
//! - **Semantics** ([`surrogate`]): a deterministic function from a *context
//!   fingerprint* (a rolling hash of `(token, position)` pairs, [`fingerprint`])
//!   to a next-token distribution ([`dist`]). Because the distribution depends
//!   only on the logical context, any mechanism that reconstructs the same
//!   context — full recompute, cached prefix, forked KV file — produces
//!   bit-identical output. That is exactly the property KV-cache reuse must
//!   preserve, and it makes cache correctness *testable*.
//! - **Timing** ([`cost`]): analytic FLOP and byte counts for prefill/decode
//!   work, parameterised by real model shapes ([`config`]). The GPU simulator
//!   turns these into virtual time with a roofline rule.
//!
//! # Examples
//!
//! ```
//! use symphony_model::{ModelConfig, Surrogate, Fingerprinter};
//!
//! let config = ModelConfig::tiny();
//! let model = Surrogate::new(config, 42);
//! let fp = Fingerprinter::new(42);
//! let mut ctx = fp.origin();
//! ctx = fp.advance(ctx, 17, 0);
//! let dist = model.next_dist(ctx);
//! assert!(!dist.entries().is_empty());
//! // Deterministic: same context, same distribution.
//! assert_eq!(dist.argmax(), model.next_dist(ctx).argmax());
//! ```

pub mod config;
pub mod cost;
pub mod dist;
pub mod fingerprint;
pub mod preds;
pub mod surrogate;

pub use config::ModelConfig;
pub use cost::{IoLane, WorkEstimate};
pub use dist::Dist;
pub use fingerprint::{CtxFingerprint, Fingerprinter};
pub use preds::{DistRef, Preds};
pub use surrogate::Surrogate;

/// Token identifier, shared with the tokenizer crate.
pub use symphony_tokenizer::TokenId;
