//! Userspace decoding library for LIPs.
//!
//! §2.3/§4.1: because `pred` returns the *full* next-token distribution, the
//! decoding loop is ordinary LIP code. This module is deliberately a
//! *library, not kernel machinery* — everything here runs inside the LIP on
//! top of the `pred`/`kv_*` syscalls, demonstrating the paper's claim that
//! techniques like constrained and speculative decoding need no serving-
//! system modifications.

pub mod constraint;
pub mod speculative;
pub mod watermark;

use symphony_kvfs::FileId;
use symphony_model::{Dist, TokenId};

use crate::syscall::Ctx;
use crate::types::SysError;

pub use constraint::{Constraint, JsonConstraint, TrieConstraint};
pub use speculative::{verify_greedy, verify_stochastic};
pub use watermark::Watermark;

/// Options for the reference autoregressive loop.
#[derive(Debug, Clone, Copy)]
pub struct GenOpts {
    /// Hard cap on generated tokens.
    pub max_tokens: usize,
    /// Sampling temperature (0 = greedy).
    pub temperature: f64,
    /// Optional top-k truncation (applied before temperature).
    pub top_k: Option<usize>,
    /// Optional nucleus truncation (applied before temperature).
    pub top_p: Option<f64>,
    /// Stream generated tokens to the client via `emit_tokens`.
    pub emit: bool,
}

impl Default for GenOpts {
    fn default() -> Self {
        GenOpts {
            max_tokens: 256,
            temperature: 0.0,
            top_k: None,
            top_p: None,
            emit: true,
        }
    }
}

/// Outcome of [`generate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenResult {
    /// The generated tokens (EOS excluded).
    pub tokens: Vec<TokenId>,
    /// `true` if generation stopped on EOS rather than the token cap.
    pub stopped_on_eos: bool,
}

/// Applies the configured truncations and samples one token.
fn pick(ctx: &mut Ctx, dist: &Dist, opts: &GenOpts) -> TokenId {
    let mut d = dist.clone();
    if let Some(k) = opts.top_k {
        d = d.top_k(k);
    }
    if let Some(p) = opts.top_p {
        d = d.top_p(p);
    }
    if opts.temperature == 0.0 {
        return d.argmax();
    }
    let d = d.with_temperature(opts.temperature);
    ctx.sample(&d)
}

/// The reference autoregressive generation loop, written exactly as a user
/// would write it: prefill the prompt with one `pred`, then sample-extend
/// one token at a time until EOS or the cap.
///
/// `prompt` must be non-empty (the loop needs a distribution to start from);
/// the prompt is appended to `kv` at positions continuing the file.
pub fn generate(
    ctx: &mut Ctx,
    kv: FileId,
    prompt: &[TokenId],
    opts: &GenOpts,
) -> Result<GenResult, SysError> {
    if prompt.is_empty() {
        return Err(SysError::BadArgument);
    }
    let start = ctx.kv_next_pos(kv)?;
    let mut dist = ctx
        .pred_positions(kv, prompt, start)?
        .last()
        .ok_or(SysError::BadArgument)?;
    let mut pos = start + prompt.len() as u32;
    let mut tokens = Vec::new();
    let eos = ctx.eos();
    while tokens.len() < opts.max_tokens {
        let tok = pick(ctx, &dist, opts);
        if tok == eos {
            return Ok(GenResult {
                tokens,
                stopped_on_eos: true,
            });
        }
        if opts.emit {
            ctx.emit_tokens(&[tok])?;
        }
        tokens.push(tok);
        dist = ctx
            .pred(kv, &[(tok, pos)])?
            .last()
            .ok_or(SysError::BadArgument)?;
        pos += 1;
    }
    Ok(GenResult {
        tokens,
        stopped_on_eos: false,
    })
}

/// Constrained generation: at every step the distribution is masked to the
/// tokens the [`Constraint`] allows, renormalised, and sampled. Returns the
/// generated tokens once the constraint reports completion.
///
/// This is the §4.1 recipe verbatim: "LIPs integrate a state machine into
/// the generation loop to restrict the distribution variables".
pub fn generate_constrained<C: Constraint>(
    ctx: &mut Ctx,
    kv: FileId,
    prompt: &[TokenId],
    constraint: &mut C,
    opts: &GenOpts,
) -> Result<Vec<TokenId>, SysError> {
    if prompt.is_empty() {
        return Err(SysError::BadArgument);
    }
    let start = ctx.kv_next_pos(kv)?;
    let mut dist = ctx
        .pred_positions(kv, prompt, start)?
        .last()
        .ok_or(SysError::BadArgument)?;
    let mut pos = start + prompt.len() as u32;
    let mut tokens = Vec::new();
    while !constraint.is_complete() && tokens.len() < opts.max_tokens {
        let allowed = constraint.allowed();
        let masked = dist.constrain(&allowed).ok_or(SysError::BadArgument)?;
        let tok = if opts.temperature == 0.0 {
            masked.argmax()
        } else {
            let t = masked.with_temperature(opts.temperature);
            ctx.sample(&t)
        };
        constraint.advance(tok);
        if opts.emit {
            ctx.emit_tokens(&[tok])?;
        }
        tokens.push(tok);
        if constraint.is_complete() {
            break;
        }
        dist = ctx
            .pred(kv, &[(tok, pos)])?
            .last()
            .ok_or(SysError::BadArgument)?;
        pos += 1;
    }
    Ok(tokens)
}
