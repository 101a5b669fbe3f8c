//! Decoding loops for tests that run native LIPs: the autoregressive loop,
//! its constrained form with a token trie and a JSON grammar, and greedy
//! draft acceptance. Served programs write these in LipScript (the shared
//! prelude under `examples/lipscript/with_prelude/`); a test that drives a `Ctx` by hand
//! includes this file by path (`#[path = ".../decode/mod.rs"] mod decode;`)
//! and makes the same system calls, in the same order, with the same draws.

#![allow(dead_code)]

use symphony::{Ctx, Dist, FileId, SysError};
use symphony_model::TokenId;
use symphony_tokenizer::Vocab;

/// Options for [`generate`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenOpts {
    /// Hard cap on generated tokens.
    pub max_tokens: usize,
    /// Sampling temperature (0 = greedy).
    pub temperature: f64,
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
            top_p: None,
            emit: true,
        }
    }
}

/// What [`generate`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GenResult {
    /// The generated tokens (EOS excluded).
    pub tokens: Vec<TokenId>,
    /// `true` if generation stopped on EOS rather than the token cap.
    pub stopped_on_eos: bool,
}

fn pick(ctx: &mut Ctx, dist: &Dist, opts: &GenOpts) -> TokenId {
    let d = match opts.top_p {
        Some(p) => dist.top_p(p),
        None => dist.clone(),
    };
    if opts.temperature == 0.0 {
        d.argmax()
    } else {
        ctx.sample(&d.with_temperature(opts.temperature))
    }
}

/// Prefill `prompt` (non-empty) onto `kv` with one `pred`, then extend one
/// token at a time until EOS or the cap: `kv_next_pos`, one `pred`, then
/// per token a pick, `emit_tokens` (if `opts.emit`) and a `pred`.
pub(crate) fn generate(
    ctx: &mut Ctx,
    kv: FileId,
    prompt: &[TokenId],
    opts: &GenOpts,
) -> Result<GenResult, SysError> {
    let (mut dist, mut pos) = prefill(ctx, kv, prompt)?;
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
        dist = extend(ctx, kv, tok, &mut pos)?;
    }
    Ok(GenResult {
        tokens,
        stopped_on_eos: false,
    })
}

/// [`generate`] with every step masked to what `constraint` allows (no
/// `top_p`); ends once the constraint is complete, or at the cap.
pub(crate) fn generate_constrained<C: Constraint>(
    ctx: &mut Ctx,
    kv: FileId,
    prompt: &[TokenId],
    constraint: &mut C,
    opts: &GenOpts,
) -> Result<Vec<TokenId>, SysError> {
    let (mut dist, mut pos) = prefill(ctx, kv, prompt)?;
    let mut tokens = Vec::new();
    while !constraint.is_complete() && tokens.len() < opts.max_tokens {
        let masked = dist
            .constrain(&constraint.allowed())
            .ok_or(SysError::BadArgument)?;
        let tok = pick(
            ctx,
            &masked,
            &GenOpts {
                top_p: None,
                ..*opts
            },
        );
        constraint.advance(tok);
        if opts.emit {
            ctx.emit_tokens(&[tok])?;
        }
        tokens.push(tok);
        if constraint.is_complete() {
            break;
        }
        dist = extend(ctx, kv, tok, &mut pos)?;
    }
    Ok(tokens)
}

/// `kv_next_pos`, then one `pred` over `prompt`: its last distribution and
/// the position after it.
fn prefill(ctx: &mut Ctx, kv: FileId, prompt: &[TokenId]) -> Result<(Dist, u32), SysError> {
    if prompt.is_empty() {
        return Err(SysError::BadArgument);
    }
    let start = ctx.kv_next_pos(kv)?;
    let dist = ctx
        .pred_positions(kv, prompt, start)?
        .last()
        .ok_or(SysError::BadArgument)?;
    Ok((dist, start + prompt.len() as u32))
}

/// One `pred` of `tok` at `*pos`, which moves on.
fn extend(ctx: &mut Ctx, kv: FileId, tok: TokenId, pos: &mut u32) -> Result<Dist, SysError> {
    let dist = ctx
        .pred(kv, &[(tok, *pos)])?
        .last()
        .ok_or(SysError::BadArgument)?;
    *pos += 1;
    Ok(dist)
}

/// Greedy draft acceptance: the longest prefix of `draft` on which every
/// token is the target's argmax. `prior` is the distribution before the
/// first draft token, and `after` yields the one after each draft token
/// (`pred(kv, draft)`'s reply, read only up to the first rejection).
/// Returns the accepted length and the target's token at the first
/// rejection (or after a fully accepted draft).
pub(crate) fn greedy_accept(
    draft: &[TokenId],
    prior: &Dist,
    mut after: impl ExactSizeIterator<Item = Dist>,
) -> (usize, TokenId) {
    assert_eq!(draft.len(), after.len(), "one dist per draft token");
    let mut target = prior.argmax();
    for (i, &tok) in draft.iter().enumerate() {
        if target != tok {
            return (i, target);
        }
        target = after.next().expect("one dist per draft token").argmax();
    }
    (draft.len(), target)
}

/// A decoding constraint: a stateful filter over next tokens.
pub(crate) trait Constraint {
    /// Tokens permitted now (non-empty until complete).
    fn allowed(&self) -> Vec<TokenId>;
    /// Advances the state by an emitted token.
    fn advance(&mut self, token: TokenId);
    /// Whether the output satisfies the constraint.
    fn is_complete(&self) -> bool;
}

/// The output must be one of a fixed set of token sequences.
#[derive(Debug, Clone)]
pub(crate) struct TrieConstraint {
    sequences: Vec<Vec<TokenId>>,
    depth: usize,
    complete: bool,
}

impl TrieConstraint {
    pub(crate) fn new(sequences: Vec<Vec<TokenId>>) -> Self {
        assert!(sequences.iter().all(|s| !s.is_empty()) && !sequences.is_empty());
        TrieConstraint {
            sequences,
            depth: 0,
            complete: false,
        }
    }
}

impl Constraint for TrieConstraint {
    fn allowed(&self) -> Vec<TokenId> {
        let mut out: Vec<TokenId> = self
            .sequences
            .iter()
            .filter_map(|s| s.get(self.depth).copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn advance(&mut self, token: TokenId) {
        let depth = self.depth;
        self.sequences.retain(|s| s.get(depth) == Some(&token));
        assert!(!self.sequences.is_empty(), "token {token} was not allowed");
        self.depth += 1;
        self.complete = self.sequences.iter().any(|s| s.len() == self.depth);
    }

    fn is_complete(&self) -> bool {
        self.complete
    }
}

/// The output must be a JSON document (no floats, escapes or whitespace):
/// a byte-level pushdown automaton lifted to tokens through the vocabulary.
pub(crate) struct JsonGrammar {
    pda: Pda,
    /// `(token, bytes)` for every non-special, non-empty token.
    table: Vec<(TokenId, Vec<u8>)>,
}

impl JsonGrammar {
    pub(crate) fn new(vocab: &Vocab) -> Self {
        let table = (0..vocab.len() as TokenId)
            .filter(|&t| !vocab.is_special(t))
            .map(|t| (t, vocab.bytes(t).to_vec()))
            .filter(|(_, b)| !b.is_empty())
            .collect();
        JsonGrammar {
            pda: Pda::default(),
            table,
        }
    }
}

impl Constraint for JsonGrammar {
    fn allowed(&self) -> Vec<TokenId> {
        let fits = |bytes: &[u8]| {
            let mut pda = self.pda.clone();
            bytes.iter().all(|&b| pda.feed(b))
        };
        self.table
            .iter()
            .filter(|(_, bytes)| fits(bytes))
            .map(|&(t, _)| t)
            .collect()
    }

    fn advance(&mut self, token: TokenId) {
        let (_, bytes) = self
            .table
            .iter()
            .find(|&&(t, _)| t == token)
            .expect("token in the vocabulary");
        for &b in bytes {
            assert!(self.pda.feed(b), "token was not allowed by the grammar");
        }
    }

    fn is_complete(&self) -> bool {
        self.pda.mode == Mode::Done || (self.pda.mode == Mode::Number && self.pda.stack.is_empty())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    #[default]
    Value,
    ValueOrClose,
    NumberStart,
    Number,
    Str,
    Key,
    Literal(&'static [u8], usize),
    Colon,
    KeyOrClose,
    NextKey,
    CommaOrClose,
    Done,
}

#[derive(Debug, Clone, Default)]
struct Pda {
    stack: Vec<u8>,
    mode: Mode,
}

fn string_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b' ' | b'-' | b'.')
}

impl Pda {
    fn value_done(&mut self) {
        self.mode = if self.stack.is_empty() {
            Mode::Done
        } else {
            Mode::CommaOrClose
        };
    }

    /// Feeds one byte; `false` rejects it.
    fn feed(&mut self, b: u8) -> bool {
        match self.mode {
            Mode::Done => false,
            Mode::ValueOrClose if b == b']' => {
                self.stack.pop();
                self.value_done();
                true
            }
            Mode::Value | Mode::ValueOrClose => {
                self.mode = match b {
                    b'"' => Mode::Str,
                    b'{' => {
                        self.stack.push(b'{');
                        Mode::KeyOrClose
                    }
                    b'[' => {
                        self.stack.push(b'[');
                        Mode::ValueOrClose
                    }
                    b'-' => Mode::NumberStart,
                    b'0'..=b'9' => Mode::Number,
                    b't' => Mode::Literal(b"true", 1),
                    b'f' => Mode::Literal(b"false", 1),
                    b'n' => Mode::Literal(b"null", 1),
                    _ => return false,
                };
                true
            }
            Mode::NumberStart => {
                self.mode = Mode::Number;
                b.is_ascii_digit()
            }
            Mode::Number => {
                if b.is_ascii_digit() {
                    return true;
                }
                self.mode = Mode::CommaOrClose;
                !self.stack.is_empty() && self.feed(b)
            }
            Mode::Str | Mode::Key if b == b'"' => {
                if self.mode == Mode::Str {
                    self.value_done();
                } else {
                    self.mode = Mode::Colon;
                }
                true
            }
            Mode::Str | Mode::Key => string_byte(b),
            Mode::Literal(lit, at) => {
                if lit.get(at) != Some(&b) {
                    return false;
                }
                if at + 1 == lit.len() {
                    self.value_done();
                } else {
                    self.mode = Mode::Literal(lit, at + 1);
                }
                true
            }
            Mode::Colon => {
                self.mode = Mode::Value;
                b == b':'
            }
            Mode::KeyOrClose | Mode::NextKey if b == b'"' => {
                self.mode = Mode::Key;
                true
            }
            Mode::KeyOrClose if b == b'}' => {
                self.stack.pop();
                self.value_done();
                true
            }
            Mode::KeyOrClose | Mode::NextKey => false,
            Mode::CommaOrClose => match (b, self.stack.last()) {
                (b',', Some(b'{')) => {
                    self.mode = Mode::NextKey;
                    true
                }
                (b',', Some(b'[')) => {
                    self.mode = Mode::Value;
                    true
                }
                (b'}', Some(b'{')) | (b']', Some(b'[')) => {
                    self.stack.pop();
                    self.value_done();
                    true
                }
                _ => false,
            },
        }
    }
}
