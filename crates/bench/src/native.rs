//! The greedy loop for the programs still written as native closures:
//! Fig. 3's RAG LIP, E6's agents, E11's retrying agents and E13's
//! sessions, and the `rag_cache` example. Each must catch a failed system
//! call (a missing file, a full KV pool, a faulted tool) and decide what
//! to do next, which a LipScript program cannot yet. The loop makes the
//! calls `decode.lip`'s `generate` makes: `kv_next_pos`, one `pred` over
//! the prompt, then per token its argmax and a `pred`.

use symphony::{Ctx, FileId, SysError, TokenId};

/// Extends `kv` past `prompt` (non-empty) greedily until EOS or
/// `max_tokens`; the tokens, EOS excluded.
pub fn greedy(
    ctx: &mut Ctx,
    kv: FileId,
    prompt: &[TokenId],
    max_tokens: usize,
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
    let eos = ctx.eos();
    while tokens.len() < max_tokens {
        let tok = dist.argmax();
        if tok == eos {
            break;
        }
        tokens.push(tok);
        dist = ctx
            .pred(kv, &[(tok, pos)])?
            .last()
            .ok_or(SysError::BadArgument)?;
        pos += 1;
    }
    Ok(tokens)
}
