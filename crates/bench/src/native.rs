//! The greedy loop for the programs still written as native closures:
//! Fig. 3's RAG LIP and prompt server, E6's agents, E11's retrying agents
//! and E13's sessions, and the `rag_cache` example. Each must catch a
//! failed system call (a missing file, a full KV pool, a faulted tool) and
//! decide what to do next, which a LipScript program cannot yet. The loop
//! makes the calls `decode.lip`'s `generate` makes: `kv_next_pos`, one
//! `pred` over the prompt, then per token its argmax and a `pred`.

use symphony::{Ctx, FileId, KvError, SimDuration, SysError, TokenId};

/// Extends `kv` past `prompt` (non-empty) greedily until EOS or
/// `max_tokens`; the tokens, EOS excluded.
pub fn greedy(
    ctx: &mut Ctx,
    kv: FileId,
    prompt: &[TokenId],
    max_tokens: usize,
) -> Result<Vec<TokenId>, SysError> {
    greedy_with(ctx, kv, prompt, max_tokens, &mut |_| false)
}

/// [`greedy`], asking `make_room` for pages whenever a `pred` does not fit
/// (`NoGpuMemory`): while it says it freed some, the same `pred` is sent
/// again.
pub fn greedy_with(
    ctx: &mut Ctx,
    kv: FileId,
    prompt: &[TokenId],
    max_tokens: usize,
    make_room: &mut dyn FnMut(&mut Ctx) -> bool,
) -> Result<Vec<TokenId>, SysError> {
    if prompt.is_empty() {
        return Err(SysError::BadArgument);
    }
    let mut pred = |ctx: &mut Ctx, tokens: &[(TokenId, u32)]| loop {
        match ctx.pred(kv, tokens) {
            Err(SysError::Kv(KvError::NoGpuMemory)) if make_room(ctx) => {}
            reply => return reply?.last().ok_or(SysError::BadArgument),
        }
    };
    let start = ctx.kv_next_pos(kv)?;
    // A position past `u32::MAX` is refused, as `Ctx::pred_positions` does.
    let prefill = (0u32..)
        .zip(prompt)
        .map(|(i, &t)| start.checked_add(i).map(|pos| (t, pos)))
        .collect::<Option<Vec<_>>>()
        .ok_or(SysError::BadArgument)?;
    let mut dist = pred(ctx, &prefill)?;
    let mut pos = start + prompt.len() as u32;
    let mut tokens = Vec::new();
    let eos = ctx.eos();
    while tokens.len() < max_tokens {
        let tok = dist.argmax();
        if tok == eos {
            break;
        }
        tokens.push(tok);
        dist = pred(ctx, &[(tok, pos)])?;
        pos += 1;
    }
    Ok(tokens)
}

/// Runs `attempt` until it succeeds. After each `NoGpuMemory` it sleeps a
/// jittered exponential backoff (100 ms doubling to 6.4 s, plus up to as
/// much again), so an attempt must release every page it holds before it
/// fails: a sleeping request pins nothing. Any other error ends it; so
/// does the fortieth full pool.
pub fn with_backoff(
    ctx: &mut Ctx,
    mut attempt: impl FnMut(&mut Ctx) -> Result<(), SysError>,
) -> Result<(), SysError> {
    for n in 0..40u32 {
        match attempt(ctx) {
            Err(SysError::Kv(KvError::NoGpuMemory)) => {
                let base = 100u64 << n.min(6);
                let jitter = ctx.rng_u64() % base.max(1);
                ctx.sleep(SimDuration::from_millis(base + jitter))?;
            }
            done => return done,
        }
    }
    Err(SysError::Kv(KvError::NoGpuMemory))
}
