//! Speculative decoding as a user program (§4.1).
//!
//! The LIP drafts several tokens cheaply (here: sampling from a sharpened
//! view of the distribution, standing in for a small draft model), verifies
//! them with ONE multi-token `pred`, and rolls the KV file back to the
//! accepted prefix with `kv_truncate` — no serving-system support required.
//!
//! Run with: `cargo run --example speculative`

use symphony::sampling::verify_greedy;
use symphony::{Kernel, KernelConfig, SysError};

const DRAFT_LEN: usize = 4;
const TARGET_TOKENS: usize = 48;

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());

    let pid = kernel.spawn_process("speculative", "a context for drafting", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let mut dist = ctx
            .pred_positions(kv, &prompt, 0)?
            .last()
            .ok_or(SysError::BadArgument)?;
        let mut pos = prompt.len() as u32;
        let mut produced = 0usize;
        let mut drafted = 0usize;
        let mut accepted_total = 0usize;
        let eos = ctx.eos();

        'outer: while produced < TARGET_TOKENS {
            // Draft: walk the sharpened distribution greedily. A production
            // deployment would run a smaller model here; the surrogate's
            // semantics make the draft plausible-but-imperfect.
            let mut draft = Vec::with_capacity(DRAFT_LEN);
            let mut d = dist.clone();
            for _ in 0..DRAFT_LEN {
                let t = d.with_temperature(1.4).argmax();
                if t == eos {
                    break;
                }
                draft.push(t);
                // The cheap draft has no context access beyond the current
                // distribution, so later draft tokens are guesses.
                d = d.top_p(0.5);
            }
            if draft.is_empty() {
                break;
            }
            drafted += draft.len();

            // Verify: one pred over all draft tokens.
            let pairs: Vec<(u32, u32)> = draft
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, pos + i as u32))
                .collect();
            let dists = ctx.pred(kv, &pairs)?;
            let (accepted, next) = verify_greedy(&draft, &dist, dists.iter());
            accepted_total += accepted;

            // Roll back rejected suffix entries.
            if accepted < draft.len() {
                let keep = ctx.kv_len(kv)? - (draft.len() - accepted);
                ctx.kv_truncate(kv, keep)?;
            }
            ctx.emit_tokens(&draft[..accepted])?;
            produced += accepted;
            pos += accepted as u32;

            if next == eos {
                break 'outer;
            }
            // Commit the correction/bonus token from the target model.
            ctx.emit_tokens(&[next])?;
            dist = ctx
                .pred(kv, &[(next, pos)])?
                .last()
                .ok_or(SysError::BadArgument)?;
            pos += 1;
            produced += 1;
        }

        ctx.emit(&format!(
            "\n[accepted {accepted_total}/{drafted} draft tokens]"
        ))?;
        Ok(())
    });

    kernel.run();
    let rec = kernel.record(pid).expect("record");
    println!("status: {:?}", rec.status);
    println!("{}", rec.output);
    println!(
        "pred calls: {} for {} emitted tokens (speculation amortises steps)",
        rec.usage.pred_calls, rec.usage.emitted_tokens
    );
}
