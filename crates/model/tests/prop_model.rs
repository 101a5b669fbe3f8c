//! Property tests for distribution algebra and the KV-reuse invariant.

use proptest::prelude::*;
use symphony_model::{CtxFingerprint, Dist, Fingerprinter, ModelConfig, Surrogate, TokenId};

/// All of a distribution's probability: its entries plus its tail.
fn mass(d: &Dist) -> f64 {
    d.entries().iter().map(|&(_, p)| p).sum::<f64>() + d.tail_mass()
}

/// Folds a token run into a context, one `advance` per pair.
fn run(f: &Fingerprinter, fp: CtxFingerprint, tokens: &[(TokenId, u32)]) -> CtxFingerprint {
    tokens.iter().fold(fp, |fp, &(t, p)| f.advance(fp, t, p))
}

fn arb_dist() -> impl Strategy<Value = Dist> {
    (
        proptest::collection::btree_map(0u32..500, 0.01f64..10.0, 1..20),
        0.0f64..2.0,
        0u32..1000,
    )
        .prop_map(|(entries, tail_w, tail_n)| {
            let entries: Vec<(TokenId, f64)> = entries.into_iter().collect();
            Dist::from_weights(entries, tail_w, tail_n)
        })
}

proptest! {
    /// Every constructed distribution is normalised.
    #[test]
    fn dist_is_normalised(d in arb_dist()) {
        prop_assert!((mass(&d) - 1.0).abs() < 1e-9);
        prop_assert!(d.prob(d.argmax()) > 0.0);
    }

    /// Temperature, top-k, top-p and constrain all preserve normalisation.
    #[test]
    fn dist_transforms_preserve_mass(
        d in arb_dist(),
        t in 0.0f64..3.0,
        k in 1usize..10,
        p in 0.05f64..1.0,
    ) {
        prop_assert!((mass(&d.with_temperature(t)) - 1.0).abs() < 1e-9);
        prop_assert!((mass(&d.top_k(k)) - 1.0).abs() < 1e-9);
        prop_assert!((mass(&d.top_p(p)) - 1.0).abs() < 1e-9);
        let allowed: Vec<TokenId> = d.entries().iter().take(3).map(|&(t, _)| t).collect();
        if let Some(c) = d.constrain(&allowed) {
            prop_assert!((mass(&c) - 1.0).abs() < 1e-9);
            // Constrained support is exactly the allowed set.
            for &(tok, pr) in c.entries() {
                prop_assert!(allowed.contains(&tok));
                prop_assert!(pr > 0.0);
            }
        }
    }

    /// The argmax survives sharpening and truncation.
    #[test]
    fn argmax_stable_under_sharpening(d in arb_dist(), k in 1usize..8) {
        let top = d.argmax();
        prop_assert_eq!(d.with_temperature(0.5).argmax(), top);
        prop_assert_eq!(d.top_k(k).argmax(), top);
        prop_assert_eq!(d.with_temperature(0.0).argmax(), top);
    }

    /// Sampling with any draw lands in the distribution's support (entries
    /// or tail of the declared vocabulary).
    #[test]
    fn sample_lands_in_vocab(d in arb_dist(), u in 0.0f64..1.0) {
        let vocab = 2_000u32;
        let t = d.sample_with(u, vocab);
        prop_assert!(t < vocab || d.entries().iter().any(|&(e, _)| e == t));
    }

    /// The KV-reuse invariant, property-tested: any split of a token
    /// sequence into two runs reaches the same fingerprint, hence the same
    /// distribution.
    #[test]
    fn context_split_equivalence(
        tokens in proptest::collection::vec(0u32..1000, 1..40),
        split_frac in 0.0f64..1.0,
    ) {
        let model = Surrogate::new(ModelConfig::tiny(), 99);
        let f: Fingerprinter = model.fingerprinter();
        let split = ((tokens.len() as f64) * split_frac) as usize;
        let pairs: Vec<(u32, u32)> =
            tokens.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
        let whole = run(&f, f.origin(), &pairs);
        let part1 = run(&f, f.origin(), &pairs[..split]);
        let part2 = run(&f, part1, &pairs[split..]);
        prop_assert_eq!(whole, part2);
        prop_assert_eq!(model.next_dist(whole), model.next_dist(part2));
    }

    /// Different suffixes diverge: the fingerprint is not lossy in ways
    /// that alias adjacent contexts (probabilistically; exact collisions in
    /// 64 bits are negligible at this scale).
    #[test]
    fn different_last_token_diverges(
        prefix in proptest::collection::vec(0u32..1000, 0..20),
        a in 0u32..1000,
        b in 0u32..1000,
    ) {
        prop_assume!(a != b);
        let f = Fingerprinter::new(7);
        let base = run(
            &f,
            f.origin(),
            &prefix.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect::<Vec<_>>(),
        );
        let pos = prefix.len() as u32;
        prop_assert_ne!(f.advance(base, a, pos), f.advance(base, b, pos));
    }
}
