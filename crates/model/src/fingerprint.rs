//! Context fingerprints: the surrogate's stand-in for attention KV state.
//!
//! A fingerprint summarises a logical context — the ordered sequence of
//! `(token, position)` pairs the model has "seen". KVFS stores one
//! fingerprint per cached token; `pred` chains fingerprints forward exactly
//! as a causal transformer extends its KV cache. Two different routes to the
//! same logical context (recompute vs. cache hit vs. forked file) reach the
//! same fingerprint and therefore the same model output.

use serde::Serialize;

use crate::TokenId;

/// A 64-bit rolling hash of a logical context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CtxFingerprint(pub u64);

impl CtxFingerprint {
    /// The context extended by one `(token, position)` pair. The step
    /// reads no model seed (only [`Fingerprinter::origin`] does), so a
    /// chain can be continued from any of its fingerprints: KVFS keeps a
    /// page's first fingerprint and derives the rest from its tokens.
    pub fn then(self, token: TokenId, position: u32) -> CtxFingerprint {
        let t = (token as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let p = (position as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        CtxFingerprint(mix(self.0 ^ t ^ p.rotate_left(17) ^ 0xA24B_AED4_963E_E407))
    }
}

/// Produces and chains context fingerprints for one model identity.
///
/// Distinct model seeds yield unrelated fingerprint spaces, so a 7B draft
/// model and a 13B target never collide in tests.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprinter {
    seed: u64,
}

/// One round of splitmix64-style avalanche mixing.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fingerprinter {
    /// Creates a fingerprinter for the given model seed.
    pub fn new(seed: u64) -> Self {
        Fingerprinter { seed }
    }

    /// The fingerprint of the empty context.
    pub fn origin(&self) -> CtxFingerprint {
        CtxFingerprint(mix(self.seed ^ 0x5151_5151_5151_5151))
    }

    /// Extends a context by one `(token, position)` pair
    /// ([`CtxFingerprint::then`]).
    pub fn advance(&self, fp: CtxFingerprint, token: TokenId, position: u32) -> CtxFingerprint {
        fp.then(token, position)
    }

    /// Folds a whole token run into a context.
    #[cfg(test)]
    pub(crate) fn advance_run(
        &self,
        mut fp: CtxFingerprint,
        tokens: &[(TokenId, u32)],
    ) -> CtxFingerprint {
        for &(t, p) in tokens {
            fp = self.advance(fp, t, p);
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let f = Fingerprinter::new(1);
        let a = f.advance(f.origin(), 10, 0);
        let b = f.advance(f.origin(), 10, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn order_sensitive() {
        let f = Fingerprinter::new(1);
        let ab = f.advance_run(f.origin(), &[(1, 0), (2, 1)]);
        let ba = f.advance_run(f.origin(), &[(2, 0), (1, 1)]);
        assert_ne!(ab, ba);
    }

    #[test]
    fn position_sensitive() {
        let f = Fingerprinter::new(1);
        let a = f.advance(f.origin(), 5, 0);
        let b = f.advance(f.origin(), 5, 7);
        assert_ne!(a, b, "same token at different positions must differ");
    }

    #[test]
    fn token_sensitive() {
        let f = Fingerprinter::new(1);
        assert_ne!(f.advance(f.origin(), 5, 0), f.advance(f.origin(), 6, 0));
    }

    #[test]
    fn seeds_separate_models() {
        let a = Fingerprinter::new(1);
        let b = Fingerprinter::new(2);
        assert_ne!(a.origin(), b.origin());
        assert_ne!(a.advance(a.origin(), 1, 0), b.advance(b.origin(), 1, 0));
    }

    #[test]
    fn run_equals_stepwise() {
        let f = Fingerprinter::new(3);
        let run = f.advance_run(f.origin(), &[(9, 0), (8, 1), (7, 2)]);
        let mut fp = f.origin();
        for (i, t) in [9u32, 8, 7].into_iter().enumerate() {
            fp = f.advance(fp, t, i as u32);
        }
        assert_eq!(run, fp);
    }
}
