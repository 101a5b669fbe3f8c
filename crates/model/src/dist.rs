//! Sparse next-token distributions.
//!
//! §2.3 of the paper notes that shipping a full distribution to the client is
//! impractical ("approximately 200 KB using FP16" for a 100K vocabulary) —
//! which is precisely why LIPs run *inside* the server with direct access to
//! it. The simulator represents a distribution sparsely: the top candidates
//! carry explicit probabilities and the remaining `tail_tokens` vocabulary
//! entries share a uniform `tail_mass`. All decoding algorithms the paper
//! mentions — temperature sampling, top-k, top-p, constrained masking,
//! speculative verification via [`Dist::prob`] — operate on this type.

use serde::{Deserialize, Serialize};

use crate::TokenId;

/// A normalised next-token distribution: explicit top candidates plus a
/// uniform tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dist {
    /// `(token, probability)` sorted by probability, descending. Tokens are
    /// unique and none of them belongs to the tail.
    entries: Vec<(TokenId, f64)>,
    /// Total probability shared uniformly by the tail tokens.
    tail_mass: f64,
    /// Number of vocabulary tokens in the tail.
    tail_tokens: u32,
}

impl Dist {
    /// Builds a distribution from raw non-negative weights; normalises so
    /// entry mass plus tail mass sums to 1.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, contains duplicates, or any weight is
    /// negative/non-finite; or if `tail_mass < 0`.
    pub fn from_weights(
        mut entries: Vec<(TokenId, f64)>,
        tail_weight: f64,
        tail_tokens: u32,
    ) -> Self {
        assert!(!entries.is_empty(), "distribution needs at least one entry");
        assert!(
            tail_weight >= 0.0 && tail_weight.is_finite(),
            "tail weight must be non-negative"
        );
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0.0;
        for &(t, w) in &entries {
            assert!(w.is_finite() && w >= 0.0, "weights must be non-negative");
            assert!(seen.insert(t), "duplicate token {t} in distribution");
            total += w;
        }
        let tail_weight = if tail_tokens == 0 { 0.0 } else { tail_weight };
        total += tail_weight;
        assert!(total > 0.0, "distribution must have positive mass");
        for e in &mut entries {
            e.1 /= total;
        }
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN prob").then(a.0.cmp(&b.0)));
        Dist {
            entries,
            tail_mass: tail_weight / total,
            tail_tokens,
        }
    }

    /// [`Dist::from_weights`] for callers that guarantee unique tokens and
    /// finite non-negative weights (the surrogate's generator, which draws
    /// from a dedup'd candidate set). Skips the per-entry validation pass —
    /// the dominant cost on the model hot path — but performs the *same*
    /// normalisation arithmetic in the same order, so the result is
    /// bit-identical to the validating constructor.
    pub(crate) fn from_weights_trusted(
        mut entries: Vec<(TokenId, f64)>,
        tail_weight: f64,
        tail_tokens: u32,
    ) -> Self {
        debug_assert!(!entries.is_empty());
        let mut total = 0.0;
        for &(_, w) in &entries {
            debug_assert!(w.is_finite() && w >= 0.0);
            total += w;
        }
        let tail_weight = if tail_tokens == 0 { 0.0 } else { tail_weight };
        total += tail_weight;
        debug_assert!(total > 0.0);
        for e in &mut entries {
            e.1 /= total;
        }
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN prob").then(a.0.cmp(&b.0)));
        Dist {
            entries,
            tail_mass: tail_weight / total,
            tail_tokens,
        }
    }

    /// The explicit candidates, highest probability first.
    pub fn entries(&self) -> &[(TokenId, f64)] {
        &self.entries
    }

    /// Total tail probability.
    pub fn tail_mass(&self) -> f64 {
        self.tail_mass
    }

    /// Number of tail tokens.
    pub fn tail_tokens(&self) -> u32 {
        self.tail_tokens
    }

    /// Probability of `token`: its entry probability, or the uniform
    /// per-token tail share if it is not an explicit candidate.
    pub fn prob(&self, token: TokenId) -> f64 {
        for &(t, p) in &self.entries {
            if t == token {
                return p;
            }
        }
        if self.tail_tokens == 0 {
            0.0
        } else {
            self.tail_mass / self.tail_tokens as f64
        }
    }

    /// The most likely token.
    pub fn argmax(&self) -> TokenId {
        self.entries[0].0
    }

    /// Samples a token given a uniform draw `u ∈ [0, 1)`.
    ///
    /// If the draw lands in the tail, a pseudo-token is synthesised
    /// deterministically from the residual draw; it is guaranteed not to
    /// collide with an explicit candidate. Callers that must avoid tail
    /// tokens (e.g. greedy loops) should use [`Dist::top_p`]/[`Dist::top_k`]
    /// first.
    pub fn sample_with(&self, u: f64, vocab_hint: u32) -> TokenId {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        let mut acc = 0.0;
        for &(t, p) in &self.entries {
            acc += p;
            if u < acc {
                return t;
            }
        }
        // Tail: derive an index from the residual and skip candidates.
        let residual = if self.tail_mass > 0.0 {
            ((u - acc) / self.tail_mass).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let vocab = vocab_hint.max(self.entries.len() as u32 + 1);
        let mut tok = (residual * vocab as f64) as TokenId % vocab;
        while self.entries.iter().any(|&(t, _)| t == tok) {
            tok = (tok + 1) % vocab;
        }
        tok
    }

    /// Rescales probabilities by `p^(1/temperature)` and renormalises.
    ///
    /// `temperature == 0` is treated as greedy (all mass on the argmax).
    ///
    /// # Panics
    ///
    /// Panics if `temperature` is negative or non-finite.
    pub fn with_temperature(&self, temperature: f64) -> Dist {
        assert!(
            temperature.is_finite() && temperature >= 0.0,
            "temperature must be non-negative"
        );
        if temperature == 0.0 {
            return Dist {
                entries: vec![(self.argmax(), 1.0)],
                tail_mass: 0.0,
                tail_tokens: 0,
            };
        }
        let inv = 1.0 / temperature;
        let entries: Vec<(TokenId, f64)> = self
            .entries
            .iter()
            .map(|&(t, p)| (t, p.powf(inv)))
            .collect();
        let tail_per = if self.tail_tokens == 0 {
            0.0
        } else {
            (self.tail_mass / self.tail_tokens as f64).powf(inv)
        };
        Dist::from_weights(entries, tail_per * self.tail_tokens as f64, self.tail_tokens)
    }

    /// Keeps only the `k` most likely candidates (tail dropped), renormalised.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn top_k(&self, k: usize) -> Dist {
        assert!(k > 0, "top_k needs k >= 1");
        let kept: Vec<(TokenId, f64)> =
            self.entries.iter().take(k).copied().collect();
        Dist::from_weights(kept, 0.0, 0)
    }

    /// Nucleus sampling: keeps the smallest candidate prefix with cumulative
    /// mass at least `p` (tail dropped), renormalised.
    pub fn top_p(&self, p: f64) -> Dist {
        let p = p.clamp(0.0, 1.0);
        let mut kept = Vec::new();
        let mut acc = 0.0;
        for &(t, pr) in &self.entries {
            kept.push((t, pr));
            acc += pr;
            if acc >= p {
                break;
            }
        }
        Dist::from_weights(kept, 0.0, 0)
    }

    /// Constrained decoding: restricts the distribution to `allowed` tokens.
    ///
    /// Allowed tokens that were explicit candidates keep their weight; other
    /// allowed tokens receive the uniform tail share, so a grammar can force
    /// a token the model ranked low. Returns `None` if `allowed` is empty.
    pub fn constrain(&self, allowed: &[TokenId]) -> Option<Dist> {
        if allowed.is_empty() {
            return None;
        }
        let tail_per = if self.tail_tokens == 0 {
            0.0
        } else {
            self.tail_mass / self.tail_tokens as f64
        };
        let mut seen = std::collections::BTreeSet::new();
        let entries: Vec<(TokenId, f64)> = allowed
            .iter()
            .filter(|&&t| seen.insert(t))
            .map(|&t| {
                let w = self
                    .entries
                    .iter()
                    .find(|&&(et, _)| et == t)
                    .map(|&(_, p)| p)
                    .unwrap_or(tail_per);
                // Give fully-suppressed tokens a floor so a grammar with only
                // previously-impossible continuations still terminates.
                (t, w.max(1e-12))
            })
            .collect();
        Some(Dist::from_weights(entries, 0.0, 0))
    }

    /// Shannon entropy in nats (tail contributes as a uniform block).
    pub fn entropy(&self) -> f64 {
        let mut h = 0.0;
        for &(_, p) in &self.entries {
            if p > 0.0 {
                h -= p * p.ln();
            }
        }
        if self.tail_mass > 0.0 && self.tail_tokens > 0 {
            let per = self.tail_mass / self.tail_tokens as f64;
            h -= self.tail_mass * per.ln();
        }
        h
    }

    /// Sum of all probability (should be 1; exposed for tests).
    pub fn total_mass(&self) -> f64 {
        self.entries.iter().map(|&(_, p)| p).sum::<f64>() + self.tail_mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> Dist {
        Dist::from_weights(vec![(10, 5.0), (20, 3.0), (30, 1.0)], 1.0, 100)
    }

    #[test]
    fn normalises_and_sorts() {
        let dist = d();
        assert!((dist.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(dist.argmax(), 10);
        assert_eq!(dist.entries()[0].0, 10);
        assert_eq!(dist.entries()[2].0, 30);
        assert!((dist.prob(10) - 0.5).abs() < 1e-12);
        assert!((dist.tail_mass() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tail_prob_uniform() {
        let dist = d();
        assert!((dist.prob(999) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn sample_with_hits_entries_and_tail() {
        let dist = d();
        assert_eq!(dist.sample_with(0.0, 1000), 10);
        assert_eq!(dist.sample_with(0.49, 1000), 10);
        assert_eq!(dist.sample_with(0.51, 1000), 20);
        assert_eq!(dist.sample_with(0.85, 1000), 30);
        // Tail draw produces a non-candidate token.
        let t = dist.sample_with(0.95, 1000);
        assert!(![10, 20, 30].contains(&t));
        assert!(t < 1000);
    }

    #[test]
    fn temperature_zero_is_greedy() {
        let g = d().with_temperature(0.0);
        assert_eq!(g.entries().len(), 1);
        assert_eq!(g.argmax(), 10);
        assert!((g.prob(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn temperature_one_is_identity() {
        let dist = d();
        let t1 = dist.with_temperature(1.0);
        for &(tok, p) in dist.entries() {
            assert!((t1.prob(tok) - p).abs() < 1e-9);
        }
    }

    #[test]
    fn low_temperature_sharpens_high_flattens() {
        let dist = d();
        assert!(dist.with_temperature(0.5).prob(10) > dist.prob(10));
        assert!(dist.with_temperature(2.0).prob(10) < dist.prob(10));
        // Entropy ordering.
        assert!(dist.with_temperature(2.0).entropy() > dist.entropy());
    }

    #[test]
    fn top_k_and_top_p() {
        let dist = d();
        let k2 = dist.top_k(2);
        assert_eq!(k2.entries().len(), 2);
        assert_eq!(k2.tail_mass(), 0.0);
        assert!((k2.total_mass() - 1.0).abs() < 1e-12);
        // p=0.5 keeps just the top entry (its mass is exactly 0.5).
        let p = dist.top_p(0.5);
        assert_eq!(p.entries().len(), 1);
        // p=1.0 keeps all explicit entries.
        assert_eq!(dist.top_p(1.0).entries().len(), 3);
    }

    #[test]
    fn constrain_restricts_support() {
        let dist = d();
        let c = dist.constrain(&[20, 777]).unwrap();
        assert!((c.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(c.argmax(), 20);
        assert!(c.prob(777) > 0.0);
        assert_eq!(c.prob(10), 0.0);
        assert!(dist.constrain(&[]).is_none());
    }

    #[test]
    fn constrain_dedups_allowed_list() {
        let c = d().constrain(&[20, 20, 20]).unwrap();
        assert_eq!(c.entries().len(), 1);
        assert!((c.prob(20) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate token")]
    fn rejects_duplicates() {
        Dist::from_weights(vec![(1, 1.0), (1, 2.0)], 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn rejects_zero_mass() {
        Dist::from_weights(vec![(1, 0.0)], 0.0, 0);
    }
}
