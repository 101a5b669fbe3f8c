//! The surrogate language model.
//!
//! Maps a context fingerprint to a deterministic sparse next-token
//! distribution. The distribution is *semantically arbitrary* (it is not a
//! trained model) but *statistically shaped*: candidate probabilities decay
//! Zipf-like, an EOS gate terminates generations with geometric lengths
//! around [`crate::ModelConfig::mean_output_tokens`], and everything is a pure
//! function of `(model seed, context fingerprint)` — the property the whole
//! KV-reuse test story rests on.

use symphony_telemetry::Counter;

use crate::config::ModelConfig;
use crate::dist::Dist;
use crate::fingerprint::{CtxFingerprint, Fingerprinter};
use crate::TokenId;

/// Ties the surrogate's emitted token IDs to a concrete tokenizer vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VocabInfo {
    /// Emitted content tokens are drawn from `0..content_tokens`.
    pub content_tokens: u32,
    /// The end-of-sequence token ID.
    pub eos: TokenId,
}

impl VocabInfo {
    /// Vocabulary info for a tokenizer's vocab and specials.
    pub fn from_tokenizer(bpe: &symphony_tokenizer::Bpe) -> Self {
        VocabInfo {
            content_tokens: bpe.specials().bos,
            eos: bpe.specials().eos,
        }
    }
}

/// A deterministic surrogate LLM.
#[derive(Debug, Clone)]
pub struct Surrogate {
    config: ModelConfig,
    seed: u64,
    vocab: VocabInfo,
    fingerprinter: Fingerprinter,
    /// `(i+1)^-1.3` for each candidate rank — `powf` hoisted out of
    /// [`Surrogate::next_dist`], which runs once per generated token.
    zipf: [f64; CANDIDATES],
    /// One per distribution [`Surrogate::next_dist`] builds.
    built: Counter,
}

/// Number of explicit candidates per distribution.
const CANDIDATES: usize = 24;

/// Entries of every distribution the surrogate builds: EOS plus
/// [`CANDIDATES`] distinct content tokens.
pub(crate) const ENTRIES: usize = CANDIDATES + 1;

/// Probability mass reserved for the uniform tail.
const TAIL_MASS: f64 = 0.05;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from 64 hash bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Surrogate {
    /// Creates a surrogate with the default vocabulary derived from the
    /// model config (content tokens `0..vocab_size-1`, EOS = `vocab_size-1`).
    ///
    /// # Panics
    ///
    /// Panics if `vocab_size` leaves fewer content tokens than a
    /// distribution has candidates.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        assert!(
            config.vocab_size as usize > CANDIDATES,
            "vocab_size {} leaves fewer than {CANDIDATES} content tokens",
            config.vocab_size
        );
        let vocab = VocabInfo {
            content_tokens: config.vocab_size - 1,
            eos: config.vocab_size - 1,
        };
        let mut zipf = [0.0; CANDIDATES];
        for (i, z) in zipf.iter_mut().enumerate() {
            *z = ((i + 1) as f64).powf(-1.3);
        }
        Surrogate {
            config,
            seed,
            vocab,
            fingerprinter: Fingerprinter::new(seed),
            zipf,
            built: Counter::new(),
        }
    }

    /// Overrides the emitted vocabulary (e.g. to match a trained tokenizer).
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary has fewer content tokens other than EOS
    /// than a distribution has candidates: the candidates are distinct, so
    /// no distribution could be built.
    pub fn with_vocab(mut self, vocab: VocabInfo) -> Self {
        let usable = vocab.content_tokens - u32::from(vocab.eos < vocab.content_tokens);
        assert!(
            usable as usize >= CANDIDATES,
            "{} content tokens other than EOS, fewer than {CANDIDATES} candidates",
            usable
        );
        self.vocab = vocab;
        self
    }

    /// Counts every distribution this model builds into `built`.
    pub fn counting_into(mut self, built: Counter) -> Self {
        self.built = built;
        self
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Vocabulary binding.
    pub fn vocab(&self) -> VocabInfo {
        self.vocab
    }

    /// The fingerprinter that chains this model's contexts.
    pub fn fingerprinter(&self) -> Fingerprinter {
        self.fingerprinter
    }

    /// Computes the next-token distribution for a context.
    ///
    /// Pure and deterministic: equal fingerprints yield equal distributions,
    /// regardless of how the context was assembled.
    pub fn next_dist(&self, ctx: CtxFingerprint) -> Dist {
        self.built.inc();
        let h0 = mix(ctx.0 ^ self.seed.rotate_left(32) ^ 0xD6E8_FEB8_6659_FD93);

        // EOS gate: with per-step probability ~1/mean_output_tokens the gate
        // opens and EOS dominates the distribution, giving geometric response
        // lengths under both greedy and sampled decoding.
        let p_gate = 1.0 / self.config.mean_output_tokens as f64;
        let gate_open = unit(mix(h0 ^ 0x0E05_0E05_0E05_0E05)) < p_gate;

        let mut entries: Vec<(TokenId, f64)> = Vec::with_capacity(ENTRIES);
        // Candidate sets are tiny (25 tokens), so dedup by linear scan over
        // the tokens picked so far — no allocation on the per-token path.
        let mut used = [0 as TokenId; ENTRIES];
        if gate_open {
            entries.push((self.vocab.eos, 10.0));
        } else {
            // A faint EOS presence so sampled decoding can terminate early.
            entries.push((self.vocab.eos, 0.02));
        }
        used[0] = self.vocab.eos;

        let mut h = h0;
        for i in 0..CANDIDATES {
            h = mix(h ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut tok = (h % self.vocab.content_tokens as u64) as TokenId;
            while used[..=i].contains(&tok) {
                tok = (tok + 1) % self.vocab.content_tokens;
            }
            used[i + 1] = tok;
            // Zipf-like decay with multiplicative jitter.
            let jitter = 0.5 + unit(mix(h ^ 0xA5A5_A5A5_A5A5_A5A5));
            let w = self.zipf[i] * jitter;
            entries.push((tok, w));
        }

        let tail_tokens = self
            .vocab
            .content_tokens
            .saturating_sub(entries.len() as u32);
        // Tail weight chosen so tail mass lands near TAIL_MASS after
        // normalisation.
        let entry_total: f64 = entries.iter().map(|&(_, w)| w).sum();
        let tail_weight = entry_total * TAIL_MASS / (1.0 - TAIL_MASS);
        // Tokens are unique by construction; skip `from_weights` validation.
        Dist::from_weights_trusted(entries, tail_weight, tail_tokens)
    }

    /// Folds a prompt into a fingerprint starting at `origin`.
    #[cfg(test)]
    pub(crate) fn context_of(&self, tokens: &[TokenId]) -> CtxFingerprint {
        let mut fp = self.fingerprinter.origin();
        for (i, &t) in tokens.iter().enumerate() {
            fp = self.fingerprinter.advance(fp, t, i as u32);
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Surrogate {
        Surrogate::new(ModelConfig::tiny(), 7)
    }

    #[test]
    fn deterministic_distribution() {
        let m = model();
        let ctx = m.context_of(&[1, 2, 3]);
        let a = m.next_dist(ctx);
        let b = m.next_dist(ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn different_contexts_differ() {
        let m = model();
        let a = m.next_dist(m.context_of(&[1, 2, 3]));
        let b = m.next_dist(m.context_of(&[1, 2, 4]));
        assert_ne!(a.argmax(), b.argmax());
    }

    #[test]
    fn distributions_are_normalised() {
        let m = model();
        for i in 0..50 {
            let d = m.next_dist(m.context_of(&[i, i + 1]));
            assert!((d.total_mass() - 1.0).abs() < 1e-9);
            assert!(d.entries().len() >= CANDIDATES);
        }
    }

    #[test]
    fn tokens_stay_in_vocab() {
        let m = model();
        let vocab = m.vocab();
        for i in 0..50 {
            let d = m.next_dist(m.context_of(&[i]));
            for &(t, _) in d.entries() {
                assert!(
                    t < vocab.content_tokens || t == vocab.eos,
                    "token {t} outside vocab"
                );
            }
        }
    }

    #[test]
    fn greedy_generation_terminates_with_plausible_length() {
        let m = Surrogate::new(ModelConfig::tiny().with_mean_output_tokens(16), 3);
        let f = m.fingerprinter();
        let mut lengths = Vec::new();
        for s in 0..40u32 {
            let mut fp = m.context_of(&[s, s + 100]);
            let mut pos = 2;
            let mut n = 0;
            loop {
                let t = m.next_dist(fp).argmax();
                if t == m.vocab().eos || n > 2000 {
                    break;
                }
                fp = f.advance(fp, t, pos);
                pos += 1;
                n += 1;
            }
            assert!(n <= 2000, "generation did not terminate");
            lengths.push(n as f64);
        }
        let mean: f64 = lengths.iter().sum::<f64>() / lengths.len() as f64;
        // Geometric with p=1/16 has mean 16; wide tolerance for 40 samples.
        assert!((4.0..60.0).contains(&mean), "mean length {mean}");
    }

    #[test]
    fn kv_reuse_equivalence() {
        // The crate's core invariant: same logical context, same output —
        // whether built token-by-token or in one run.
        let m = model();
        let f = m.fingerprinter();
        let prompt = [5u32, 6, 7, 8];
        let whole = m.context_of(&prompt);
        let mut fp = f.origin();
        fp = f.advance_run(fp, &[(5, 0), (6, 1)]);
        // "Cache hit" on the first two tokens, extend with the rest.
        fp = f.advance_run(fp, &[(7, 2), (8, 3)]);
        assert_eq!(whole, fp);
        assert_eq!(m.next_dist(whole), m.next_dist(fp));
    }

    #[test]
    fn seeds_change_behaviour() {
        let a = Surrogate::new(ModelConfig::tiny(), 1);
        let b = Surrogate::new(ModelConfig::tiny(), 2);
        let ctx = [3u32, 4, 5];
        assert_ne!(
            a.next_dist(a.context_of(&ctx)).argmax(),
            b.next_dist(b.context_of(&ctx)).argmax()
        );
    }

    #[test]
    #[should_panic(expected = "fewer than 24 content tokens")]
    fn a_vocabulary_smaller_than_the_candidates_is_refused() {
        Surrogate::new(
            ModelConfig {
                vocab_size: 10,
                ..ModelConfig::tiny()
            },
            7,
        );
    }

    #[test]
    #[should_panic(expected = "fewer than 24 content tokens")]
    fn a_one_token_vocabulary_is_refused() {
        Surrogate::new(
            ModelConfig {
                vocab_size: 1,
                ..ModelConfig::tiny()
            },
            7,
        );
    }

    #[test]
    #[should_panic(expected = "fewer than 24 candidates")]
    fn a_bound_vocabulary_smaller_than_the_candidates_is_refused() {
        model().with_vocab(VocabInfo {
            content_tokens: 24,
            eos: 3,
        });
    }

    #[test]
    fn the_smallest_vocabulary_builds_every_entry() {
        let m = Surrogate::new(
            ModelConfig {
                vocab_size: 25,
                ..ModelConfig::tiny()
            },
            7,
        );
        for i in 0..50 {
            assert_eq!(m.next_dist(m.context_of(&[i])).entries().len(), ENTRIES);
        }
        let bound = model().with_vocab(VocabInfo {
            content_tokens: 25,
            eos: 3,
        });
        assert_eq!(
            bound.next_dist(bound.context_of(&[1])).entries().len(),
            ENTRIES
        );
    }

    #[test]
    fn with_vocab_binds_tokenizer() {
        let bpe = symphony_tokenizer::Bpe::default_tokenizer();
        let m = Surrogate::new(ModelConfig::tiny(), 7).with_vocab(VocabInfo::from_tokenizer(bpe));
        assert_eq!(m.vocab().eos, bpe.specials().eos);
        let d = m.next_dist(m.context_of(&[1, 2]));
        for &(t, _) in d.entries() {
            assert!(bpe.vocab().get(t).is_some());
        }
    }
}
