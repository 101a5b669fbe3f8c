//! Deterministic synthetic text corpus.
//!
//! The paper's RAG experiment uses "100 documents, each containing 3,000
//! tokens". We do not have that private corpus, so the workload generators
//! synthesise documents from a fixed technical vocabulary with a seeded
//! generator: same seed, same documents, same token counts — everywhere in
//! the workspace.
//!
//! `build.rs` compiles this file too, to write the default vocabulary's
//! training corpus, so it names nothing else of the crate outside its
//! tests.

/// Word pool for synthetic documents (plain technical English, so learned
/// BPE merges resemble real subword statistics).
const WORDS: &[&str] = &[
    "the", "a", "of", "and", "to", "in", "is", "that", "for", "with", "as", "on", "are", "by",
    "this", "be", "an", "or", "from", "at", "it", "can", "which", "each", "when", "into", "more",
    "system", "model", "cache", "token", "memory", "request", "server", "latency", "throughput",
    "batch", "schedule", "thread", "process", "kernel", "program", "inference", "generation",
    "prompt", "context", "document", "retrieval", "function", "call", "state", "page", "file",
    "virtual", "compute", "gpu", "device", "bandwidth", "capacity", "policy", "eviction",
    "prefix", "reuse", "application", "workload", "design", "interface", "abstraction", "layer",
    "data", "index", "query", "result", "response", "stream", "buffer", "queue", "pool",
    "allocation", "management", "control", "execution", "runtime", "performance", "efficiency",
    "overhead", "cost", "resource", "utilization", "parallel", "concurrent", "distributed",
    "network", "storage", "disk", "transfer", "copy", "read", "write", "load", "store",
    "operation", "instruction", "pipeline", "stage", "phase", "step", "loop", "branch",
    "sample", "distribution", "probability", "weight", "parameter", "attention", "transformer",
    "decode", "encode", "sequence", "position", "embedding", "vector", "matrix", "tensor",
    "value", "key", "entry", "record", "table", "structure", "algorithm", "method", "approach",
    "technique", "strategy", "optimization", "improvement", "reduction", "increase", "decrease",
    "measurement", "evaluation", "benchmark", "experiment", "analysis", "comparison", "baseline",
    "implementation", "architecture", "component", "module", "subsystem", "service", "client",
    "user", "developer", "code", "logic", "behavior", "pattern", "semantics", "guarantee",
    "consistency", "isolation", "durability", "availability", "reliability", "scalability",
    "fairness", "priority", "deadline", "timeout", "interval", "frequency", "rate", "ratio",
];

/// A deterministic generator of synthetic words, sentences and documents.
#[derive(Debug, Clone)]
pub struct CorpusGen {
    state: u64,
}

impl CorpusGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        CorpusGen {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 pseudo-random bits (splitmix64; internal to stay dep-free).
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Picks a uniform word from the pool.
    pub fn word(&mut self) -> &'static str {
        WORDS[(self.next_u64() % WORDS.len() as u64) as usize]
    }

    /// Generates a sentence of `len` words, capitalised with a final period.
    pub fn sentence(&mut self, len: usize) -> String {
        let mut s = String::new();
        self.write_sentence(&mut s, len);
        s
    }

    /// Appends [`CorpusGen::sentence`]'s text to `out`.
    fn write_sentence(&mut self, out: &mut String, len: usize) {
        for i in 0..len.max(1) {
            let w = self.word();
            if i == 0 {
                let mut c = w.chars();
                if let Some(first) = c.next() {
                    out.extend(first.to_uppercase());
                    out.push_str(c.as_str());
                }
            } else {
                out.push(' ');
                out.push_str(w);
            }
        }
        out.push('.');
    }

    /// Generates a paragraph of about `words` words.
    pub fn paragraph(&mut self, words: usize) -> String {
        let mut out = String::new();
        self.write_paragraph(&mut out, words);
        out
    }

    /// Appends [`CorpusGen::paragraph`]'s text to `out`: its sentences
    /// are written in place, one buffer for the whole paragraph.
    pub(crate) fn write_paragraph(&mut self, out: &mut String, words: usize) {
        let start = out.len();
        let mut remaining = words;
        while remaining > 0 {
            let len = 6 + (self.next_u64() % 10) as usize;
            let len = len.min(remaining.max(3));
            if out.len() > start {
                out.push(' ');
            }
            self.write_sentence(out, len);
            remaining = remaining.saturating_sub(len);
        }
    }

    // `document_with_tokens` needs an encoder, so it is in `bpe.rs`.

    /// A plain training corpus of `paragraphs` paragraphs for BPE training.
    pub fn training_corpus(&mut self, paragraphs: usize) -> String {
        let mut out = String::new();
        for _ in 0..paragraphs {
            self.write_paragraph(&mut out, 80);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpe::Bpe;
    use crate::train::{fnv_step, FNV_OFFSET};

    #[test]
    fn deterministic_given_seed() {
        let a = CorpusGen::new(7).paragraph(50);
        let b = CorpusGen::new(7).paragraph(50);
        assert_eq!(a, b);
        let c = CorpusGen::new(8).paragraph(50);
        assert_ne!(a, c);
    }

    #[test]
    fn sentence_shape() {
        let s = CorpusGen::new(1).sentence(5);
        assert!(s.ends_with('.'));
        assert!(s.chars().next().unwrap().is_uppercase());
        assert_eq!(s.split_whitespace().count(), 5);
    }

    #[test]
    fn paragraph_word_count_close() {
        let p = CorpusGen::new(2).paragraph(100);
        let words = p.split_whitespace().count();
        assert!((90..=120).contains(&words), "words={words}");
    }

    #[test]
    fn document_hits_token_target() {
        let bpe = Bpe::default_tokenizer();
        let mut g = CorpusGen::new(3);
        let doc = g.document_with_tokens(bpe, 300);
        let n = bpe.encode(&doc).len();
        assert!(
            (280..=300).contains(&n),
            "expected ~300 tokens, got {n}"
        );
    }

    /// FNV-1a/64 of `bytes`.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().copied().fold(FNV_OFFSET, fnv_step)
    }

    #[test]
    fn generated_text_is_pinned() {
        // FNV-1a of `sentence(9)`, `paragraph(120)` and
        // `training_corpus(40)`, recorded with the generator that built
        // each sentence in its own `String` before this one wrote them all
        // into one buffer.
        let pins = [
            (
                1,
                [
                    0x4937_5f9a_545c_3c10,
                    0x4b00_f1f1_cca4_2a0f,
                    0xb01a_c17f_4ea1_3825,
                ],
            ),
            (
                7,
                [
                    0xa717_ee5a_4656_1ef8,
                    0x7fe4_3196_e032_8d17,
                    0x8ffe_9b59_9f65_29ad,
                ],
            ),
            (
                0xC0FFEE,
                [
                    0xc1d3_dd49_7050_8031,
                    0xe4f0_aae1_74d6_6891,
                    0x3cf4_b905_2818_cd17,
                ],
            ),
        ];
        for (seed, pinned) in pins {
            let text = [
                CorpusGen::new(seed).sentence(9),
                CorpusGen::new(seed).paragraph(120),
                CorpusGen::new(seed).training_corpus(40),
            ];
            assert_eq!(text.map(|t| fnv(t.as_bytes())), pinned, "seed {seed:#x}");
        }
    }

    #[test]
    fn documents_are_pinned() {
        // Recorded with the generator that re-encoded the whole document
        // after every paragraph and every trimmed word. Targets 0 and 1
        // trim down to a first word of three tokens.
        let bpe = Bpe::default_tokenizer();
        let docs = [
            (3, 0, 0x958f_7a78_e6d4_476b),
            (3, 1, 0x958f_7a78_e6d4_476b),
            (4, 50, 0x497e_5af1_4512_6412),
            (5, 300, 0x523d_075f_559f_5a8c),
            (6, 777, 0xc1d6_36fb_6158_1645),
            (7, 3000, 0x1027_3f3e_0faa_7bbc),
        ];
        for (seed, target, pin) in docs {
            let doc = CorpusGen::new(seed).document_with_tokens(bpe, target);
            assert_eq!(fnv(doc.as_bytes()), pin, "seed {seed}, {target} tokens");
        }
    }

    #[test]
    fn training_corpus_nonempty_lines() {
        let c = CorpusGen::new(4).training_corpus(5);
        assert_eq!(c.lines().count(), 5);
        assert!(c.lines().all(|l| !l.is_empty()));
    }
}
