//! BPE model, encoder and decoder.
//!
//! A [`Bpe`] is a ranked merge list expanded into a [`Vocab`] and a pair →
//! token table. [`Bpe::train`] learns the list (the trainer is in
//! `train.rs`); [`Bpe::default_tokenizer`] expands the list `build.rs`
//! learned from the default corpus, so no process trains at run time.
//!
//! Encoding splits text into pre-tokens (a run of whitespace is glued to
//! the following word, GPT-style) and applies merges greedily in rank
//! order. Per-word results are memoised, for up to 65 536 distinct words,
//! under the word's FNV-1a hash: one scan (the trainer's pre-tokenizer, in
//! `train.rs`) both splits the text and hashes each pre-token, and
//! `encode` takes the memo's lock once per call, not
//! once per word (symbench's `tokenizer.encode_ns_per_token` on
//! `rag_churn`: 25 ns, where a lock and a SipHash per word cost 40).

use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use parking_lot_shim::Mutex;

use crate::corpus::CorpusGen;
use crate::train::{self, Pair};
use crate::vocab::{SpecialTokens, TokenId, Vocab, BYTE_TOKENS};

/// Minimal internal shim so this crate stays dependency-free: a tiny wrapper
/// over `std::sync::Mutex` with the `parking_lot`-style infallible `lock`.
mod parking_lot_shim {
    /// A mutex whose `lock` never returns a poisoned error.
    #[derive(Debug, Default)]
    pub(super) struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub(super) fn new(v: T) -> Self {
            Mutex(std::sync::Mutex::new(v))
        }

        /// Locks, recovering from poisoning (state is a plain cache here).
        pub(super) fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }
    }
}

/// The default vocabulary's merges in rank order, learned by `build.rs`
/// with [`Bpe::train`]'s trainer from the inputs in `train.rs`.
const DEFAULT_MERGES: &[Pair] = &include!(concat!(env!("OUT_DIR"), "/default_merges.rs"));

/// Merge table: pair → merged id. Ids are assigned in rank order, so the
/// lower id merges first.
// lint:allow(d3): point lookups only, never iterated, so hasher order cannot reach a token id
type Ranks = std::collections::HashMap<Pair, TokenId>;

/// Encoded-word memo: a pre-token's FNV-1a hash → the pre-token and its
/// ids. A word whose hash another word already holds is encoded without
/// being remembered.
// lint:allow(d3): point lookups only, never iterated; a hit and a miss return the same ids
type Memo = std::collections::HashMap<u64, MemoEntry, BuildHasherDefault<Prehashed>>;

/// One memoised pre-token.
#[derive(Debug)]
struct MemoEntry {
    word: Box<[u8]>,
    ids: Box<[TokenId]>,
}

/// The memo's hasher: its keys already are FNV-1a hashes, passed through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| train::fnv_step(h, b));
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Most distinct words the encoder memoises. Past it a new word is encoded
/// without being remembered, so a long-lived process that keeps meeting new
/// words stops growing here (of the order of 100 B a word: under 10 MB).
const MEMO_CAP: usize = 65_536;

/// A trained byte-pair encoder.
#[derive(Debug)]
pub struct Bpe {
    vocab: Vocab,
    ranks: Ranks,
    cache: Mutex<Memo>,
}

impl Bpe {
    /// Trains a BPE model on `text`, learning at most `num_merges` merges.
    ///
    /// Each step merges the most frequent adjacent pair of the word
    /// histogram (ties break on the lexicographically smaller pair, so
    /// training is deterministic) into a new token, and training stops
    /// early once no pair occurs twice: the default corpus asks for 1 500
    /// merges and yields 1 144. Pair counts are kept up to date across
    /// merges rather than recounted (`train.rs` has the cost model).
    pub fn train(text: &str, num_merges: usize) -> Self {
        Self::from_merges(&train::learn_merges(text, num_merges))
    }

    /// Expands a ranked merge list into the vocabulary and the merge
    /// table.
    fn from_merges(merges: &[Pair]) -> Self {
        let mut expansions: Vec<Vec<u8>> = Vec::with_capacity(merges.len());
        let mut ranks = Ranks::with_capacity(merges.len());
        for (rank, &pair) in merges.iter().enumerate() {
            let mut bytes = Vec::new();
            for id in [pair.0, pair.1] {
                match (id as usize).checked_sub(BYTE_TOKENS) {
                    None => bytes.push(id as u8),
                    Some(m) => bytes.extend_from_slice(&expansions[m]),
                }
            }
            expansions.push(bytes);
            ranks.insert(pair, (BYTE_TOKENS + rank) as TokenId);
        }
        Bpe {
            vocab: Vocab::new(expansions),
            ranks,
            cache: Mutex::new(Memo::default()),
        }
    }

    /// The shared default tokenizer: the merge list `build.rs` learned,
    /// expanded into a vocabulary by the first caller (a kernel's boot).
    pub fn default_tokenizer() -> &'static Bpe {
        static DEFAULT: OnceLock<Bpe> = OnceLock::new();
        DEFAULT.get_or_init(|| Bpe::from_merges(DEFAULT_MERGES))
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Convenience accessor for the special tokens.
    pub fn specials(&self) -> SpecialTokens {
        self.vocab.specials()
    }

    /// Encodes text into token IDs (never emits special tokens).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::new();
        let mut memo = self.cache.lock();
        for (word, hash) in train::pretokenize(text.as_bytes()) {
            if let Some(hit) = memo.get(&hash).filter(|hit| *hit.word == *word) {
                out.extend_from_slice(&hit.ids);
                continue;
            }
            let ids = self.encode_word(word);
            out.extend_from_slice(&ids);
            if memo.len() < MEMO_CAP {
                memo.entry(hash).or_insert_with(|| MemoEntry {
                    word: word.into(),
                    ids: ids.into_boxed_slice(),
                });
            }
        }
        out
    }

    /// Applies merges to a single pre-token.
    fn encode_word(&self, word: &[u8]) -> Vec<TokenId> {
        let mut sym: Vec<TokenId> = word.iter().map(|&b| b as TokenId).collect();
        loop {
            // Find the lowest-rank (= lowest-id) applicable merge.
            let mut best: Option<(usize, TokenId)> = None;
            for (i, w) in sym.windows(2).enumerate() {
                if let Some(&id) = self.ranks.get(&(w[0], w[1])) {
                    if best.is_none_or(|(_, b)| id < b) {
                        best = Some((i, id));
                    }
                }
            }
            let Some((i, id)) = best else { break };
            sym[i] = id;
            sym.remove(i + 1);
        }
        sym
    }

    /// Decodes token IDs back into a string (lossy only on invalid UTF-8
    /// boundaries, which cannot arise from `encode` output).
    pub fn decode(&self, tokens: &[TokenId]) -> String {
        let mut bytes = Vec::new();
        for &t in tokens {
            if let Some(b) = self.vocab.get(t) {
                if !self.vocab.is_special(t) {
                    bytes.extend_from_slice(b);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Decodes a single token for streaming output, rendering specials as
    /// their `<|name|>` placeholder.
    pub fn decode_token(&self, token: TokenId) -> String {
        match self.vocab.get(token) {
            Some(b) => String::from_utf8_lossy(b).into_owned(),
            None => format!("<|invalid:{token}|>"),
        }
    }
}

impl CorpusGen {
    /// Generates a document with approximately `target_tokens` BPE tokens
    /// when encoded with `bpe`, by growing paragraphs until the target is
    /// reached and trimming the final excess at a word boundary.
    ///
    /// Linear in the document's length: every paragraph starts with a word
    /// and ends with a period and the corpus has no whitespace runs, so each
    /// paragraph and each trimmed word starts and ends on a pre-token
    /// boundary, where encoding is additive. The document's count is then
    /// the sum of its paragraphs' counts (each after the first with its
    /// leading newline), and a trimmed word takes away its own count:
    /// fig3's 100 documents of 3 000 tokens take 14 ms, where re-encoding
    /// the whole document after each paragraph and each trimmed word took
    /// 387 ms.
    pub fn document_with_tokens(&mut self, bpe: &Bpe, target_tokens: usize) -> String {
        let mut doc = String::new();
        let mut tokens = 0;
        loop {
            let from = doc.len();
            if from > 0 {
                doc.push('\n');
            }
            self.write_paragraph(&mut doc, 120);
            tokens += bpe.encode(&doc[from..]).len();
            if tokens >= target_tokens {
                break;
            }
        }
        // Trim words until we are at or just under the target.
        while tokens > target_tokens {
            match doc.rfind(' ') {
                Some(i) => {
                    tokens -= bpe.encode(&doc[i..]).len();
                    doc.truncate(i);
                }
                None => break,
            }
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Bpe {
        Bpe::train("the cat sat on the mat the cat sat on the mat the theme", 50)
    }

    /// The learned merges' byte expansions, in rank (= id) order.
    fn merges(bpe: &Bpe) -> Vec<Vec<u8>> {
        let vocab = bpe.vocab();
        (0..vocab.merge_count())
            .map(|m| vocab.bytes((BYTE_TOKENS + m) as TokenId).to_vec())
            .collect()
    }

    #[test]
    fn roundtrip_basic() {
        let bpe = small();
        for s in [
            "the cat sat",
            "  leading spaces",
            "trailing  ",
            "unicode: héllo wörld 模型",
            "",
            "\n\t mixed\nwhitespace ",
        ] {
            assert_eq!(bpe.decode(&bpe.encode(s)), s, "roundtrip failed for {s:?}");
        }
    }

    #[test]
    fn merges_compress_common_words() {
        let bpe = small();
        let with_merges = bpe.encode("the cat sat on the mat").len();
        let raw_bytes = "the cat sat on the mat".len();
        assert!(
            with_merges < raw_bytes,
            "expected compression: {with_merges} tokens vs {raw_bytes} bytes"
        );
    }

    #[test]
    fn encoding_is_deterministic_and_cached() {
        let bpe = small();
        let a = bpe.encode("the cat sat on the mat");
        let b = bpe.encode("the cat sat on the mat");
        assert_eq!(a, b);
    }

    #[test]
    fn training_is_deterministic() {
        let a = Bpe::train("abc abc abd abd abe", 20);
        let b = Bpe::train("abc abc abd abd abe", 20);
        assert!(a.vocab().merge_count() > 0);
        assert_eq!(merges(&a), merges(&b));
        assert_eq!(a.ranks, b.ranks);
    }

    #[test]
    fn never_emits_specials() {
        let bpe = small();
        let s = bpe.specials();
        let ids = bpe.encode("<|eos|> the <|bos|>");
        assert!(ids.iter().all(|&t| t < s.bos));
        // Specials survive as literal text.
        assert_eq!(bpe.decode(&ids), "<|eos|> the <|bos|>");
    }

    #[test]
    fn decode_skips_specials_but_decode_token_renders_them() {
        let bpe = small();
        let s = bpe.specials();
        assert_eq!(bpe.decode(&[s.eos]), "");
        assert_eq!(bpe.decode_token(s.eos), "<|eos|>");
        assert_eq!(bpe.decode_token(9_999_999), "<|invalid:9999999|>");
    }

    #[test]
    fn zero_merges_is_byte_fallback() {
        let bpe = Bpe::train("anything", 0);
        let ids = bpe.encode("hi");
        assert_eq!(ids, vec![b'h' as TokenId, b'i' as TokenId]);
    }

    #[test]
    fn default_vocabulary_is_what_the_trainer_learns() {
        // `build.rs` learned the table; the same trainer on the same inputs
        // at run time must agree with it, rank for rank.
        let corpus = CorpusGen::new(train::DEFAULT_CORPUS_SEED)
            .training_corpus(train::DEFAULT_CORPUS_PARAGRAPHS);
        let learned = Bpe::train(&corpus, train::DEFAULT_MERGE_BUDGET);
        let table = Bpe::default_tokenizer();
        assert_eq!(merges(table), merges(&learned));
        assert_eq!(table.ranks, learned.ranks);
        assert_eq!(table.vocab().len(), learned.vocab().len());
    }

    #[test]
    fn default_tokenizer_trains_and_roundtrips() {
        let bpe = Bpe::default_tokenizer();
        // The default vocabulary, pinned where it is made: every token id,
        // surrogate distribution and benchmark `output_digest` hangs off
        // it. The digest (FNV-1a/64 over each merge's bytes and a 0xFF
        // terminator, in id order) was recorded with the recounting
        // trainer before the incremental one replaced it.
        assert_eq!(bpe.vocab().merge_count(), 1144);
        let digest = merges(bpe)
            .into_iter()
            .flat_map(|expansion| expansion.into_iter().chain([0xFF]))
            .fold(train::FNV_OFFSET, train::fnv_step);
        assert_eq!(digest, 0xbd46_5237_8689_2247, "default vocabulary drifted");

        let text = "retrieval augmented generation with cached context";
        assert_eq!(bpe.decode(&bpe.encode(text)), text);
        // Common corpus words should compress well below byte length.
        assert!(bpe.encode(text).len() < text.len() / 2);
    }

    #[test]
    fn incremental_trainer_is_several_times_faster_than_recounting() {
        // A ratio inside one process, not a wall-clock threshold: both
        // sides slow down together on a loaded or debug-build host
        // (measured 10 x in release, 21 x in debug). Best of three for the
        // fast side, so one preemption cannot fail it.
        let corpus = CorpusGen::new(train::DEFAULT_CORPUS_SEED)
            .training_corpus(train::DEFAULT_CORPUS_PARAGRAPHS);
        let timed = |learn: fn(&str, usize) -> Vec<Pair>| {
            // lint:allow(d1): times the host on purpose; only the ratio is asserted
            let start = std::time::Instant::now();
            let merges = learn(&corpus, train::DEFAULT_MERGE_BUDGET).len();
            (start.elapsed(), merges)
        };
        let (reference, expected) = timed(train::learn_merges_reference);
        let incremental = (0..3)
            .map(|_| {
                let (elapsed, merges) = timed(train::learn_merges);
                assert_eq!(merges, expected);
                elapsed
            })
            .min()
            .expect("three runs");
        assert!(
            reference >= 3 * incremental,
            "incremental {incremental:?} vs recounting {reference:?}"
        );
    }

    #[test]
    fn memo_is_bounded_and_never_changes_an_encoding() {
        let bpe = small();
        for i in 0..100_000u32 {
            let word = format!(" w{i}the");
            assert_eq!(bpe.encode(&word), bpe.encode_word(word.as_bytes()));
        }
        assert_eq!(bpe.cache.lock().len(), MEMO_CAP);
        // A word met after the cap filled is encoded, just not remembered.
        let late = " w99999the";
        let mut hash = Prehashed(train::FNV_OFFSET);
        hash.write(late.as_bytes());
        assert!(!bpe.cache.lock().contains_key(&hash.finish()));
        assert_eq!(bpe.decode(&bpe.encode(late)), late);
        // A word whose hash another word holds is encoded, not served the
        // other word's ids.
        let (hash, word) = {
            let memo = bpe.cache.lock();
            let (&hash, entry) = memo.iter().next().expect("a full memo");
            let word = String::from_utf8(entry.word.to_vec()).expect("encoded from a str");
            (hash, word)
        };
        let collision = MemoEntry {
            word: (*b"another word").into(),
            ids: [0].into(),
        };
        bpe.cache.lock().insert(hash, collision);
        assert_eq!(bpe.encode(&word), bpe.encode_word(word.as_bytes()));
    }

    /// A small tokenizer whose memo is full. It learned merges across
    /// `\x0b`, so a scanner that split words there would change ids.
    fn full_memo() -> &'static Bpe {
        static FULL: OnceLock<Bpe> = OnceLock::new();
        FULL.get_or_init(|| {
            let bpe = Bpe::train(
                "the\x0bcat sat\x0b on \x0bthe mat the\x0bcat sat\x0b on \x0bthe mat",
                50,
            );
            for i in 0..MEMO_CAP {
                bpe.encode(&format!(" w{i}the"));
            }
            assert_eq!(bpe.cache.lock().len(), MEMO_CAP);
            bpe
        })
    }

    /// Text that exercises pre-token splitting: words, runs of ASCII
    /// whitespace, `\x0b` (not ASCII whitespace, so part of a word), and
    /// arbitrary printable Unicode.
    fn pretoken_soup() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            "[ \t\n\r\u{b}\u{c}]{1,3}",
            "\\PC{1,6}",
            "[a-z]{1,8}",
            // The small tokenizers' alphabet, so their merges apply, with
            // and without a `\x0b` inside the word.
            "[thecasmo]{1,6}",
            "[thecasmo]{1,4}\u{b}[thecasmo]{0,4}",
        ];
        proptest::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
    }

    /// Small alphabets, repeated words and runs of one letter: count ties
    /// at every step, and merges such as `(a, a)` in `aaaa` whose
    /// occurrences overlap and whose neighbours are the pair itself.
    fn tie_heavy_corpus() -> impl Strategy<Value = String> {
        let word = prop_oneof!["[ab]{1,8}", "[abc]{1,8}", "[abcd]{1,10}", "a{2,9}"];
        proptest::collection::vec((word, 1usize..4), 1..10).prop_map(|words| {
            let mut text = String::new();
            for (word, repeats) in words {
                for _ in 0..repeats {
                    text.push_str(&word);
                    text.push(' ');
                }
            }
            text
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn incremental_trainer_matches_recounting(text in tie_heavy_corpus(), budget in 0usize..65) {
            let new = train::learn_merges(&text, budget);
            let old = train::learn_merges_reference(&text, budget);
            prop_assert_eq!(new, old, "merge list for {:?}", text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The memo never changes an encoding: `encode` is `encode_word`
        /// over `pretokenize`, word by word, cold and warm on the default
        /// vocabulary, and on a memo that is full.
        #[test]
        fn encode_is_encode_word_over_pretokens(text in pretoken_soup()) {
            for bpe in [Bpe::default_tokenizer(), full_memo()] {
                let spec: Vec<TokenId> = train::pretokenize(text.as_bytes())
                    .flat_map(|(word, _)| bpe.encode_word(word))
                    .collect();
                prop_assert_eq!(&bpe.encode(&text), &spec, "cold {:?}", text);
                prop_assert_eq!(&bpe.encode(&text), &spec, "warm {:?}", text);
            }
        }

        /// Pre-tokens tile the input, each a whitespace run then a maximal
        /// non-whitespace run, and carry the FNV-1a hash of their bytes.
        #[test]
        fn pretokenize_partitions_input(text in pretoken_soup()) {
            let parts: Vec<(&[u8], u64)> = train::pretokenize(text.as_bytes()).collect();
            let words: Vec<&[u8]> = parts.iter().map(|&(word, _)| word).collect();
            prop_assert_eq!(words.concat(), text.as_bytes());
            for &(word, hash) in &parts {
                let body = word.iter().position(|b| !b.is_ascii_whitespace());
                let body = &word[body.unwrap_or(word.len())..];
                prop_assert!(!word.is_empty() && body.iter().all(|b| !b.is_ascii_whitespace()));
                prop_assert_eq!(hash, word.iter().copied().fold(train::FNV_OFFSET, train::fnv_step));
            }
            // Each pre-token but the last ends where whitespace begins.
            for pair in words.windows(2) {
                prop_assert!(!pair[0][pair[0].len() - 1].is_ascii_whitespace());
                prop_assert!(pair[1][0].is_ascii_whitespace());
            }
        }
    }
}
