//! BPE model, encoder and decoder.
//!
//! A [`Bpe`] is a [`Vocab`] (every token's bytes, end to end in one table)
//! and its merges' ranks (each merge's pair and the id it makes, in an
//! open-addressed table at most half full), both laid out from a ranked
//! merge list by `train::tables`. [`Bpe::train`] learns the list (the
//! trainer is in `train.rs`) and lays it out at run time; `build.rs` does
//! the same for the default corpus, and [`Bpe::default_tokenizer`] borrows
//! those tables as they are, so no process trains or lays out the default
//! vocabulary at run time. Its first call allocates the memo and nothing
//! else (`tests/boot_alloc.rs` counts) and takes ≈ 20 µs in a fresh
//! process on a 2-vCPU host, where building 1 405 expansions and a hashed
//! merge table took ≈ 250 µs. Only a memo miss looks up a rank: a hash of
//! the pair and a linear probe, as fast as the hashed map it replaced,
//! where a binary search of the 1 144 pairs sorted made a new word ≈ 2×
//! slower (≈ 4.2 against 2.0 µs, 0.5–0.7 ms more on `rag_churn`'s boot).
//!
//! Encoding splits text into pre-tokens (a run of whitespace is glued to
//! the following word, GPT-style) and applies merges greedily in rank
//! order, in O(n log n) for a pre-token of n bytes. One scan (the
//! trainer's pre-tokenizer, in `train.rs`) both splits the text and
//! hashes each pre-token with FNV-1a, and `encode` takes the memo's lock
//! once per call, not once per word (symbench's
//! `tokenizer.encode_ns_per_token` on `rag_churn` read 25 ns where a lock
//! and a SipHash per word cost 40, on a host that now reads 33–47 ns).
//!
//! The memo is a fixed table of 1 024 sets × 4 ways (272 KiB), allocated
//! with the `Bpe` and never grown: a pre-token of up to 30 bytes that
//! encodes to at most 8 ids is remembered inline, in one 64-byte slot of
//! the set its hash picks, and each set evicts its least recently used
//! way. Words that recur (a corpus's vocabulary) stay; words met once (a
//! session's task id) pass through one slot each; a longer word is encoded
//! and not remembered. So a process that keeps meeting new words, however
//! long, holds the same 272 KiB here after its millionth session as after
//! its first.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

use parking_lot_shim::Mutex;

use crate::corpus::CorpusGen;
use crate::train::{self, Pair};
use crate::vocab::{SpecialTokens, TokenId, Vocab};

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

/// The default vocabulary's tables, laid out by `build.rs` with
/// [`Bpe::train`]'s own `train::tables` from the merges it learned on the
/// inputs `train.rs` names: every non-special token's bytes end to end,
/// where each ends, and each merge's pair and id placed by
/// `train::rank_slot`.
const DEFAULT_BYTES: &[u8] = include_bytes!(concat!(env!("OUT_DIR"), "/default_vocab.bytes"));
const DEFAULT_ENDS: &[u32] = &include!(concat!(env!("OUT_DIR"), "/default_vocab_ends.rs"));
const DEFAULT_RANKS: &[(Pair, TokenId)] =
    &include!(concat!(env!("OUT_DIR"), "/default_vocab_ranks.rs"));

/// log2 of the memo's set count.
const SET_BITS: u32 = 10;
/// Sets in the memo.
const SETS: usize = 1 << SET_BITS;
/// Slots per set.
const WAYS: usize = 4;
/// Bytes in a memo slot: one cache line.
const SLOT: usize = 64;
/// Where a slot's word starts. Byte 0 is the word's length (0 while the
/// slot is empty: a pre-token is never empty), byte 1 its ids' count.
const WORD_AT: usize = 2;
/// Where a slot's ids start, 4 little-endian bytes each.
const IDS_AT: usize = 32;
/// Longest pre-token the memo remembers, in bytes.
const WORD_CAP: usize = IDS_AT - WORD_AT;
/// Most ids a remembered pre-token may encode to.
const IDS_CAP: usize = (SLOT - IDS_AT) / 4;

/// One remembered pre-token and its ids, inline in one cache line, so no
/// slot owns heap memory and a hit reads one line past its set's head.
type Slot = [u8; SLOT];

fn slot_word(slot: &Slot) -> &[u8] {
    &slot[WORD_AT..WORD_AT + usize::from(slot[0])]
}

fn slot_ids(slot: &Slot) -> impl Iterator<Item = TokenId> + '_ {
    let ids = &slot[IDS_AT..IDS_AT + 4 * usize::from(slot[1])];
    ids.chunks_exact(4)
        .map(|id| TokenId::from_le_bytes([id[0], id[1], id[2], id[3]]))
}

fn write_slot(slot: &mut Slot, word: &[u8], ids: &[TokenId]) {
    slot[0] = word.len() as u8;
    slot[1] = ids.len() as u8;
    slot[WORD_AT..WORD_AT + word.len()].copy_from_slice(word);
    for (at, id) in slot[IDS_AT..].chunks_exact_mut(4).zip(ids) {
        at.copy_from_slice(&id.to_le_bytes());
    }
}

/// What a probe reads before any slot: 16 bits of each way's hash, one per
/// 16-bit lane, and the ways in the order they were last used, one per
/// byte, the most recent in the low byte. Both are packed into integers so
/// that a hit finds its way and moves it to the front without a branch on
/// the set's contents; probing the ways one by one and rotating an array
/// made a warm `encode` ≈ 15 % slower. All 1 024 heads take 16 KiB.
#[derive(Clone, Copy)]
struct Head {
    tags: u64,
    order: u32,
}

/// A one in each 16-bit lane.
const LANES: u64 = 0x0001_0001_0001_0001;
/// A one in each byte.
const BYTES: u32 = 0x0101_0101;

impl Head {
    /// Ways 0, 1, 2, 3, most recently used first.
    const EMPTY: Head = Head {
        tags: 0,
        order: 0x0302_0100,
    };

    /// The ways whose tag may be `tag`, as the top bit of their lanes: each
    /// way whose tag is, and perhaps a way above one that is (the borrow of
    /// the subtraction), which the word compare then turns down.
    fn candidates(&self, tag: u16) -> u64 {
        let x = self.tags ^ (u64::from(tag) * LANES);
        x.wrapping_sub(LANES) & !x & (LANES << 15)
    }

    fn set_tag(&mut self, way: usize, tag: u16) {
        let lane = 16 * way;
        self.tags = (self.tags & !(0xFFFF << lane)) | (u64::from(tag) << lane);
    }

    /// Makes `way` the most recently used; the ways used since it move
    /// back one.
    fn touch(&mut self, way: usize) {
        let way = way as u32;
        // `way`'s byte is the lowest zero byte of `x`, and the only one.
        let x = self.order ^ (way * BYTES);
        let rank = (x.wrapping_sub(BYTES) & !x & (BYTES << 7)).trailing_zeros() / 8;
        let moved = ((1u64 << (8 * rank + 8)) - 1) as u32;
        self.order = (self.order & !moved) | (((self.order << 8) | way) & moved);
    }

    /// The least recently used way, made the most recently used.
    fn evict(&mut self) -> usize {
        self.order = self.order.rotate_left(8);
        (self.order & 0xFF) as usize
    }
}

const _: () = assert!(SETS * (WAYS * SLOT + std::mem::size_of::<Head>()) <= 384 * 1024);

/// Encoded-word memo: a fixed set-associative table whose sets each evict
/// their least recently used way.
struct Memo {
    heads: Box<[Head]>,
    /// `SETS * WAYS` slots, set by set, as one byte array: it is allocated
    /// zeroed (every slot empty), so its pages are faulted in as slots are
    /// first written, not at boot, where writing 256 KiB of empty slots
    /// took ≈ 0.1 ms.
    slots: Box<[u8]>,
}

impl Memo {
    fn new() -> Self {
        Memo {
            heads: vec![Head::EMPTY; SETS].into_boxed_slice(),
            slots: vec![0; SETS * WAYS * SLOT].into_boxed_slice(),
        }
    }

    /// The set a word's FNV-1a hash picks, and the tag its ways compare
    /// first. FNV-1a's top bits hardly depend on a word's last byte, so
    /// the hash is mixed by a Fibonacci multiply first.
    fn locate(hash: u64) -> (usize, u16) {
        let mixed = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> (64 - SET_BITS)) as usize, (mixed >> (48 - SET_BITS)) as u16)
    }

    fn slot(&self, set: usize, way: usize) -> &Slot {
        &self.slots.as_chunks().0[set * WAYS + way]
    }

    fn slot_mut(&mut self, set: usize, way: usize) -> &mut Slot {
        &mut self.slots.as_chunks_mut().0[set * WAYS + way]
    }

    /// How many slots hold a word.
    fn filled(&self) -> usize {
        let slots = self.slots.as_chunks::<SLOT>().0;
        slots.iter().filter(|slot| slot[0] > 0).count()
    }

    /// The set and the way that hold `word`.
    fn find(&self, word: &[u8], hash: u64) -> Option<(usize, usize)> {
        let (set, tag) = Self::locate(hash);
        let mut candidates = self.heads[set].candidates(tag);
        while candidates != 0 {
            let way = (candidates.trailing_zeros() / 16) as usize;
            if slot_word(self.slot(set, way)) == word {
                return Some((set, way));
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// The ids remembered for `word`, which becomes its set's most recently
    /// used.
    fn get(&mut self, word: &[u8], hash: u64) -> Option<impl Iterator<Item = TokenId> + '_> {
        let (set, way) = self.find(word, hash)?;
        self.heads[set].touch(way);
        Some(slot_ids(self.slot(set, way)))
    }

    /// Remembers `word`'s ids in its set's least recently used way, which
    /// becomes the most recently used; a word or an encoding too long for
    /// a slot is not remembered.
    fn insert(&mut self, word: &[u8], hash: u64, ids: &[TokenId]) {
        if word.len() > WORD_CAP || ids.len() > IDS_CAP {
            return;
        }
        let (set, tag) = Self::locate(hash);
        let head = &mut self.heads[set];
        let way = head.evict();
        head.set_tag(way, tag);
        write_slot(self.slot_mut(set, way), word, ids);
    }
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("slots", &(SETS * WAYS))
            .field("filled", &self.filled())
            .finish()
    }
}

/// A trained byte-pair encoder.
#[derive(Debug)]
pub struct Bpe {
    vocab: Vocab,
    /// Each merge's pair and the id it makes, placed by `train::rank_slot`
    /// (an empty slot has id 0).
    ranks: Cow<'static, [(Pair, TokenId)]>,
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
        let tables = train::tables(&train::learn_merges(text, num_merges));
        Bpe {
            vocab: Vocab::from_tables(tables.bytes.into(), tables.ends.into()),
            ranks: tables.ranks.into(),
            cache: Mutex::new(Memo::new()),
        }
    }

    /// A tokenizer over the tables `build.rs` laid out, borrowed as they
    /// are: it allocates its memo and nothing else.
    fn from_build() -> Self {
        Bpe {
            vocab: Vocab::from_tables(DEFAULT_BYTES.into(), DEFAULT_ENDS.into()),
            ranks: DEFAULT_RANKS.into(),
            cache: Mutex::new(Memo::new()),
        }
    }

    /// The shared default tokenizer, over the vocabulary `build.rs` laid
    /// out; the first caller (a kernel's boot) allocates its memo.
    pub fn default_tokenizer() -> &'static Bpe {
        static DEFAULT: OnceLock<Bpe> = OnceLock::new();
        DEFAULT.get_or_init(Bpe::from_build)
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
        // One id per 8 bytes: corpus prose encodes at ≈ 7.7 bytes an id, so
        // it grows this once at most, where growing from empty took five
        // allocations for a 40-word paragraph (≈ 4 ns a token on a warm
        // memo, release build).
        let mut out = Vec::with_capacity(text.len() / 8);
        let mut memo = self.cache.lock();
        for (word, hash) in train::pretokenize(text.as_bytes()) {
            if let Some(ids) = memo.get(word, hash) {
                out.extend(ids);
                continue;
            }
            let ids = self.encode_word(word);
            memo.insert(word, hash, &ids);
            out.extend_from_slice(&ids);
        }
        out
    }

    /// Applies merges to a single pre-token.
    fn encode_word(&self, word: &[u8]) -> Vec<TokenId> {
        merge_word(word, |pair| self.rank(pair))
    }

    /// The id `pair` merges into, if it merges: a probe of the rank
    /// table, which only a memo miss reaches. The table is at most half
    /// full, so every probe ends at the pair or at an empty slot.
    fn rank(&self, pair: Pair) -> Option<TokenId> {
        let mask = self.ranks.len() - 1;
        let mut at = train::rank_slot(pair, mask);
        loop {
            match self.ranks[at] {
                (_, 0) => return None,
                (p, id) if p == pair => return Some(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The loop [`Bpe::encode_word`] replaced, kept as the reference its
    /// tests compare against: rescans every window for the lowest-rank
    /// merge before each merge, O(n²) for a pre-token of n bytes.
    #[cfg(test)]
    fn encode_word_reference(&self, word: &[u8]) -> Vec<TokenId> {
        let mut sym: Vec<TokenId> = word.iter().map(|&b| b as TokenId).collect();
        loop {
            // Find the lowest-rank (= lowest-id) applicable merge.
            let mut best: Option<(usize, TokenId)> = None;
            for (i, w) in sym.windows(2).enumerate() {
                // A scan of every slot, not `rank`'s probe.
                let pair = (w[0], w[1]);
                if let Some(&(_, id)) = self.ranks.iter().find(|&&(p, _)| p == pair) {
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
    /// boundaries, which cannot arise from `encode` output). One
    /// allocation, sized up front, becomes the string; only invalid UTF-8
    /// takes a second, for the lossy copy.
    pub fn decode(&self, tokens: &[TokenId]) -> String {
        let texts = || {
            tokens
                .iter()
                .filter(|&&t| !self.vocab.is_special(t))
                .filter_map(|&t| self.vocab.get(t))
        };
        let mut bytes = Vec::with_capacity(texts().map(<[u8]>::len).sum());
        for b in texts() {
            bytes.extend_from_slice(b);
        }
        String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

/// A symbol of a pre-token being merged: a node of the list over the
/// word's byte positions, at the position of its first byte.
#[derive(Clone, Copy)]
struct Symbol {
    /// [`MERGED_AWAY`] once joined into its left neighbour.
    id: TokenId,
    prev: u32,
    next: u32,
}

/// No neighbour.
const NONE: u32 = u32::MAX;

/// The id of a symbol that no longer exists; no vocabulary reaches it.
const MERGED_AWAY: TokenId = TokenId::MAX;

/// BPE over one pre-token, asking `rank` for a pair's merge: the lowest
/// (= lowest-id) adjacent pair merges first, the leftmost of equals first,
/// until no adjacent pair has a merge.
///
/// The symbols form a linked list and a min-heap holds every adjacent pair
/// that has a merge, keyed `(id, position)`. A merge joins a symbol with
/// its right neighbour and queues the at most two pairs it creates; an
/// entry whose pair changed after it was queued is skipped when popped (a
/// position's id only ever grows, so it cannot change back). That is at
/// most 3n calls of `rank` and O(n log n) heap work for n bytes, where
/// rescanning every window before each merge was O(n²): 1.8 s for one
/// 16 KiB pre-token in a release build. Positions are `u32`, which keeps
/// the work space near 50 bytes a byte (12 a symbol, and at most 2n heap
/// entries of 16), all freed on return.
fn merge_word(word: &[u8], mut rank: impl FnMut(Pair) -> Option<TokenId>) -> Vec<TokenId> {
    let n = u32::try_from(word.len())
        .ok()
        .filter(|&n| n < NONE)
        .expect("a pre-token shorter than 4 GiB");
    let mut sym: Vec<Symbol> = (0..n)
        .map(|i| Symbol {
            id: TokenId::from(word[i as usize]),
            prev: i.checked_sub(1).unwrap_or(NONE),
            next: if i + 1 < n { i + 1 } else { NONE },
        })
        .collect();
    let mut heap = BinaryHeap::new();
    // Queues the pair that starts at `at`, if it has a merge.
    let mut queue = |heap: &mut BinaryHeap<_>, sym: &[Symbol], at: u32| {
        let next = sym[at as usize].next;
        if next != NONE {
            let pair = (sym[at as usize].id, sym[next as usize].id);
            if let Some(id) = rank(pair) {
                heap.push(Reverse((id, at, pair)));
            }
        }
    };
    for at in 0..n {
        queue(&mut heap, &sym, at);
    }
    while let Some(Reverse((id, at, pair))) = heap.pop() {
        let next = sym[at as usize].next;
        if next == NONE || (sym[at as usize].id, sym[next as usize].id) != pair {
            continue;
        }
        let gone = sym[next as usize];
        sym[next as usize].id = MERGED_AWAY;
        sym[at as usize].id = id;
        sym[at as usize].next = gone.next;
        if gone.next != NONE {
            sym[gone.next as usize].prev = at;
        }
        let prev = sym[at as usize].prev;
        if prev != NONE {
            queue(&mut heap, &sym, prev);
        }
        queue(&mut heap, &sym, at);
    }
    sym.into_iter()
        .map(|s| s.id)
        .filter(|&id| id != MERGED_AWAY)
        .collect()
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
    use crate::vocab::BYTE_TOKENS;
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
    fn decode_skips_specials() {
        let bpe = small();
        let s = bpe.specials();
        assert_eq!(bpe.decode(&[s.eos]), "");
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

    /// FNV-1a/64 of `bytes`: the memo's key.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().copied().fold(train::FNV_OFFSET, train::fnv_step)
    }

    /// Whether `bpe`'s memo holds `word`, leaving the set's order alone.
    fn remembers(bpe: &Bpe, word: &[u8]) -> bool {
        bpe.cache.lock().find(word, fnv(word)).is_some()
    }

    #[test]
    fn a_set_is_least_recently_used_first_out() {
        // Every order of the four ways, touched at every way, against an
        // array that moves the way to the front.
        let orders = (0u8..=255)
            .map(|p| [p & 3, p >> 2 & 3, p >> 4 & 3, p >> 6])
            .filter(|order| (0..4).all(|way| order.contains(&way)));
        assert_eq!(orders.clone().count(), 24);
        for order in orders {
            let head = Head {
                tags: 0,
                order: u32::from_le_bytes(order),
            };
            for (rank, &way) in order.iter().enumerate() {
                let mut touched = head;
                touched.touch(usize::from(way));
                let mut expected = order;
                expected[..=rank].rotate_right(1);
                assert_eq!(touched.order.to_le_bytes(), expected, "{order:?} touch {way}");
            }
            let mut evicted = head;
            assert_eq!(evicted.evict(), usize::from(order[3]));
            assert_eq!(evicted.order.to_le_bytes(), [order[3], order[0], order[1], order[2]]);
        }
    }

    #[test]
    fn tags_find_every_way_that_has_them() {
        let mut head = Head::EMPTY;
        for (way, tag) in [0x1234, 0x0001, 0x1234, 0xFFFF].into_iter().enumerate() {
            head.set_tag(way, tag);
        }
        let ways = |tag| {
            let candidates = head.candidates(tag);
            (0..WAYS).filter(|w| candidates >> (16 * w + 15) & 1 == 1).collect::<Vec<_>>()
        };
        assert_eq!(ways(0x1234), [0, 2]);
        assert_eq!(ways(0xFFFF), [3]);
        assert_eq!(ways(0x0001), [1]);
        assert_eq!(ways(0x0000), Vec::<usize>::new());
    }

    #[test]
    fn a_slot_with_the_words_tag_but_other_bytes_is_never_served() {
        let bpe = small();
        let word = " the";
        let ids = bpe.encode(word);
        assert_eq!(ids, bpe.encode_word(word.as_bytes()));
        for other in [b" tha".as_slice(), b"another word"] {
            {
                // The way keeps the word's tag, so the probe compares its
                // bytes.
                let mut memo = bpe.cache.lock();
                let (set, way) = memo.find(word.as_bytes(), fnv(word.as_bytes())).expect("remembered");
                write_slot(memo.slot_mut(set, way), other, &[0]);
            }
            assert!(!remembers(&bpe, word.as_bytes()));
            assert_eq!(bpe.encode(word), ids);
        }
    }

    #[test]
    fn a_word_too_long_for_a_slot_is_encoded_not_remembered() {
        let bpe = Bpe::train("aaaaaaaa aaaaaaaa", 10);
        // 30 bytes in 5 ids; 31 bytes; 9 bytes in 9 ids.
        let fits = "a".repeat(WORD_CAP);
        let long = "a".repeat(WORD_CAP + 1);
        let unmerged = "z".repeat(IDS_CAP + 1);
        for word in [&fits, &long, &unmerged] {
            assert_eq!(bpe.encode(word), bpe.encode_word(word.as_bytes()));
        }
        assert_eq!(bpe.encode(&fits).len(), 5);
        assert!(remembers(&bpe, fits.as_bytes()));
        assert!(!remembers(&bpe, long.as_bytes()));
        assert!(!remembers(&bpe, unmerged.as_bytes()));
        assert_eq!(bpe.cache.lock().filled(), 1);
    }

    #[test]
    fn recurring_words_outlive_any_number_of_one_off_words() {
        // The default vocabulary with a memo of its own, and two paragraphs
        // of its corpus that recur once every 16 words met only once, as
        // documents recur between the task ids of agent sessions.
        let bpe = Bpe::from_build();
        let corpus = CorpusGen::new(train::DEFAULT_CORPUS_SEED).training_corpus(2);
        let words: Vec<&[u8]> = train::pretokenize(corpus.as_bytes()).map(|(w, _)| w).collect();
        bpe.encode(&corpus);
        for i in 0..100_000 {
            bpe.encode(&format!(" #{i}"));
            if i % 16 == 15 {
                let missed = words.iter().find(|word| !remembers(&bpe, word));
                assert!(missed.is_none(), "{missed:?} forgotten by one-off word {i}");
                bpe.encode(&corpus);
            }
        }
    }

    #[test]
    fn a_64_kib_pretoken_takes_linearly_many_rank_lookups() {
        let bpe = Bpe::train("aaaa aaaa aaaaaaaa aaaaaaaa ab ab aab aab abab abab ba ba", 50);
        // Blocks of `a` and `b` joined by `z`, which no merge involves: no
        // merge spans a `z`, so the rescanning loop's ids for the whole
        // word are its ids for each block in turn, each `z` its own byte.
        // That runs the O(n²) reference on short blocks, not on 64 KiB.
        let (mut word, mut expected) = (Vec::new(), Vec::new());
        for k in 0.. {
            if word.len() >= 64 * 1024 {
                break;
            }
            let block = ["a".repeat(k % 29 + 1), "b".repeat(k % 4), "ab".repeat(k % 3)].concat();
            expected.extend(bpe.encode_word_reference(block.as_bytes()));
            expected.push(TokenId::from(b'z'));
            word.extend_from_slice(block.as_bytes());
            word.push(b'z');
        }
        let mut lookups = 0;
        let ids = merge_word(&word, |pair| {
            lookups += 1;
            bpe.rank(pair)
        });
        assert!(ids.len() < word.len() / 2, "merges did apply");
        assert_eq!(ids, expected);
        // The rescanning loop asks about every window before each merge:
        // of the order of n²/4 lookups here. A merge queues two pairs.
        assert!(lookups <= 3 * word.len(), "{lookups} rank lookups for {} bytes", word.len());
    }

    /// A small tokenizer whose memo is thrashed: every slot of every set is
    /// taken, so each new word evicts one. It learned merges across `\x0b`,
    /// so a scanner that split words there would change ids.
    fn thrashed() -> &'static Bpe {
        static THRASHED: OnceLock<Bpe> = OnceLock::new();
        THRASHED.get_or_init(|| {
            let bpe = Bpe::train(
                "the\x0bcat sat\x0b on \x0bthe mat the\x0bcat sat\x0b on \x0bthe mat",
                50,
            );
            let mut i = 0;
            while bpe.cache.lock().filled() < SETS * WAYS {
                for _ in 0..SETS {
                    bpe.encode(&format!(" w{i}the"));
                    i += 1;
                }
            }
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

    /// Pre-tokens over the tie-heavy corpora's alphabet, many longer than
    /// any word they were trained on.
    fn tie_heavy_word() -> impl Strategy<Value = String> {
        let piece = prop_oneof!["[ab]{1,8}", "[abcd]{1,10}", "a{2,9}"];
        (" ?", proptest::collection::vec(piece, 1..8))
            .prop_map(|(space, pieces)| space + &pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn incremental_trainer_matches_recounting(text in tie_heavy_corpus(), budget in 0usize..65) {
            let new = train::learn_merges(&text, budget);
            let old = train::learn_merges_reference(&text, budget);
            prop_assert_eq!(new, old, "merge list for {:?}", text);
        }

        /// The heap merges in the rescanning loop's order: lowest rank
        /// first, leftmost of equals first, through overlapping runs such
        /// as `aaaa` under `(a, a)`.
        #[test]
        fn heap_merge_matches_rescanning(
            text in tie_heavy_corpus(),
            budget in 0usize..65,
            words in proptest::collection::vec(tie_heavy_word(), 1..8),
        ) {
            let bpe = Bpe::train(&text, budget);
            let trained = train::pretokenize(text.as_bytes()).map(|(word, _)| word);
            for word in trained.chain(words.iter().map(String::as_bytes)) {
                prop_assert_eq!(
                    bpe.encode_word(word),
                    bpe.encode_word_reference(word),
                    "{:?} after training on {:?}", String::from_utf8_lossy(word), text
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The memo never changes an encoding: `encode` is `encode_word`
        /// over `pretokenize`, word by word, cold and warm on the default
        /// vocabulary, and on a memo whose every set is full.
        #[test]
        fn encode_is_encode_word_over_pretokens(text in pretoken_soup()) {
            for bpe in [Bpe::default_tokenizer(), thrashed()] {
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
