//! The BPE trainer and the pre-tokenizer it shares with the encoder (which
//! also keys its memo with the hash the pre-tokenizer computes).
//!
//! This file is compiled twice: as a module of the library, where
//! [`Bpe::train`](crate::Bpe::train) wraps it, and by `build.rs`, which
//! learns the default vocabulary with it before the library is compiled.
//! So it is std only and names nothing of the crate but `TokenId` and
//! `BYTE_TOKENS`, which both including roots provide.
//!
//! Training operates on a word histogram (each distinct pre-token trained
//! once, weighted by count) and keeps its pair statistics up to date across
//! merges instead of recounting them.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use super::{TokenId, BYTE_TOKENS};

/// Two adjacent symbols.
pub(crate) type Pair = (TokenId, TokenId);

/// Seed of the `CorpusGen` that writes the default vocabulary's training
/// corpus. With the two constants below, the vocabulary's only source of
/// truth: `build.rs` learns it from them, and a test relearns it at run
/// time and compares.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) const DEFAULT_CORPUS_SEED: u64 = 0xC0FFEE;

/// Paragraphs of the default training corpus (250 690 bytes).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) const DEFAULT_CORPUS_PARAGRAPHS: usize = 400;

/// Merges asked of the default training run (it learns 1 144).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) const DEFAULT_MERGE_BUDGET: usize = 1500;

/// What training knows about one adjacent pair.
#[derive(Default)]
struct PairStat {
    /// Occurrences over the corpus: Σ word count × occurrences in the word.
    count: u64,
    /// Indices of the words that contain the pair, ascending. A word stays
    /// listed after another merge consumed its occurrence; rewriting such
    /// a word is a no-op.
    words: Vec<usize>,
}

/// Learns at most `num_merges` merges from `text`, in rank order: merge
/// `r` joins its pair into token `BYTE_TOKENS + r`.
///
/// Each step merges the most frequent adjacent pair of the word histogram
/// (ties break on the lexicographically smaller pair, so training is
/// deterministic) into a new token, and training stops early once no pair
/// occurs twice: the default corpus asks for 1 500 merges and yields 1 144.
///
/// Pair statistics are maintained, not recomputed. One pass over the
/// distinct words builds the count of every pair, the list of words
/// containing it, and an index ordered by `(count, Reverse(pair))`. A
/// merge then reads the index's maximum in O(log P), rewrites only the
/// words listed for that pair (left to right, non-overlapping) and applies
/// the difference between those words' pair windows before and after to
/// the counts and the index. That is O(L log P) to build plus O(t log t)
/// per merge, for L symbols in the distinct words, P live pairs and t
/// symbols in the words the merge touches, where recounting cost O(L) per
/// merge: 4.5 ms instead of 47 ms for the default vocabulary in a release
/// build, 28 ms instead of 600 ms in a debug build.
pub(crate) fn learn_merges(text: &str, num_merges: usize) -> Vec<Pair> {
    let mut words = word_histogram(text);

    let mut stats: BTreeMap<Pair, PairStat> = BTreeMap::new();
    for (wi, (sym, count)) in words.iter().enumerate() {
        for w in sym.windows(2) {
            let stat = stats.entry((w[0], w[1])).or_default();
            stat.count += count;
            if stat.words.last() != Some(&wi) {
                stat.words.push(wi);
            }
        }
    }
    let mut by_count: BTreeSet<(u64, Reverse<Pair>)> = stats
        .iter()
        .map(|(&pair, stat)| (stat.count, Reverse(pair)))
        .collect();

    let mut merges: Vec<Pair> = Vec::with_capacity(num_merges);
    // Signed count changes of one merge: every pair window of a touched
    // word, minus its weight before the rewrite and plus it after.
    let mut deltas: Vec<(Pair, i64)> = Vec::new();

    while merges.len() < num_merges {
        let Some(&(count, Reverse(pair))) = by_count.last() else {
            break;
        };
        if count < 2 {
            break;
        }
        let new_id = (BYTE_TOKENS + merges.len()) as TokenId;
        merges.push(pair);

        let touched = stats
            .get_mut(&pair)
            .map(|stat| std::mem::take(&mut stat.words))
            .unwrap_or_default();
        for wi in touched {
            let (sym, count) = &mut words[wi];
            let weight = *count as i64;
            deltas.extend(sym.windows(2).map(|w| ((w[0], w[1]), -weight)));
            merge_in_place(sym, pair, new_id);
            for w in sym.windows(2) {
                let p = (w[0], w[1]);
                deltas.push((p, weight));
                // Two symbols adjacent now were adjacent before unless
                // one of them is the new token, so only those pairs can
                // be new to this word; `touched` ascends, so `last`
                // dedups a pair that occurs twice in it.
                if p.0 == new_id || p.1 == new_id {
                    let listed = &mut stats.entry(p).or_default().words;
                    if listed.last() != Some(&wi) {
                        listed.push(wi);
                    }
                }
            }
        }

        // Windows the rewrite left alone cancel; what remains moves the
        // counts and the ordered index together.
        deltas.sort_unstable_by_key(|&(p, _)| p);
        for run in deltas.chunk_by(|a, b| a.0 == b.0) {
            let p = run[0].0;
            let net: i64 = run.iter().map(|&(_, d)| d).sum();
            if net == 0 {
                continue;
            }
            let stat = stats
                .get_mut(&p)
                .expect("every window of a touched word was counted or listed above");
            let old = stat.count;
            stat.count = old
                .checked_add_signed(net)
                .expect("a pair is never removed more often than it was counted");
            // Not indexed yet when the pair is new (`old == 0`).
            by_count.remove(&(old, Reverse(p)));
            if stat.count == 0 {
                // Gone for good: merges replace symbols, they never
                // bring two old ones together.
                stats.remove(&p);
            } else {
                by_count.insert((stat.count, Reverse(p)));
            }
        }
        deltas.clear();
    }
    merges
}

/// A vocabulary as the flat tables it is read from: what `build.rs`
/// writes out for the default vocabulary, and what
/// [`Bpe::train`](crate::Bpe::train) builds at run time.
pub(crate) struct Tables {
    /// The bytes of every token but the specials, in id order, end to end:
    /// the `BYTE_TOKENS` byte tokens, then each merge's expansion.
    pub(crate) bytes: Vec<u8>,
    /// Where each of those tokens ends in `bytes`, by id.
    pub(crate) ends: Vec<u32>,
    /// Each merge's pair and the id it makes, placed by [`rank_slot`] in a
    /// table of a power of two slots at most half full; an empty slot has
    /// id 0, which no merge makes.
    pub(crate) ranks: Vec<(Pair, TokenId)>,
}

/// Where a lookup of `pair` starts probing a rank table of `mask + 1`
/// slots: a Fibonacci hash of the pair.
pub(crate) fn rank_slot(pair: Pair, mask: usize) -> usize {
    let key = (u64::from(pair.0) << 32) | u64::from(pair.1);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// Lays out the vocabulary of a ranked merge list: merge `r` is token
/// `BYTE_TOKENS + r`, and its bytes are its pair's, left then right.
pub(crate) fn tables(merges: &[Pair]) -> Tables {
    let mut bytes: Vec<u8> = (0..BYTE_TOKENS).map(|b| b as u8).collect();
    let mut ends: Vec<u32> = (1..=BYTE_TOKENS as u32).collect();
    let mut ranks = vec![((0, 0), 0); (2 * merges.len()).next_power_of_two()];
    let mask = ranks.len() - 1;
    for (rank, &pair) in merges.iter().enumerate() {
        for id in [pair.0, pair.1] {
            let end = ends[id as usize] as usize;
            let start = id
                .checked_sub(1)
                .map_or(0, |prev| ends[prev as usize] as usize);
            bytes.extend_from_within(start..end);
        }
        ends.push(u32::try_from(bytes.len()).expect("a vocabulary under 4 GiB"));
        // Linear probing. A merge consumes every occurrence of its pair, so
        // no pair is placed twice and a lookup has one answer.
        let mut at = rank_slot(pair, mask);
        while ranks[at].1 != 0 {
            debug_assert_ne!(ranks[at].0, pair, "a pair ranked twice");
            at = (at + 1) & mask;
        }
        ranks[at] = (pair, (BYTE_TOKENS + rank) as TokenId);
    }
    Tables { bytes, ends, ranks }
}

/// The trainer [`learn_merges`] replaced, kept as the reference its tests
/// compare against: recounts every pair of every word before each merge
/// and rescans every word after it.
#[cfg(test)]
pub(crate) fn learn_merges_reference(text: &str, num_merges: usize) -> Vec<Pair> {
    use std::collections::HashMap;

    let mut words = word_histogram(text);
    let mut merges: Vec<Pair> = Vec::with_capacity(num_merges);

    while merges.len() < num_merges {
        // Count adjacent pairs across all words.
        let mut pair_counts: HashMap<Pair, u64> = HashMap::new();
        for (sym, count) in &words {
            for w in sym.windows(2) {
                *pair_counts.entry((w[0], w[1])).or_insert(0) += count;
            }
        }
        let best = pair_counts
            .into_iter()
            .filter(|&(_, c)| c >= 2)
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
        let Some((pair, _)) = best else { break };

        let new_id = (BYTE_TOKENS + merges.len()) as TokenId;
        merges.push(pair);

        // Apply the merge to every word.
        for (sym, _) in &mut words {
            let mut i = 0;
            while i + 1 < sym.len() {
                if sym[i] == pair.0 && sym[i + 1] == pair.1 {
                    sym[i] = new_id;
                    sym.remove(i + 1);
                } else {
                    i += 1;
                }
            }
        }
    }
    merges
}

/// Replaces every non-overlapping occurrence of `pair` in `sym`, scanning
/// left to right, with `new_id`.
fn merge_in_place(sym: &mut Vec<TokenId>, pair: Pair, new_id: TokenId) {
    let (mut read, mut write) = (0, 0);
    while read < sym.len() {
        if read + 1 < sym.len() && (sym[read], sym[read + 1]) == pair {
            sym[write] = new_id;
            read += 2;
        } else {
            sym[write] = sym[read];
            read += 1;
        }
        write += 1;
    }
    sym.truncate(write);
}

/// The distinct pre-tokens of `text` as symbol sequences with how often each
/// occurs, in ascending order.
fn word_histogram(text: &str) -> Vec<(Vec<TokenId>, u64)> {
    // A BTreeMap would need no sort, and takes 3.0 ms on the default corpus
    // where this takes 1.2.
    // lint:allow(d3): drained into a Vec and sorted before anything reads it in order
    let mut word_counts: std::collections::HashMap<&[u8], u64> = Default::default();
    for (word, _) in pretokenize(text.as_bytes()) {
        *word_counts.entry(word).or_insert(0) += 1;
    }
    let mut word_counts: Vec<(&[u8], u64)> = word_counts.into_iter().collect();
    word_counts.sort_unstable();
    word_counts
        .into_iter()
        .map(|(w, c)| (w.iter().map(|&b| b as TokenId).collect(), c))
        .collect()
}

/// Splits bytes into pre-tokens, each with its FNV-1a hash, computed in the
/// same scan: each pre-token is an optional whitespace run followed by a
/// maximal non-whitespace run (or a trailing whitespace run). Whitespace is
/// `u8::is_ascii_whitespace`, which does not include `\x0b`.
pub(crate) fn pretokenize(bytes: &[u8]) -> impl Iterator<Item = (&[u8], u64)> {
    let mut i = 0;
    std::iter::from_fn(move || {
        if i >= bytes.len() {
            return None;
        }
        let start = i;
        let mut hash = FNV_OFFSET;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            hash = fnv_step(hash, bytes[i]);
            i += 1;
        }
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            hash = fnv_step(hash, bytes[i]);
            i += 1;
        }
        Some((&bytes[start..i], hash))
    })
}

/// FNV-1a/64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a/64 step.
pub(crate) fn fnv_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}
