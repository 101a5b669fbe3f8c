//! Vocabulary: token IDs, their byte expansions, and special tokens.
//!
//! Layout: IDs `0..256` are the raw byte tokens, `256..256+M` are learned BPE
//! merges in rank order, and the last few IDs are special control tokens.
//! This fixed layout keeps encodings stable and lets other crates reason
//! about IDs (e.g. the surrogate model never emits specials except EOS).

use std::borrow::Cow;

use serde::Serialize;

/// A token identifier.
pub type TokenId = u32;

/// The reserved control tokens appended after all learned merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpecialTokens {
    /// Beginning-of-sequence.
    pub bos: TokenId,
    /// End-of-sequence; generation loops stop on this.
    pub eos: TokenId,
    /// Padding.
    pub pad: TokenId,
    /// Marks the start of a function/tool call in agent transcripts.
    pub call: TokenId,
    /// Marks the end of a function/tool call.
    pub end_call: TokenId,
}

/// A token vocabulary mapping IDs to byte expansions.
///
/// The bytes of every token but the specials lie end to end in one table,
/// with a second table of where each token ends, both borrowed from the
/// build for the default vocabulary (`train.rs` lays them out).
#[derive(Debug, Clone)]
pub struct Vocab {
    bytes: Cow<'static, [u8]>,
    ends: Cow<'static, [u32]>,
    specials: SpecialTokens,
}

/// Number of base byte tokens.
pub const BYTE_TOKENS: usize = 256;

/// Number of special tokens appended after the merges.
pub const NUM_SPECIALS: usize = 5;

/// What each special token expands to, in id order: a display placeholder.
const SPECIAL_NAMES: [&str; NUM_SPECIALS] =
    ["<|bos|>", "<|eos|>", "<|pad|>", "<|call|>", "<|end_call|>"];

impl Vocab {
    /// A vocabulary over `bytes` and `ends`, as `train::tables` lays them
    /// out: the byte tokens, then the merges in rank order; the specials
    /// follow.
    pub(crate) fn from_tables(bytes: Cow<'static, [u8]>, ends: Cow<'static, [u32]>) -> Self {
        let first_special = ends.len() as TokenId;
        let specials = SpecialTokens {
            bos: first_special,
            eos: first_special + 1,
            pad: first_special + 2,
            call: first_special + 3,
            end_call: first_special + 4,
        };
        Vocab {
            bytes,
            ends,
            specials,
        }
    }

    /// Total vocabulary size including byte tokens and specials.
    pub fn len(&self) -> usize {
        self.ends.len() + NUM_SPECIALS
    }

    /// Returns `true` if the vocabulary is empty (never; API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of learned merges (IDs `256..256+merges` are merge tokens).
    #[cfg(test)]
    pub(crate) fn merge_count(&self) -> usize {
        self.ends.len() - BYTE_TOKENS
    }

    /// The special tokens.
    pub fn specials(&self) -> SpecialTokens {
        self.specials
    }

    /// Returns `true` if `id` is one of the special tokens.
    pub fn is_special(&self, id: TokenId) -> bool {
        id >= self.specials.bos && (id as usize) < self.len()
    }

    /// Byte expansion of a token.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn bytes(&self, id: TokenId) -> &[u8] {
        self.get(id).expect("token id in the vocabulary")
    }

    /// Checked byte expansion of a token.
    pub fn get(&self, id: TokenId) -> Option<&[u8]> {
        let id = id as usize;
        match self.ends.get(id) {
            Some(&end) => {
                let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
                Some(&self.bytes[start as usize..end as usize])
            }
            None => SPECIAL_NAMES
                .get(id - self.ends.len())
                .map(|name| name.as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{self, Pair};

    /// The vocabulary of a ranked merge list.
    fn vocab(merges: &[Pair]) -> Vocab {
        let tables = train::tables(merges);
        Vocab::from_tables(tables.bytes.into(), tables.ends.into())
    }

    #[test]
    fn layout_is_bytes_then_merges_then_specials() {
        let v = vocab(&[(b't'.into(), b'h'.into()), (256, b'e'.into())]);
        assert_eq!(v.len(), 256 + 2 + NUM_SPECIALS);
        assert_eq!(v.bytes(65), b"A");
        assert_eq!(v.bytes(256), b"th");
        assert_eq!(v.bytes(257), b"the");
        assert_eq!(v.specials().bos, 258);
        assert_eq!(v.specials().eos, 259);
        assert_eq!(v.merge_count(), 2);
        assert_eq!(v.bytes(v.specials().end_call), b"<|end_call|>");
    }

    #[test]
    fn special_detection() {
        let v = vocab(&[]);
        let s = v.specials();
        assert!(v.is_special(s.bos));
        assert!(v.is_special(s.eos));
        assert!(v.is_special(s.end_call));
        assert!(!v.is_special(0));
        assert!(!v.is_special(255));
        assert!(!v.is_special(s.end_call + 1));
    }

    #[test]
    fn get_checked() {
        let v = vocab(&[]);
        assert_eq!(v.get(97), Some(b"a".as_slice()));
        assert_eq!(v.get(10_000), None);
    }
}
