//! Vocabulary: token IDs, their byte expansions, and special tokens.
//!
//! Layout: IDs `0..256` are the raw byte tokens, `256..256+M` are learned BPE
//! merges in rank order, and the last few IDs are special control tokens.
//! This fixed layout keeps encodings stable and lets other crates reason
//! about IDs (e.g. the surrogate model never emits specials except EOS).

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
#[derive(Debug, Clone, Serialize)]
pub struct Vocab {
    /// Byte expansion per token ID; specials expand to display placeholders.
    expansions: Vec<Vec<u8>>,
    specials: SpecialTokens,
}

/// Number of base byte tokens.
pub const BYTE_TOKENS: usize = 256;

/// Number of special tokens appended after the merges.
pub const NUM_SPECIALS: usize = 5;

impl Vocab {
    /// Builds a vocabulary from merge expansions (in rank order).
    ///
    /// `merge_expansions[i]` is the full byte expansion of merge token
    /// `256 + i`.
    pub fn new(merge_expansions: Vec<Vec<u8>>) -> Self {
        let merges = merge_expansions.len();
        let mut expansions = Vec::with_capacity(BYTE_TOKENS + merges + NUM_SPECIALS);
        for b in 0..BYTE_TOKENS {
            expansions.push(vec![b as u8]);
        }
        expansions.extend(merge_expansions);
        let first_special = (BYTE_TOKENS + merges) as TokenId;
        let specials = SpecialTokens {
            bos: first_special,
            eos: first_special + 1,
            pad: first_special + 2,
            call: first_special + 3,
            end_call: first_special + 4,
        };
        for name in ["<|bos|>", "<|eos|>", "<|pad|>", "<|call|>", "<|end_call|>"] {
            expansions.push(name.as_bytes().to_vec());
        }
        Vocab {
            expansions,
            specials,
        }
    }

    /// Total vocabulary size including byte tokens and specials.
    pub fn len(&self) -> usize {
        self.expansions.len()
    }

    /// Returns `true` if the vocabulary is empty (never; API symmetry).
    pub fn is_empty(&self) -> bool {
        self.expansions.is_empty()
    }

    /// Number of learned merges (IDs `256..256+merges` are merge tokens).
    #[cfg(test)]
    pub(crate) fn merge_count(&self) -> usize {
        self.len() - BYTE_TOKENS - NUM_SPECIALS
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
        &self.expansions[id as usize]
    }

    /// Checked byte expansion of a token.
    pub fn get(&self, id: TokenId) -> Option<&[u8]> {
        self.expansions.get(id as usize).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_bytes_then_merges_then_specials() {
        let v = Vocab::new(vec![b"th".to_vec(), b"the".to_vec()]);
        assert_eq!(v.len(), 256 + 2 + NUM_SPECIALS);
        assert_eq!(v.bytes(65), b"A");
        assert_eq!(v.bytes(256), b"th");
        assert_eq!(v.bytes(257), b"the");
        assert_eq!(v.specials().bos, 258);
        assert_eq!(v.specials().eos, 259);
        assert_eq!(v.merge_count(), 2);
    }

    #[test]
    fn special_detection() {
        let v = Vocab::new(vec![]);
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
        let v = Vocab::new(vec![]);
        assert_eq!(v.get(97), Some(b"a".as_slice()));
        assert_eq!(v.get(10_000), None);
    }
}
