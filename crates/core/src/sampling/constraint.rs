//! Constrained decoding state machines.
//!
//! A [`Constraint`] tells the generation loop which tokens may come next;
//! the loop masks the `pred` distribution to that set ([`Dist::constrain`])
//! and samples. Two implementations ship with the library:
//!
//! - [`TrieConstraint`]: the output must be one of a fixed set of token
//!   sequences (tool names, enum values, multiple-choice answers).
//! - [`JsonConstraint`]: the output must be a syntactically valid JSON
//!   document (a pragmatic subset: no floats, escapes, or whitespace), via a
//!   byte-level pushdown automaton lifted to tokens through the vocabulary —
//!   the same construction grammar engines like Outlines/XGrammar use.
//!
//! [`Dist::constrain`]: symphony_model::Dist::constrain

use symphony_model::TokenId;
use symphony_tokenizer::Vocab;

/// A decoding constraint: a stateful filter over next tokens.
pub trait Constraint {
    /// Tokens permitted in the current state (must be non-empty until
    /// [`Constraint::is_complete`]).
    fn allowed(&self) -> Vec<TokenId>;

    /// Advances the state by an emitted token.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `token` was not allowed.
    fn advance(&mut self, token: TokenId);

    /// Returns `true` once the output satisfies the constraint.
    fn is_complete(&self) -> bool;
}

/// Constrains output to one of a fixed set of token sequences.
#[derive(Debug, Clone)]
pub struct TrieConstraint {
    sequences: Vec<Vec<TokenId>>,
    /// Tokens emitted so far (a shared prefix of the live sequences).
    depth: usize,
    complete: bool,
}

impl TrieConstraint {
    /// Creates a constraint from candidate sequences.
    ///
    /// # Panics
    ///
    /// Panics if `sequences` is empty or contains an empty sequence.
    pub fn new(sequences: Vec<Vec<TokenId>>) -> Self {
        assert!(!sequences.is_empty(), "need at least one sequence");
        assert!(
            sequences.iter().all(|s| !s.is_empty()),
            "sequences must be non-empty"
        );
        TrieConstraint {
            sequences,
            depth: 0,
            complete: false,
        }
    }
}

impl Constraint for TrieConstraint {
    fn allowed(&self) -> Vec<TokenId> {
        let mut out: Vec<TokenId> = self
            .sequences
            .iter()
            .filter(|s| s.len() > self.depth)
            .map(|s| s[self.depth])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn advance(&mut self, token: TokenId) {
        self.sequences
            .retain(|s| s.len() > self.depth && s[self.depth] == token);
        assert!(
            !self.sequences.is_empty(),
            "token {token} was not allowed by the trie"
        );
        self.depth += 1;
        if self.sequences.iter().any(|s| s.len() == self.depth) {
            self.complete = true;
        }
    }

    fn is_complete(&self) -> bool {
        self.complete
    }
}

/// Parser mode of the JSON automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Expecting the start of a value.
    Value,
    /// Right after `[`: a value or an immediate `]`.
    ValueOrClose,
    /// Saw `-`; a digit must follow.
    NumberStart,
    /// Inside a number; digits continue, a terminator ends it.
    AfterNumber,
    /// Inside a string value.
    InString,
    /// Inside an object key.
    InKey,
    /// Matching a literal (`true`/`false`/`null`).
    InLiteral(&'static [u8], usize),
    /// After a key string, expecting `:`.
    ExpectColon,
    /// After `{` : a key or an immediate `}`.
    ExpectKeyOrClose,
    /// After `,` in an object: a key must follow.
    ExpectKey,
    /// After a complete value inside a container: `,` or the closer.
    ExpectCommaOrClose,
    /// A complete top-level value has been parsed.
    Done,
}

/// Byte-level pushdown automaton for the JSON subset.
#[derive(Debug, Clone)]
struct JsonPda {
    stack: Vec<u8>,
    mode: Mode,
}

fn is_string_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b' ' || b == b'-' || b == b'.'
}

impl JsonPda {
    fn new() -> Self {
        JsonPda {
            stack: Vec::new(),
            mode: Mode::Value,
        }
    }

    fn value_done(&mut self) {
        self.mode = if self.stack.is_empty() {
            Mode::Done
        } else {
            Mode::ExpectCommaOrClose
        };
    }

    /// Feeds one byte; returns `false` on rejection (state unspecified).
    fn feed(&mut self, b: u8) -> bool {
        match self.mode {
            Mode::Done => false,
            Mode::Value | Mode::ValueOrClose => {
                if self.mode == Mode::ValueOrClose && b == b']' {
                    debug_assert_eq!(self.stack.last(), Some(&b'['));
                    self.stack.pop();
                    self.value_done();
                    return true;
                }
                match b {
                    b'"' => self.mode = Mode::InString,
                    b'{' => {
                        self.stack.push(b'{');
                        self.mode = Mode::ExpectKeyOrClose;
                    }
                    b'[' => {
                        self.stack.push(b'[');
                        self.mode = Mode::ValueOrClose;
                    }
                    b'-' => self.mode = Mode::NumberStart,
                    b'0'..=b'9' => self.mode = Mode::AfterNumber,
                    b't' => self.mode = Mode::InLiteral(b"true", 1),
                    b'f' => self.mode = Mode::InLiteral(b"false", 1),
                    b'n' => self.mode = Mode::InLiteral(b"null", 1),
                    _ => return false,
                }
                true
            }
            Mode::NumberStart => {
                if b.is_ascii_digit() {
                    self.mode = Mode::AfterNumber;
                    true
                } else {
                    false
                }
            }
            Mode::AfterNumber => {
                if b.is_ascii_digit() {
                    return true;
                }
                // A terminator ends the number, then acts on the container.
                self.mode = Mode::ExpectCommaOrClose;
                if self.stack.is_empty() {
                    return false;
                }
                self.feed(b)
            }
            Mode::InString => {
                if b == b'"' {
                    self.value_done();
                    true
                } else {
                    is_string_char(b)
                }
            }
            Mode::InKey => {
                if b == b'"' {
                    self.mode = Mode::ExpectColon;
                    true
                } else {
                    is_string_char(b)
                }
            }
            Mode::InLiteral(lit, pos) => {
                if pos < lit.len() && b == lit[pos] {
                    if pos + 1 == lit.len() {
                        self.value_done();
                    } else {
                        self.mode = Mode::InLiteral(lit, pos + 1);
                    }
                    true
                } else {
                    false
                }
            }
            Mode::ExpectColon => {
                if b == b':' {
                    self.mode = Mode::Value;
                    true
                } else {
                    false
                }
            }
            Mode::ExpectKeyOrClose => match b {
                b'"' => {
                    self.mode = Mode::InKey;
                    true
                }
                b'}' => {
                    debug_assert_eq!(self.stack.last(), Some(&b'{'));
                    self.stack.pop();
                    self.value_done();
                    true
                }
                _ => false,
            },
            Mode::ExpectKey => {
                if b == b'"' {
                    self.mode = Mode::InKey;
                    true
                } else {
                    false
                }
            }
            Mode::ExpectCommaOrClose => match (b, self.stack.last()) {
                (b',', Some(b'{')) => {
                    self.mode = Mode::ExpectKey;
                    true
                }
                (b',', Some(b'[')) => {
                    self.mode = Mode::Value;
                    true
                }
                (b'}', Some(b'{')) | (b']', Some(b'[')) => {
                    self.stack.pop();
                    self.value_done();
                    true
                }
                _ => false,
            },
        }
    }

    fn is_complete(&self) -> bool {
        self.mode == Mode::Done || (self.mode == Mode::AfterNumber && self.stack.is_empty())
    }
}

/// Constrains output to syntactically valid JSON (see module docs for the
/// subset), lifted from bytes to tokens through the vocabulary.
pub struct JsonConstraint {
    pda: JsonPda,
    /// `(token, bytes)` for every candidate token.
    table: Vec<(TokenId, Vec<u8>)>,
}

impl JsonConstraint {
    /// Builds the constraint's token table from a vocabulary (specials are
    /// excluded — the grammar, not EOS, decides when output ends).
    pub fn new(vocab: &Vocab) -> Self {
        let table = (0..vocab.len() as TokenId)
            .filter(|&t| !vocab.is_special(t))
            .map(|t| (t, vocab.bytes(t).to_vec()))
            .filter(|(_, b)| !b.is_empty())
            .collect();
        JsonConstraint {
            pda: JsonPda::new(),
            table,
        }
    }

    fn token_ok(&self, bytes: &[u8]) -> bool {
        let mut pda = self.pda.clone();
        bytes.iter().all(|&b| pda.feed(b))
    }
}

impl Constraint for JsonConstraint {
    fn allowed(&self) -> Vec<TokenId> {
        self.table
            .iter()
            .filter(|(_, bytes)| self.token_ok(bytes))
            .map(|&(t, _)| t)
            .collect()
    }

    fn advance(&mut self, token: TokenId) {
        let bytes = self
            .table
            .iter()
            .find(|&&(t, _)| t == token)
            .map(|(_, b)| b.clone())
            .expect("token not in vocabulary");
        for b in bytes {
            assert!(self.pda.feed(b), "token was not allowed by the grammar");
        }
    }

    fn is_complete(&self) -> bool {
        self.pda.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepts(s: &str) -> bool {
        let mut pda = JsonPda::new();
        s.bytes().all(|b| pda.feed(b)) && pda.is_complete()
    }

    #[test]
    fn pda_accepts_valid_json() {
        for s in [
            "{}",
            "[]",
            "123",
            "-5",
            "\"hi\"",
            "true",
            "false",
            "null",
            "{\"a\":1}",
            "{\"a\":1,\"b\":\"x\"}",
            "[1,2,3]",
            "{\"a\":[1,{\"b\":null}],\"c\":true}",
            "[[],{}]",
        ] {
            assert!(accepts(s), "should accept {s}");
        }
    }

    #[test]
    fn pda_rejects_invalid_json() {
        for s in [
            "{", "}", "{\"a\"}", "{\"a\":}", "[1,]", "{,}", "tru", "truex", "--1", "{\"a\":1",
            "\"unterminated", "12a", "{\"a\" 1}", "[1 2]",
        ] {
            assert!(!accepts(s), "should reject {s:?}");
        }
    }

    #[test]
    fn pda_rejects_trailing_garbage() {
        let mut pda = JsonPda::new();
        for b in b"{}" {
            assert!(pda.feed(*b));
        }
        assert!(pda.is_complete());
        assert!(!pda.feed(b'x'));
    }

    #[test]
    fn trie_narrows_and_completes() {
        // Sequences: [1,2,3] and [1,5].
        let mut c = TrieConstraint::new(vec![vec![1, 2, 3], vec![1, 5]]);
        assert_eq!(c.allowed(), vec![1]);
        c.advance(1);
        assert_eq!(c.allowed(), vec![2, 5]);
        assert!(!c.is_complete());
        c.advance(5);
        assert!(c.is_complete());
    }

    #[test]
    fn trie_full_path() {
        let mut c = TrieConstraint::new(vec![vec![1, 2, 3], vec![1, 5]]);
        c.advance(1);
        c.advance(2);
        assert_eq!(c.allowed(), vec![3]);
        assert!(!c.is_complete());
        c.advance(3);
        assert!(c.is_complete());
    }

    #[test]
    #[should_panic(expected = "not allowed")]
    fn trie_rejects_bad_token() {
        let mut c = TrieConstraint::new(vec![vec![1, 2]]);
        c.advance(9);
    }

    #[test]
    fn json_constraint_over_byte_vocab() {
        // A pure-byte vocabulary (no merges): every byte is a token.
        let bpe = symphony_tokenizer::Bpe::train("", 0);
        let mut c = JsonConstraint::new(bpe.vocab());
        // Initially: digits, quote, braces, brackets, minus, t/f/n.
        let allowed = c.allowed();
        assert!(allowed.contains(&(b'{' as TokenId)));
        assert!(allowed.contains(&(b'7' as TokenId)));
        assert!(allowed.contains(&(b'"' as TokenId)));
        assert!(!allowed.contains(&(b'}' as TokenId)), "bare close invalid");
        assert!(!allowed.contains(&(b'x' as TokenId)));
        // Drive through {"a":1}.
        for b in b"{\"a\":1}" {
            assert!(c.allowed().contains(&(*b as TokenId)), "byte {}", *b as char);
            c.advance(*b as TokenId);
        }
        assert!(c.is_complete());
        assert!(c.allowed().is_empty(), "nothing allowed after completion");
    }

    #[test]
    fn json_constraint_uses_merged_tokens() {
        // Train a tokenizer whose merges include JSON fragments and verify
        // multi-byte tokens are permitted when grammatical.
        let bpe = symphony_tokenizer::Bpe::train(
            "{\"key\":123} {\"key\":456} {\"key\":789}",
            50,
        );
        let c = JsonConstraint::new(bpe.vocab());
        let allowed = c.allowed();
        // Some multi-byte token starting with '{' should be allowed.
        let has_multibyte = allowed
            .iter()
            .any(|&t| bpe.vocab().bytes(t).len() > 1 && bpe.vocab().bytes(t)[0] == b'{');
        assert!(has_multibyte, "expected merged JSON-prefix tokens");
    }
}
