//! The E-series programs as a server receives them: LipScript text from
//! `examples/lipscript/with_prelude/`, after the shared decoding prelude
//! (`decode.lip`), admitted as bodies the kernel steps inline. A program
//! that masks its steps brings `decode_constrained.lip` along in its text,
//! and one that takes a refused `pred` back brings `decode_try.lip`.

use symphony::Body;
use symphony_lipscript::{InterpLimits, LipBody};

/// The decoding loops every program is written against.
const PRELUDE: &str = include_str!("../../../examples/lipscript/with_prelude/decode.lip");

/// `program` after the prelude, with the default interpreter limits.
pub(crate) fn program(program: &str) -> Body {
    program_with(program, InterpLimits::default())
}

/// `program` after the prelude, sandboxed by `limits`. It keeps its text
/// as its image, so a durable admission journals it and recovery rebuilds
/// it from the log (`symphony_lipscript::rebuild`).
pub(crate) fn program_with(program: &str, limits: InterpLimits) -> Body {
    let body = LipBody::parse(&format!("{PRELUDE}{program}"), limits)
        .unwrap_or_else(|e| panic!("an E-series program parses: {e}"));
    Body::Inline(Box::new(body))
}

/// The JSON grammar's token table as `constrained.lip` reads it: a
/// `<token>\t<text>` line per token of `vocab` made only of characters the
/// grammar accepts somewhere (its punctuation and its string alphabet), in
/// token order. Any other token is rejected in every state, so leaving it
/// out changes no mask.
pub fn json_table(vocab: &symphony_tokenizer::Vocab) -> Vec<String> {
    let fits = |b: &u8| b.is_ascii_alphanumeric() || b"{}[]:,\"_ -.".contains(b);
    (0..vocab.len() as u32)
        .filter(|&t| !vocab.is_special(t))
        .map(|t| (t, vocab.bytes(t)))
        .filter(|(_, bytes)| !bytes.is_empty() && bytes.iter().all(fits))
        .map(|(t, bytes)| format!("{t}\t{}", String::from_utf8_lossy(bytes)))
        .collect()
}
