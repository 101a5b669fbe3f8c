//! The token trie and the JSON automaton of `decode_constrained.lip`.

#[cfg(test)]
mod tests {
    use super::super::{run, run_with};
    use crate::lip::json_table;
    use symphony_tokenizer::Bpe;

    /// 1 for each document the automaton accepts whole, else 0.
    fn verdicts(docs: &[&str]) -> String {
        let quoted: Vec<String> = docs
            .iter()
            .map(|s| format!("\"{}\"", s.replace('"', "\\\"")))
            .collect();
        run(&format!(
            "let out = \"\";
             for doc in [{}] {{
                 let st = json_feed_text([0, \"\", \"\", 0], doc);
                 if (st != nil && json_complete(st)) {{ out = out + \"1\"; }}
                 else {{ out = out + \"0\"; }}
             }}
             emit(out);",
            quoted.join(", ")
        ))
    }

    #[test]
    fn pda_accepts_valid_json() {
        let docs = [
            "{}", "[]", "123", "-5", "\"hi\"", "true", "false", "null", "{\"a\":1}",
            "{\"a\":1,\"b\":\"x\"}", "[1,2,3]", "{\"a\":[1,{\"b\":null}],\"c\":true}", "[[],{}]",
        ];
        assert_eq!(verdicts(&docs), "1".repeat(docs.len()));
    }

    #[test]
    fn pda_rejects_invalid_json() {
        let docs = [
            "{", "}", "{\"a\"}", "{\"a\":}", "[1,]", "{,}", "tru", "truex", "--1", "{\"a\":1",
            "\"unterminated", "12a", "{\"a\" 1}", "[1 2]",
        ];
        assert_eq!(verdicts(&docs), "0".repeat(docs.len()));
    }

    #[test]
    fn pda_rejects_trailing_garbage() {
        let out = run("let st = json_feed_text([0, \"\", \"\", 0], \"{}\");
             emit(str(json_complete(st)) + \" \" + str(json_feed(st, \"x\") == nil));");
        assert_eq!(out, "true true");
    }

    /// The JSON constraint over `vocab` driven through `doc` a token at a
    /// time: the tokens allowed first, whether each of `doc`'s tokens was
    /// allowed when it came, whether the grammar completed, and how many
    /// tokens it allows after.
    fn drive(vocab: &symphony_tokenizer::Vocab, doc: &[u32]) -> String {
        let doc: Vec<String> = doc.iter().map(u32::to_string).collect();
        run_with(
            &format!(
                "let c = json(split(args(), \"\\n\"));
                 let first = constraint_allowed(\"json\", c);
                 let fits = true;
                 for t in [{}] {{
                     fits = fits && contains(constraint_allowed(\"json\", c), t);
                     c = constraint_advance(\"json\", c, t);
                 }}
                 emit(join_str(first, \",\") + \"|\" + str(fits) + \"|\"
                     + str(constraint_complete(\"json\", c)) + \"|\"
                     + str(len(constraint_allowed(\"json\", c))));",
                doc.join(", ")
            ),
            &json_table(vocab).join("\n"),
        )
    }

    #[test]
    fn json_constraint_over_byte_vocab() {
        // A pure-byte vocabulary (no merges): every byte is a token.
        let bpe = Bpe::train("", 0);
        let doc: Vec<u32> = b"{\"a\":1}".iter().map(|&b| u32::from(b)).collect();
        let out = drive(bpe.vocab(), &doc);
        let parts: Vec<&str> = out.split('|').collect();
        let first: Vec<u32> = parts[0].split(',').map(|t| t.parse().unwrap()).collect();
        for ok in [b'{', b'7', b'"'] {
            assert!(first.contains(&u32::from(ok)), "{} allowed first", ok as char);
        }
        for bad in [b'}', b'x'] {
            assert!(!first.contains(&u32::from(bad)), "{} not allowed first", bad as char);
        }
        assert_eq!(parts[1..], ["true", "true", "0"], "{out}");
    }

    #[test]
    fn json_constraint_uses_merged_tokens() {
        // Merges that include JSON fragments: a multi-byte token opening
        // an object must be allowed first.
        let bpe = Bpe::train("{\"key\":123} {\"key\":456} {\"key\":789}", 50);
        let out = drive(bpe.vocab(), &[]);
        let first = out.split('|').next().unwrap();
        let merged = first
            .split(',')
            .map(|t| bpe.vocab().bytes(t.parse().unwrap()))
            .any(|bytes| bytes.len() > 1 && bytes[0] == b'{');
        assert!(merged, "expected a merged JSON-prefix token in {first}");
    }

    /// The trie over [1, 2, 3] and [1, 5] advanced by `path`: the allowed
    /// tokens before each step and after the last, and completion.
    fn trie_walk(path: &[u32]) -> String {
        let path: Vec<String> = path.iter().map(u32::to_string).collect();
        run(&format!(
            "let c = trie([[1, 2, 3], [1, 5]]);
             let out = \"\";
             for t in [{}] {{
                 out = out + join_str(constraint_allowed(\"trie\", c), \",\") + \" \";
                 c = constraint_advance(\"trie\", c, t);
             }}
             emit(out + join_str(constraint_allowed(\"trie\", c), \",\") + \" \"
                 + str(constraint_complete(\"trie\", c)));",
            path.join(", ")
        ))
    }

    #[test]
    fn trie_narrows_and_completes() {
        assert_eq!(trie_walk(&[]), "1 false");
        assert_eq!(trie_walk(&[1]), "1 2,5 false");
        assert_eq!(trie_walk(&[1, 5]), "1 2,5  true");
    }

    #[test]
    fn trie_full_path() {
        assert_eq!(trie_walk(&[1, 2]), "1 2,5 3 false");
        assert_eq!(trie_walk(&[1, 2, 3]), "1 2,5 3  true");
    }

    #[test]
    #[should_panic(expected = "not allowed")]
    fn trie_rejects_bad_token() {
        trie_walk(&[9]);
    }
}
