//! A lightweight Rust source sanitizer: blanks out comments, string
//! literals and char literals so the rule matchers only ever see real
//! code. This is the "tokenizer" the lint pass is built on — it is *not*
//! a parser (no `syn`, per the vendored-only dependency policy), but it is
//! exact about the lexical forms that matter for false positives:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments,
//! * plain strings with escapes, raw strings (`r"…"`, `r#"…"#`, any hash
//!   depth), byte strings (`b"…"`, `br#"…"#`),
//! * char literals vs. lifetimes (`'a'` vs `&'a str`),
//!
//! The output has exactly the same shape as the input — every blanked
//! character becomes a space, newlines are preserved — so `file:line`
//! positions computed on the sanitized text are valid for the original.

/// Lexer state for [`sanitize`].
enum State {
    Code,
    LineComment,
    /// Nested block comments: Rust allows `/* /* */ */`.
    BlockComment(u32),
    Str,
    /// Raw string terminated by `"` followed by this many `#`s.
    RawStr(u32),
    CharLit,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Returns `src` with comments and string/char literal *contents* replaced
/// by spaces (newlines kept), so pattern matches only hit code.
pub fn sanitize(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut state = State::Code;
    let mut i = 0usize;
    // Pushes a blanked version of `c` (spaces preserve column positions).
    fn blank(out: &mut String, c: char) {
        out.push(if c == '\n' { '\n' } else { ' ' });
    }
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    blank(&mut out, c);
                    blank(&mut out, '/');
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    blank(&mut out, c);
                    blank(&mut out, '*');
                    i += 2;
                }
                '"' => {
                    // Raw/byte-string prefixes were consumed below, so a
                    // bare quote here is a plain string.
                    state = State::Str;
                    out.push(c);
                    i += 1;
                }
                'r' | 'b' => {
                    let prev_ident = i > 0 && is_ident(chars[i - 1]);
                    // Candidate prefixes: r", r#", b", br", br#", rb is not
                    // a thing — only `br`. Scan: optional second prefix
                    // letter, then hashes, then a quote.
                    let mut j = i + 1;
                    if !prev_ident && c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let raw = c == 'r' || chars.get(i + 1) == Some(&'r');
                    if !prev_ident
                        && chars.get(j) == Some(&'"')
                        && (raw || hashes == 0)
                    {
                        // Emit the prefix and the opening quote verbatim.
                        for &p in &chars[i..=j] {
                            out.push(p);
                        }
                        i = j + 1;
                        state = if raw { State::RawStr(hashes) } else { State::Str };
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Disambiguate char literal from lifetime: `'x'` is a
                    // literal, `'a` (not followed by a closing quote) is a
                    // lifetime label and stays code.
                    let is_lifetime = match next {
                        Some('\\') => false,
                        Some(n) if is_ident(n) => chars.get(i + 2) != Some(&'\''),
                        _ => false,
                    };
                    out.push(c);
                    i += 1;
                    if !is_lifetime {
                        state = State::CharLit;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                }
                blank(&mut out, c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    blank(&mut out, c);
                    blank(&mut out, '*');
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    blank(&mut out, c);
                    blank(&mut out, '/');
                    i += 2;
                } else {
                    blank(&mut out, c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    blank(&mut out, c);
                    if let Some(n) = next {
                        blank(&mut out, n);
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    out.push(c);
                    state = State::Code;
                    i += 1;
                } else {
                    blank(&mut out, c);
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        out.push(c);
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        i += 1 + hashes as usize;
                        state = State::Code;
                        continue;
                    }
                }
                blank(&mut out, c);
                i += 1;
            }
            State::CharLit => {
                if c == '\\' {
                    blank(&mut out, c);
                    if let Some(n) = next {
                        blank(&mut out, n);
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '\'' {
                    out.push(c);
                    state = State::Code;
                    i += 1;
                } else {
                    blank(&mut out, c);
                    i += 1;
                }
            }
        }
    }
    out
}

/// Per-line view of a sanitized file with test-region classification.
pub struct Lines {
    /// Sanitized line contents (no trailing newline).
    pub code: Vec<String>,
    /// `true` for lines inside `#[cfg(test)]` / `#[test]` regions.
    pub in_test: Vec<bool>,
}

/// Splits sanitized text into lines and marks `#[cfg(test)]` modules and
/// `#[test]` functions. The heuristic: a test attribute arms the tracker,
/// the next `{` opens the region, and the matching `}` closes it. This
/// intentionally errs on the side of *treating more code as non-test* only
/// when attributes are exotic (e.g. a braceless `#[cfg(test)] use …;`
/// latches onto the next block) — in that case extra code is *skipped*,
/// never falsely flagged, and the repo's tests use the plain
/// `#[cfg(test)] mod tests { … }` shape this handles exactly.
pub fn classify(sanitized: &str) -> Lines {
    let code: Vec<String> = sanitized.lines().map(str::to_string).collect();
    let mut in_test = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut armed = false;
    // Depth *outside* the innermost open test region, if any.
    let mut test_exit_depth: Option<i64> = None;
    for (idx, line) in code.iter().enumerate() {
        let trimmed = line.trim();
        if test_exit_depth.is_none()
            && (trimmed.contains("#[cfg(test)]")
                || trimmed.contains("#[test]")
                || trimmed.contains("#[cfg(all(test")
                || trimmed.contains("#[cfg(any(test"))
        {
            armed = true;
        }
        if test_exit_depth.is_some() || armed {
            in_test[idx] = true;
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    if armed && test_exit_depth.is_none() {
                        test_exit_depth = Some(depth);
                        armed = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_exit_depth == Some(depth) {
                        test_exit_depth = None;
                    }
                }
                _ => {}
            }
        }
    }
    Lines { code, in_test }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_comments() {
        let s = sanitize("let x = 1; // Instant::now()\nlet y = 2;");
        assert!(!s.contains("Instant"));
        assert!(s.contains("let y = 2;"));
    }

    #[test]
    fn blanks_nested_block_comments() {
        let s = sanitize("a /* outer /* inner */ still */ b");
        assert!(!s.contains("inner"));
        assert!(!s.contains("still"));
        assert!(s.starts_with('a'));
        assert!(s.trim_end().ends_with('b'));
    }

    #[test]
    fn blanks_strings_and_raw_strings() {
        let s = sanitize(r##"let a = "panic!"; let b = r#"unwrap()"#; c"##);
        assert!(!s.contains("panic"));
        assert!(!s.contains("unwrap"));
        assert!(s.contains("let a ="));
        assert!(s.trim_end().ends_with('c'));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let s = sanitize("fn f<'a>(x: &'a str) { let c = 'z'; let q = '\"'; }");
        // Lifetimes survive; char contents are blanked.
        assert!(s.contains("<'a>"));
        assert!(s.contains("&'a str"));
        assert!(!s.contains('z'), "char literal content blanked: {s}");
    }

    #[test]
    fn preserves_line_structure() {
        let src = "a\n\"two\nlines\"\nb\n";
        let s = sanitize(src);
        assert_eq!(src.lines().count(), s.lines().count());
    }

    #[test]
    fn classify_marks_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let l = classify(&sanitize(src));
        assert!(!l.in_test[0]);
        assert!(l.in_test[1] && l.in_test[2] && l.in_test[3] && l.in_test[4]);
        assert!(!l.in_test[5]);
    }

    #[test]
    fn classify_marks_test_fn() {
        let src = "#[test]\nfn t() {\n  x.unwrap();\n}\nfn real() {}\n";
        let l = classify(&sanitize(src));
        assert!(l.in_test[2]);
        assert!(!l.in_test[4]);
    }
}
