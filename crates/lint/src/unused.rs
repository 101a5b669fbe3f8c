//! `u1`: a `pub fn` that nothing outside the tests names.
//!
//! Unlike the per-file rules, whether a function has a caller is a
//! property of the whole workspace, so `u1` is a second pass over every
//! file [`crate::lint_workspace`] read. It is lexical, like the rest of the
//! linter: a `pub fn` defined in `crates/*/src` (outside test regions) is
//! reported when its name appears as a whole word in no non-test source
//! except its own definition. Non-test source is `crates/*/src` outside
//! test regions (binaries included), the crates' build scripts, `src/`,
//! `examples/` and `benchmark/src`; comments and strings are blanked by the sanitizer, so
//! neither counts. The known limit: a dead method that shares its name with
//! a live one (or with any other word of code) is not reported.

use std::collections::BTreeMap;

use crate::rules::Rule;
use crate::sanitize::Lines;
use crate::Violation;

/// Where `u1` looks for definitions: a workspace crate's `src/`.
fn defines(path: &str) -> bool {
    path.starts_with("crates/") && path.split('/').nth(2) == Some("src")
}

/// Where a mention counts as a caller. A crate's build script is non-test
/// code too: what it calls from the crate's `src/` (by `#[path]`) runs.
fn calls_from(path: &str) -> bool {
    defines(path)
        || (path.starts_with("crates/") && path.ends_with("/build.rs"))
        || path.starts_with("src/")
        || path.starts_with("examples/")
        || path.starts_with("benchmark/src/")
}

/// The identifiers of one sanitized line, with their byte offsets.
fn words(line: &str) -> impl Iterator<Item = (usize, &str)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    line.char_indices()
        .filter(move |&(i, c)| is_ident(c) && !line[..i].ends_with(is_ident))
        .map(move |(i, _)| {
            let end = line[i..]
                .find(|c: char| !is_ident(c))
                .map_or(line.len(), |n| i + n);
            (i, &line[i..end])
        })
}

/// The name a `pub fn` (or `pub const|async|unsafe fn`) on this line
/// defines. `pub(crate) fn` is not public, and `pub fn $name` in a macro
/// is a template, not a definition.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut it = words(line).skip_while(|&(_, w)| w != "pub");
    let (pub_at, _) = it.next()?;
    if line[pub_at + 3..].trim_start().starts_with('(') {
        return None;
    }
    let (_, mut w) = it.next()?;
    while matches!(w, "const" | "async" | "unsafe") {
        w = it.next()?.1;
    }
    if w != "fn" {
        return None;
    }
    let (at, name) = it.next()?;
    (!line[..at].ends_with('$')).then_some(name)
}

/// The lines of a file outside its test regions, with their indices.
fn non_test(lines: &Lines) -> impl Iterator<Item = (usize, &str)> {
    lines
        .code
        .iter()
        .enumerate()
        .filter(|&(i, _)| !lines.in_test[i])
        .map(|(i, c)| (i, c.as_str()))
}

/// Runs `u1` over the sanitized, classified files of the workspace.
pub(crate) fn check(files: &[(&str, &Lines)]) -> Vec<Violation> {
    let mut mentions: BTreeMap<&str, usize> = BTreeMap::new();
    for (path, lines) in files {
        if calls_from(path) {
            for (_, code) in non_test(lines) {
                for (_, w) in words(code) {
                    *mentions.entry(w).or_default() += 1;
                }
            }
        }
    }
    let mut out = Vec::new();
    for (path, lines) in files {
        if !defines(path) {
            continue;
        }
        for (i, code) in non_test(lines) {
            let Some(name) = pub_fn_name(code) else {
                continue;
            };
            // The definition itself is one mention.
            if mentions.get(name).copied().unwrap_or(0) <= 1 {
                out.push(Violation {
                    rule: Rule::U1,
                    path: path.to_string(),
                    line: i + 1,
                    message: format!(
                        "`pub fn {name}` has no caller outside the tests: delete \
                         it, or say why it stays with `lint:allow(u1): reason`"
                    ),
                    snippet: code.trim().to_string(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_name_a_public_fn_defines() {
        assert_eq!(pub_fn_name("    pub fn spawn(&mut self) {"), Some("spawn"));
        assert_eq!(pub_fn_name("pub const fn new() -> Self {"), Some("new"));
        assert_eq!(pub_fn_name("pub unsafe fn raw<T>()"), Some("raw"));
        assert_eq!(pub_fn_name("pub(crate) fn hidden()"), None);
        assert_eq!(pub_fn_name("fn private()"), None);
        assert_eq!(pub_fn_name("pub struct Foo;"), None);
        assert_eq!(pub_fn_name("pub fn $name(&self) {"), None);
    }

    #[test]
    fn words_are_whole_identifiers() {
        let w: Vec<_> = words("a.b_c(d2, xé)").map(|(_, w)| w).collect();
        assert_eq!(w, ["a", "b_c", "d2", "xé"]);
    }
}
