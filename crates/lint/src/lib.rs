//! `symphony-lint`: determinism & kernel-safety static analysis for the
//! Symphony workspace.
//!
//! The whole evidence chain of this repository — byte-identical golden
//! traces, same-seed chaos determinism, every number in EXPERIMENTS.md —
//! rests on two invariants that ordinary tests cannot economically cover:
//! the simulation must be *strictly deterministic*, and the kernel must
//! *never panic on a syscall path*. This crate makes both machine-checked
//! properties. It walks every workspace `.rs` file with a lightweight,
//! string/char/comment-aware tokenizer (see [`sanitize`]) — no `syn`, per
//! the vendored-only `third_party/` policy — and enforces nine rules:
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `d1` | no wall-clock time (`Instant::now`, `SystemTime`) outside an allowlist |
//! | `d2` | no ambient RNG (`thread_rng`, `rand::random`, `RandomState`) |
//! | `d3` | no `HashMap`/`HashSet` in deterministic crates (iteration order!) |
//! | `k1` | no `unwrap`/`expect`/`panic!` on kernel paths — typed `SysError`s |
//! | `o1` | no `println!`/`eprintln!` in library crates |
//! | `o2` | every telemetry span `*Enter`/`*Begin` has a `*Exit`/`*End` twin |
//! | `f1` | no file opens/overwrites/renames/truncations outside `sim::seglog` |
//! | `u1` | no `pub fn` without a caller outside the tests (whole workspace) |
//! | `r1` | no retired mechanism comes back: the `RETIRED` table's banned strings |
//!
//! Violations can be suppressed inline with
//! `// lint:allow(rule-id): reason` (the reason is mandatory) or by path
//! prefix in `lint.toml`, except `r1`'s: it reads raw lines of every file
//! under its rows' scopes and honours neither. See `docs/LINTS.md` for the
//! full catalogue.

mod config;
mod rules;
mod sanitize;
mod unused;

pub use config::Config;
pub use rules::{explain, Ban, Bans, Retired, Rule, ALL_RULES, RETIRED};
pub use sanitize::{classify, sanitize};

use std::path::Path;

/// One finding, anchored to a workspace-relative `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Violation {
    /// Renders the human-readable one-line-plus-snippet form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message,
            self.snippet
        )
    }
}

/// Renders violations as a JSON document: an object with a `violations`
/// array and a `count`, stable field order, parseable by `serde_json`.
pub fn render_json(violations: &[Violation]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("{\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
            v.rule.id(),
            esc(&v.path),
            v.line,
            esc(&v.message),
            esc(&v.snippet)
        ));
    }
    if !violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", violations.len()));
    out
}

/// Lints one file's text with the per-file rules (every rule but `u1`,
/// which needs the whole workspace: see [`lint_sources`]). `path` must be
/// workspace-relative and `/`-separated — rule applicability
/// (deterministic crates, kernel paths, binaries vs. libraries, test
/// directories) is derived from it. `r1` reads any file in its scopes;
/// the other rules read `.rs` files that `cfg` does not skip.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    // No skip, allow or inline suppression reaches r1: a retired
    // mechanism comes back only by deleting its row.
    let mut out = rules::check_retired(path, src);
    if path.ends_with(".rs") && !cfg.is_skipped(path) {
        let lines = classify(&sanitize(src));
        let raw_lines: Vec<&str> = src.lines().collect();
        for rule in ALL_RULES {
            if !rule.applies_to(path) || cfg.is_allowed(*rule, path) {
                continue;
            }
            for v in rules::check(*rule, path, &lines) {
                report(v, &raw_lines, &mut out);
            }
        }
    }
    out.sort_by(|a, b| (a.line, a.rule.id()).cmp(&(b.line, b.rule.id())));
    out
}

/// Lints a set of `(workspace-relative path, source)` files as one
/// workspace: the per-file rules on each, then `u1` across all of them.
/// Results are sorted by `(path, line, rule)`.
pub fn lint_sources(files: &[(String, String)], cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    for (path, src) in files {
        out.extend(lint_source(path, src, cfg));
    }
    let files: Vec<_> = files
        .iter()
        .filter(|(path, _)| path.ends_with(".rs") && !cfg.is_skipped(path))
        .collect();
    let lines: Vec<_> = files
        .iter()
        .map(|(_, src)| classify(&sanitize(src)))
        .collect();
    let sources: Vec<_> = files
        .iter()
        .zip(&lines)
        .map(|((path, _), l)| (path.as_str(), l))
        .collect();
    for v in unused::check(&sources) {
        if cfg.is_allowed(Rule::U1, &v.path) {
            continue;
        }
        let Some((_, src)) = files.iter().find(|(path, _)| *path == v.path) else {
            continue;
        };
        report(v, &src.lines().collect::<Vec<_>>(), &mut out);
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.id()).cmp(&(b.path.as_str(), b.line, b.rule.id()))
    });
    out
}

/// Adds `v` to `out` unless an inline `lint:allow` with a reason covers it.
fn report(mut v: Violation, raw_lines: &[&str], out: &mut Vec<Violation>) {
    // Rules match on sanitized text; report the raw source line.
    if let Some(raw) = raw_lines.get(v.line.saturating_sub(1)) {
        v.snippet = raw.trim().to_string();
    }
    let rule = v.rule;
    match suppression_for(raw_lines, v.line, rule) {
        Suppression::None => out.push(v),
        Suppression::Allowed => {}
        Suppression::MissingReason(at) => {
            v.message = format!(
                "suppression for `{}` on line {at} is missing its reason \
                 (write `lint:allow({}): <why this is safe>`); the \
                 violation stands: {}",
                rule.id(),
                rule.id(),
                v.message
            );
            out.push(v);
        }
    }
}

/// Outcome of looking for an inline `lint:allow` covering a violation.
enum Suppression {
    None,
    Allowed,
    /// A matching `lint:allow` exists on this line but has no reason.
    MissingReason(usize),
}

/// Looks for `// lint:allow(rule[, rule…]): reason` on the violation line
/// or the line directly above it.
fn suppression_for(raw_lines: &[&str], line: usize, rule: Rule) -> Suppression {
    for candidate in [line, line.saturating_sub(1)] {
        if candidate == 0 || candidate > raw_lines.len() {
            continue;
        }
        let text = raw_lines[candidate - 1];
        let Some(idx) = text.find("lint:allow(") else {
            continue;
        };
        let rest = &text[idx + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let ids = &rest[..close];
        let matches = ids
            .split(',')
            .map(str::trim)
            .any(|id| id.eq_ignore_ascii_case(rule.id()) || id == "all");
        if !matches {
            continue;
        }
        let after = &rest[close + 1..];
        let reason_ok = after
            .strip_prefix(':')
            .map(str::trim)
            .is_some_and(|r| !r.is_empty());
        return if reason_ok {
            Suppression::Allowed
        } else {
            Suppression::MissingReason(candidate)
        };
    }
    Suppression::None
}

/// Walks the workspace at `root` and lints every `.rs` file, and every
/// other file in `r1`'s scopes ([`lint_sources`]). Two runs over the same
/// tree render byte-identical reports.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Violation>> {
    let mut paths = Vec::new();
    collect_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let src = if rel.ends_with(".rs") {
            std::fs::read_to_string(root.join(&rel))?
        } else if Rule::R1.applies_to(&rel) {
            // As `grep` reads it: a byte that is not UTF-8 cannot be part
            // of a banned string.
            String::from_utf8_lossy(&std::fs::read(root.join(&rel))?).into_owned()
        } else {
            continue;
        };
        files.push((rel, src));
    }
    Ok(lint_sources(&files, cfg))
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // Hard skips: vendored deps, build output, VCS metadata.
            if matches!(name, "target" | "third_party" | ".git" | ".github") {
                continue;
            }
            collect_files(root, &path, out)?;
        } else {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}
