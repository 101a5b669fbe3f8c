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
//! the vendored-only `third_party/` policy — and enforces seven rules:
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
//!
//! Violations can be suppressed inline with
//! `// lint:allow(rule-id): reason` (the reason is mandatory) or by path
//! prefix in `lint.toml`. See `docs/LINTS.md` for the full catalogue.

mod config;
mod rules;
mod sanitize;

pub use config::Config;
pub use rules::{explain, Rule, ALL_RULES};
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

/// Lints one file's source text. `path` must be workspace-relative and
/// `/`-separated — rule applicability (deterministic crates, kernel paths,
/// binaries vs. libraries, test directories) is derived from it.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    if cfg.is_skipped(path) {
        return Vec::new();
    }
    let sanitized = sanitize(src);
    let lines = classify(&sanitized);
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for rule in ALL_RULES {
        if !rule.applies_to(path) || cfg.is_allowed(*rule, path) {
            continue;
        }
        for mut v in rules::check(*rule, path, &lines) {
            // Rules match on sanitized text; report the raw source line.
            if let Some(raw) = raw_lines.get(v.line.saturating_sub(1)) {
                v.snippet = raw.trim().to_string();
            }
            match suppression_for(&raw_lines, v.line, *rule) {
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
    }
    out.sort_by(|a, b| (a.line, a.rule.id()).cmp(&(b.line, b.rule.id())));
    out
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

/// Walks the workspace at `root` and lints every `.rs` file outside the
/// configured skip list. Results are sorted by `(path, line, rule)` so two
/// runs over the same tree render byte-identical reports.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        out.extend(lint_source(&rel, &src, cfg));
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.id()).cmp(&(b.path.as_str(), b.line, b.rule.id()))
    });
    Ok(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
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
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
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
