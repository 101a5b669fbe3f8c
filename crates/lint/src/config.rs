//! `lint.toml` parsing — a deliberately tiny TOML subset, hand-rolled
//! because the workspace vendors no TOML parser. Supported grammar:
//!
//! ```toml
//! # comment
//! [skip]
//! paths = ["third_party/", "target/"]
//!
//! [allow.d1]
//! paths = ["crates/bench/src/exp/exp_recovery.rs"]
//! ```
//!
//! Sections are `[skip]` or `[allow.<rule-id>]`; the only key is `paths`,
//! a single-line array of double-quoted workspace-relative path *prefixes*.
//! Anything else is a hard configuration error — a linter that silently
//! ignores its own config is worse than none.

use crate::rules::Rule;

/// Parsed lint configuration: path-prefix skip list and per-rule allows.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes never linted at all.
    pub skip: Vec<String>,
    /// Per-rule allowed path prefixes.
    pub allow: Vec<(Rule, String)>,
}

impl Config {
    /// Parses `lint.toml` content. Returns a message pinpointing the first
    /// malformed line on error.
    pub fn parse(src: &str) -> Result<Config, String> {
        enum Section {
            None,
            Skip,
            Allow(Rule),
        }
        let mut cfg = Config::default();
        let mut section = Section::None;
        for (i, raw) in src.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = if name == "skip" {
                    Section::Skip
                } else if let Some(id) = name.strip_prefix("allow.") {
                    match Rule::parse(id) {
                        Some(r) => Section::Allow(r),
                        None => {
                            return Err(format!(
                                "lint.toml:{lineno}: unknown rule `{id}` in [allow.*] \
                                 (known: d1 d2 d3 k1 o1 o2 f1)"
                            ))
                        }
                    }
                } else {
                    return Err(format!(
                        "lint.toml:{lineno}: unknown section `[{name}]` \
                         (expected [skip] or [allow.<rule>])"
                    ));
                };
                continue;
            }
            let Some(rhs) = line.strip_prefix("paths").map(str::trim_start) else {
                return Err(format!(
                    "lint.toml:{lineno}: unknown key (only `paths = [\"…\"]` is supported)"
                ));
            };
            let Some(arr) = rhs.strip_prefix('=').map(str::trim) else {
                return Err(format!("lint.toml:{lineno}: expected `paths = [\"…\"]`"));
            };
            let inner = arr
                .strip_prefix('[')
                .and_then(|a| a.strip_suffix(']'))
                .ok_or_else(|| {
                    format!("lint.toml:{lineno}: `paths` must be a single-line array")
                })?;
            for item in split_quoted(inner, lineno)? {
                match section {
                    Section::None => {
                        return Err(format!(
                            "lint.toml:{lineno}: `paths` outside a section"
                        ))
                    }
                    Section::Skip => cfg.skip.push(item),
                    Section::Allow(rule) => cfg.allow.push((rule, item)),
                }
            }
        }
        Ok(cfg)
    }

    /// Loads `lint.toml` from the workspace root; a missing file is an
    /// empty config (inline suppressions still work).
    pub fn load(root: &std::path::Path) -> Result<Config, String> {
        match std::fs::read_to_string(root.join("lint.toml")) {
            Ok(src) => Config::parse(&src),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(format!("lint.toml: {e}")),
        }
    }

    /// Whether the path is excluded from linting entirely.
    pub fn is_skipped(&self, path: &str) -> bool {
        self.skip.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Whether `rule` is allowlisted for this path.
    pub fn is_allowed(&self, rule: Rule, path: &str) -> bool {
        self.allow
            .iter()
            .any(|(r, p)| *r == rule && path.starts_with(p.as_str()))
    }
}

/// Splits `"a", "b"` into its quoted items.
fn split_quoted(inner: &str, lineno: usize) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let unquoted = item
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| {
                format!("lint.toml:{lineno}: array items must be double-quoted strings")
            })?;
        out.push(unquoted.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_skip_and_allow() {
        let cfg = Config::parse(
            "# c\n[skip]\npaths = [\"third_party/\"]\n\n[allow.d1]\npaths = [\"crates/bench/src/exp/exp_recovery.rs\", \"x/\"]\n",
        )
        .unwrap();
        assert!(cfg.is_skipped("third_party/serde/src/lib.rs"));
        assert!(cfg.is_allowed(Rule::D1, "crates/bench/src/exp/exp_recovery.rs"));
        assert!(!cfg.is_allowed(Rule::D2, "crates/bench/src/exp/exp_recovery.rs"));
        assert!(!cfg.is_allowed(Rule::D1, "crates/bench/src/exp/exp_sched.rs"));
        assert!(!cfg.is_allowed(Rule::D1, "crates/core/src/kernel.rs"));
    }

    #[test]
    fn rejects_unknown_rule_and_section() {
        assert!(Config::parse("[allow.zz]\npaths=[\"a\"]").is_err());
        assert!(Config::parse("[wat]\n").is_err());
        assert!(Config::parse("paths = [\"a\"]\n").is_err());
    }
}
