//! `symphony-lint` CLI: walk the workspace, enforce the determinism &
//! kernel-safety rules, report violations.
//!
//! ```text
//! cargo run -p symphony-lint                  # human-readable report
//! cargo run -p symphony-lint -- --format json
//! cargo run -p symphony-lint -- --explain k1
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

use symphony_lint::{explain, lint_workspace, render_json, Config, Rule, ALL_RULES};

struct Args {
    json: bool,
    root: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        root: None,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("human") => args.json = false,
                other => return Err(format!("--format expects json|human, got {other:?}")),
            },
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root expects a directory")?,
                ))
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain expects a rule id")?)
            }
            "--help" | "-h" => {
                println!(
                    "symphony-lint: determinism & kernel-safety checks\n\
                     \n\
                     USAGE: symphony-lint [--format json|human] [--root DIR] [--explain RULE]\n\
                     \n\
                     Rules: d1 (wall clock) d2 (ambient RNG) d3 (hash iteration)\n\
                     \x20      k1 (kernel panics) o1 (library printing) o2 (span pairs)\n\
                     \x20      f1 (durable writes)\n\
                     \n\
                     Suppress inline with `// lint:allow(rule): reason` (reason\n\
                     mandatory) or by path prefix in lint.toml. `--explain <rule>`\n\
                     prints the rationale. See docs/LINTS.md."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Finds the workspace root: the nearest ancestor of the current directory
/// whose `Cargo.toml` declares `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory \
                        (pass --root)"
                .into());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("symphony-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(id) = args.explain {
        return match Rule::parse(&id) {
            Some(rule) => {
                println!("{}", explain(rule));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "symphony-lint: unknown rule `{id}` (known: {})",
                    ALL_RULES
                        .iter()
                        .map(|r| r.id())
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                ExitCode::from(2)
            }
        };
    }
    let root = match args.root {
        Some(r) => r,
        None => match find_root() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("symphony-lint: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let cfg = match Config::load(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("symphony-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let violations = match lint_workspace(&root, &cfg) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("symphony-lint: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if args.json {
        print!("{}", render_json(&violations));
    } else {
        for v in &violations {
            println!("{}", v.render());
        }
        if violations.is_empty() {
            println!("symphony-lint: clean ({} rules)", ALL_RULES.len());
        } else {
            println!(
                "symphony-lint: {} violation(s). Fix them, or suppress with \
                 `// lint:allow(rule): reason` / lint.toml. `--explain <rule>` \
                 documents each rule.",
                violations.len()
            );
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
