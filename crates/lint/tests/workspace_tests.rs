//! The linter over this repository: the tree is clean under every rule,
//! and docs/LINTS.md renders the same retired mechanisms as the `r1`
//! table.

use std::collections::BTreeSet;
use std::path::Path;

use symphony_lint::{lint_workspace, Config, Retired, RETIRED};

const LINTS: &str = include_str!("../../../docs/LINTS.md");

/// `cargo test` runs the rules CI's lint job runs, so a re-added retired
/// name or a panic on a kernel path fails tier 1 too.
#[test]
fn the_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = Config::load(&root).expect("lint.toml parses");
    let violations = lint_workspace(&root, &cfg).expect("the tree reads");
    let report: Vec<String> = violations.iter().map(|v| v.render()).collect();
    assert!(violations.is_empty(), "{}", report.join("\n"));
}

/// The `### ` headings of the "Retired mechanisms" section, each with the
/// text under it.
fn documented() -> Vec<(&'static str, &'static str)> {
    let section = LINTS
        .split("\n## Retired mechanisms\n")
        .nth(1)
        .expect("the section is there");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .split("\n### ")
        .skip(1)
        .map(|row| row.split_once('\n').unwrap_or((row, "")))
        .collect()
}

#[test]
fn the_retired_section_renders_every_row_and_no_other() {
    let documented = documented();
    let heading = |row: &Retired| format!("{} ({})", row.name, row.commit);
    let in_table: BTreeSet<String> = RETIRED.iter().map(heading).collect();
    let in_doc: BTreeSet<String> = documented.iter().map(|(h, _)| h.to_string()).collect();
    assert_eq!(
        in_doc.len(),
        documented.len(),
        "a row is documented twice: {documented:?}"
    );
    let missing: Vec<_> = in_table.difference(&in_doc).collect();
    let stale: Vec<_> = in_doc.difference(&in_table).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "in RETIRED but not in docs/LINTS.md: {missing:?}; \
         in docs/LINTS.md but not in RETIRED: {stale:?}"
    );
    for row in RETIRED {
        let (_, text) = documented
            .iter()
            .find(|(h, _)| *h == heading(row))
            .expect("checked above");
        for bans in row.bans {
            for needle in bans
                .strings
                .iter()
                .map(|b| b.text())
                .chain(bans.under.iter().copied())
            {
                assert!(
                    text.contains(&format!("`{needle}`")),
                    "docs/LINTS.md's \"{}\" does not name `{needle}`",
                    row.name
                );
            }
        }
    }
}

/// `symphony-lint --explain r1 | head`: a reader that closes the pipe
/// before the report is written ends the run quietly, exit 0, not with a
/// panic from a failed `println!`.
#[test]
fn a_closed_stdout_ends_the_report_quietly() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_symphony-lint"))
        .args(["--explain", "r1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    // The read end goes before the child has written a byte.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("the binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
