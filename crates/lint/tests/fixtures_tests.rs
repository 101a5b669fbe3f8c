//! Fixture suite: every rule must flag its known-bad snippet, suppressions
//! must behave, allowlists must skip, and the JSON report must round-trip
//! through the workspace `serde_json`.
//!
//! Fixtures live in `tests/fixtures/` (skip-listed in the workspace
//! `lint.toml` so `cargo run -p symphony-lint` stays green) and are linted
//! here via [`lint_source`] under *pseudo-paths* chosen to put each snippet
//! in the rule's scope.

use symphony_lint::{
    lint_source, lint_sources, render_json, Ban, Config, Rule, Violation, RETIRED,
};

fn lint(pseudo_path: &str, src: &str) -> Vec<Violation> {
    lint_source(pseudo_path, src, &Config::default())
}

#[test]
fn d1_flags_wall_clock() {
    let src = include_str!("fixtures/d1_wall_clock.rs");
    let v = lint("crates/model/src/fixture.rs", src);
    assert!(
        v.iter().filter(|v| v.rule == Rule::D1).count() >= 3,
        "Instant::now and both SystemTime uses must fire: {v:?}"
    );
}

#[test]
fn d2_flags_ambient_rng() {
    let src = include_str!("fixtures/d2_ambient_rng.rs");
    let v = lint("crates/sim/src/fixture.rs", src);
    assert!(
        v.iter().filter(|v| v.rule == Rule::D2).count() >= 3,
        "thread_rng, rand::random and RandomState must fire: {v:?}"
    );
}

#[test]
fn d3_flags_hash_collections_in_deterministic_crates_only() {
    let src = include_str!("fixtures/d3_hash_collections.rs");
    let in_det = lint("crates/core/src/fixture.rs", src);
    assert!(
        in_det.iter().filter(|v| v.rule == Rule::D3).count() >= 2,
        "HashMap and HashSet must fire in a deterministic crate: {in_det:?}"
    );
    let outside = lint("crates/workloads/src/fixture.rs", src);
    assert!(
        !outside.iter().any(|v| v.rule == Rule::D3),
        "d3 must not apply outside the deterministic crates: {outside:?}"
    );
}

#[test]
fn k1_flags_kernel_panics_but_not_tests() {
    let src = include_str!("fixtures/k1_kernel_panics.rs");
    let v = lint("crates/core/src/kernel.rs", src);
    let k1: Vec<_> = v.iter().filter(|v| v.rule == Rule::K1).collect();
    assert!(
        k1.len() >= 4,
        "unwrap, expect, panic! and unreachable! must fire: {k1:?}"
    );
    assert!(
        k1.iter().all(|v| !v.snippet.contains("assert_eq!")),
        "the #[cfg(test)] unwrap must be exempt: {k1:?}"
    );
    // The same source outside the kernel paths is out of scope.
    let v = lint("crates/workloads/src/fixture.rs", src);
    assert!(!v.iter().any(|v| v.rule == Rule::K1));
}

/// `impl Kernel` is spread over several files; the rule follows the code.
#[test]
fn k1_covers_every_file_the_kernel_is_written_in() {
    let src = include_str!("fixtures/k1_kernel_panics.rs");
    for path in [
        "crates/core/src/proc.rs",
        "crates/core/src/recovery.rs",
        "crates/core/src/wal.rs",
    ] {
        let v = lint(path, src);
        assert!(
            v.iter()
                .any(|v| v.rule == Rule::K1 && v.snippet.contains("panic!")),
            "a panic! in {path} must be reported: {v:?}"
        );
    }
}

#[test]
fn o1_flags_library_prints_not_binaries() {
    let src = include_str!("fixtures/o1_library_prints.rs");
    let v = lint("crates/model/src/fixture.rs", src);
    assert!(
        v.iter().filter(|v| v.rule == Rule::O1).count() >= 3,
        "println!, eprintln! and dbg! must fire: {v:?}"
    );
    assert!(
        !v.iter().any(|v| v.snippet.contains("_doc")),
        "tokens inside strings/comments must not fire: {v:?}"
    );
    for bin_path in [
        "crates/serve/src/bin/fixture.rs",
        "crates/model/src/main.rs",
        "crates/model/examples/fixture.rs",
    ] {
        let v = lint(bin_path, src);
        assert!(
            !v.iter().any(|v| v.rule == Rule::O1),
            "{bin_path}: binaries own their stdout"
        );
    }
}

#[test]
fn o2_flags_unbalanced_span_constants() {
    let src = include_str!("fixtures/o2_unbalanced_spans.rs");
    let v = lint("crates/telemetry/src/fixture.rs", src);
    let o2: Vec<_> = v.iter().filter(|v| v.rule == Rule::O2).collect();
    assert_eq!(
        o2.len(),
        2,
        "BatchBegin and PredEnter lack twins; SyscallEnter/Exit balance: {o2:?}"
    );
    // Outside the telemetry crate the rule is out of scope.
    let v = lint("crates/core/src/fixture.rs", src);
    assert!(!v.iter().any(|v| v.rule == Rule::O2));
}

#[test]
fn f1_flags_file_writes_outside_the_segment_log() {
    let bad = include_str!("fixtures/f1_raw_file_writes.rs");
    let v = lint("crates/kvfs/src/fixture.rs", bad);
    let f1: Vec<_> = v.iter().filter(|v| v.rule == Rule::F1).collect();
    for pat in [
        "fs::write",
        "OpenOptions",
        "set_len",
        "File::create",
        "fs::rename",
    ] {
        assert!(
            f1.iter().any(|v| v.message.contains(pat)),
            "`{pat}` must fire in a deterministic crate: {f1:?}"
        );
    }
    assert_eq!(f1.len(), 5, "the #[cfg(test)] write is exempt: {f1:?}");
    // The module the rule points everyone at, the report layer and test
    // trees are out of scope.
    for path in [
        "crates/sim/src/seglog.rs",
        "crates/bench/src/report.rs",
        "crates/core/tests/fixture.rs",
    ] {
        let v = lint(path, bad);
        assert!(!v.iter().any(|v| v.rule == Rule::F1), "{path}: {v:?}");
    }
    let good = include_str!("fixtures/f1_seglog_client.rs");
    for path in ["crates/kvfs/src/fixture.rs", "crates/core/src/kernel.rs"] {
        let v = lint(path, good);
        assert!(!v.iter().any(|v| v.rule == Rule::F1), "{path}: {v:?}");
    }
}

#[test]
fn a_deterministic_crates_build_script_is_in_scope() {
    // What the tokenizer's build script learns is compiled into the crate,
    // so it answers to the crate's rules; another crate's does not.
    let writes = include_str!("fixtures/f1_raw_file_writes.rs");
    let hashes = include_str!("fixtures/d3_hash_collections.rs");
    let fired = |path: &str, src: &str, rule: Rule| lint(path, src).iter().any(|v| v.rule == rule);
    assert!(fired("crates/tokenizer/build.rs", writes, Rule::F1));
    assert!(fired("crates/tokenizer/build.rs", hashes, Rule::D3));
    assert!(!fired("crates/bench/build.rs", writes, Rule::F1));
    assert!(!fired("crates/tokenizer/tests/build.rs", hashes, Rule::D3));
}

#[test]
fn suppression_with_reason_silences_without_reason_stands() {
    let src = include_str!("fixtures/suppressions.rs");
    let v = lint("crates/model/src/fixture.rs", src);
    let d1: Vec<_> = v.iter().filter(|v| v.rule == Rule::D1).collect();
    // Three Instant::now sites: one properly suppressed, two standing.
    assert_eq!(d1.len(), 2, "{d1:?}");
    assert!(
        d1.iter().any(|v| v.message.contains("missing its reason")),
        "the reasonless allow must be called out: {d1:?}"
    );
    assert!(
        d1.iter()
            .any(|v| !v.message.contains("missing its reason")),
        "the wrong-rule allow must leave a plain violation: {d1:?}"
    );
}

#[test]
fn config_skip_and_allow_paths() {
    let src = include_str!("fixtures/d1_wall_clock.rs");
    let cfg = Config::parse(
        "[skip]\npaths = [\"crates/skipme/\"]\n[allow.d1]\npaths = [\"crates/model/src/\"]\n",
    )
    .unwrap();
    assert!(
        lint_source("crates/skipme/src/fixture.rs", src, &cfg).is_empty(),
        "skip-listed paths are never linted"
    );
    assert!(
        lint_source("crates/model/src/fixture.rs", src, &cfg)
            .iter()
            .all(|v| v.rule != Rule::D1),
        "allowlisted paths pass the allowed rule"
    );
    assert!(
        !lint_source("crates/sim/src/fixture.rs", src, &cfg).is_empty(),
        "other paths still fail"
    );
}

#[test]
fn json_report_round_trips_through_serde_json() {
    let src = include_str!("fixtures/o1_library_prints.rs");
    let violations = lint("crates/model/src/fixture.rs", src);
    assert!(!violations.is_empty());
    let json = render_json(&violations);
    let value: serde_json::Value =
        serde_json::from_str(&json).expect("lint JSON must parse");
    let serde_json::Value::Object(obj) = value else {
        panic!("top level is an object, got {value:?}");
    };
    assert_eq!(
        obj["count"],
        serde_json::Value::Number(violations.len() as f64),
        "count field matches"
    );
    let serde_json::Value::Array(arr) = &obj["violations"] else {
        panic!("violations must be an array");
    };
    assert_eq!(arr.len(), violations.len());
    for (v, j) in violations.iter().zip(arr) {
        let serde_json::Value::Object(j) = j else {
            panic!("each violation is an object");
        };
        assert_eq!(j["rule"], serde_json::Value::String(v.rule.id().into()));
        assert_eq!(j["path"], serde_json::Value::String(v.path.clone()));
        assert_eq!(j["line"], serde_json::Value::Number(v.line as f64));
        assert_eq!(j["snippet"], serde_json::Value::String(v.snippet.clone()));
    }
    // Empty report is still valid JSON with count 0.
    let empty: serde_json::Value = serde_json::from_str(&render_json(&[])).unwrap();
    let serde_json::Value::Object(empty) = empty else {
        panic!("empty report is an object");
    };
    assert_eq!(empty["count"], serde_json::Value::Number(0.0));
}

#[test]
fn explain_covers_every_rule() {
    for rule in symphony_lint::ALL_RULES {
        let text = symphony_lint::explain(*rule);
        assert!(
            text.contains(rule.id()),
            "--explain {} must mention the rule id",
            rule.id()
        );
        assert!(text.len() > 100, "explanations are documentation, not stubs");
    }
}

#[test]
fn k1_covers_the_verifier_rendering_path() {
    let src = include_str!("fixtures/k1_verifier_rendering.rs");
    let v = lint("crates/lipscript/src/verify.rs", src);
    let k1: Vec<_> = v.iter().filter(|v| v.rule == Rule::K1).collect();
    assert!(
        k1.len() >= 3,
        "unwrap, expect and panic! must fire on the verifier path: {k1:?}"
    );
    assert!(
        k1.iter().all(|v| v.line <= 21),
        "the total rendering half must stay quiet: {k1:?}"
    );
    // The same snippet outside the admission path is out of scope for k1.
    let elsewhere = lint("crates/workloads/src/fixture.rs", src);
    assert!(!elsewhere.iter().any(|v| v.rule == Rule::K1));
}

#[test]
fn d3_applies_to_the_lipscript_front_end() {
    let src = include_str!("fixtures/d3_hash_collections.rs");
    let v = lint("crates/lipscript/src/interp.rs", src);
    assert!(
        v.iter().filter(|v| v.rule == Rule::D3).count() >= 2,
        "order-unstable collections must fire in lipscript: {v:?}"
    );
}

#[test]
fn d3_applies_to_the_tokenizer() {
    let src = include_str!("fixtures/d3_hash_collections.rs");
    let v = lint("crates/tokenizer/src/bpe.rs", src);
    assert!(
        v.iter().filter(|v| v.rule == Rule::D3).count() >= 2,
        "order-unstable collections must fire in the tokenizer: {v:?}"
    );
}

/// The `u1` findings over a set of `(pseudo-path, source)` files linted as
/// one workspace, as `(function name, message)` pairs.
fn u1(files: &[(&str, &str)]) -> Vec<(String, String)> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(path, src)| (path.to_string(), src.to_string()))
        .collect();
    lint_sources(&files, &Config::default())
        .into_iter()
        .filter(|v| v.rule == Rule::U1)
        .map(|v| {
            let name = v.snippet.trim_start_matches("pub fn ");
            let name = name[..name.find('(').unwrap()].to_string();
            (name, v.message)
        })
        .collect()
}

fn names(found: &[(String, String)]) -> Vec<&str> {
    found.iter().map(|(name, _)| name.as_str()).collect()
}

#[test]
fn u1_flags_a_public_fn_only_tests_comments_and_strings_mention() {
    let defs = include_str!("fixtures/u1_definitions.rs");
    let test_file = "fn t() { demo::only_mentioned(); demo::called_elsewhere(); }";
    let found = u1(&[
        ("crates/demo/src/lib.rs", defs),
        ("crates/demo/tests/calls.rs", test_file),
        ("tests/calls.rs", test_file),
    ]);
    // `pub(crate)` and test-module functions are not public surface.
    assert_eq!(
        names(&found),
        [
            "only_mentioned",
            "called_elsewhere",
            "kept_without_reason",
            "calls_the_helpers"
        ],
        "{found:?}"
    );
    let reasonless = &found[2].1;
    assert!(reasonless.contains("missing its reason"), "{reasonless}");
    assert!(!found[0].1.contains("missing its reason"));
}

#[test]
fn u1_counts_a_call_from_a_bin_an_example_or_the_benchmark() {
    let defs = include_str!("fixtures/u1_definitions.rs");
    let caller = include_str!("fixtures/u1_caller.rs");
    for at in [
        "benchmark/src/main.rs",
        "examples/demo.rs",
        "crates/demo/src/bin/tool.rs",
        "crates/other/src/lib.rs",
        "crates/demo/build.rs",
    ] {
        let found = u1(&[("crates/demo/src/lib.rs", defs), (at, caller)]);
        assert_eq!(
            names(&found),
            ["only_mentioned", "kept_without_reason"],
            "a call from {at} counts: {found:?}"
        );
    }
}

#[test]
fn u1_reports_definitions_in_crate_sources_only() {
    let defs = include_str!("fixtures/u1_definitions.rs");
    for at in [
        "examples/demo.rs",
        "benchmark/src/lib.rs",
        "crates/demo/tests/t.rs",
    ] {
        assert!(u1(&[(at, defs)]).is_empty(), "{at}");
    }
    // A skip-listed definition is not linted, and a `[allow.u1]` prefix
    // silences the rule there.
    let cfg = Config::parse("[skip]\npaths = [\"crates/demo/\"]\n").unwrap();
    let files = [("crates/demo/src/lib.rs".to_string(), defs.to_string())];
    assert!(lint_sources(&files, &cfg).is_empty());
    let cfg = Config::parse("[allow.u1]\npaths = [\"crates/demo/\"]\n").unwrap();
    assert!(lint_sources(&files, &cfg).is_empty());
}

/// The `r1` findings in one synthetic file, as `(line, message)`.
fn r1(path: &str, src: &str) -> Vec<(usize, String)> {
    lint(path, src)
        .into_iter()
        .filter(|v| v.rule == Rule::R1)
        .map(|v| (v.line, v.message))
        .collect()
}

/// Files a scope covers: the file it names, or a Rust and a non-Rust file
/// under the directory it names (`*` filled in), one of them nested.
fn inside(scope: &str) -> Vec<String> {
    let scope = scope.replace('*', "core");
    if scope.ends_with('/') {
        vec![
            format!("{scope}planted.rs"),
            format!("{scope}deep/Planted.toml"),
        ]
    } else {
        vec![scope]
    }
}

/// A file just outside a scope: beside the file it names, or in the
/// directory that holds the directory it names.
fn outside(scope: &str) -> String {
    let scope = scope.replace('*', "core");
    let dir = scope.trim_end_matches('/');
    match dir.rsplit_once('/') {
        Some((parent, _)) => format!("{parent}/planted.rs"),
        None => "planted.rs".to_string(),
    }
}

#[test]
fn r1_flags_every_retired_string_in_its_scopes_and_nowhere_else() {
    let mut checked = 0;
    for row in RETIRED {
        for bans in row.bans {
            for ban in bans.strings {
                let text = ban.text();
                // Another row may ban a string that contains this one.
                let mine = format!("`{text}` is retired (\"{}\", {})", row.name, row.commit);
                let own = |hits: Vec<(usize, String)>| -> Vec<(usize, String)> {
                    hits.into_iter()
                        .filter(|(_, m)| m.starts_with(&mine))
                        .collect()
                };
                // In code, in a comment and in a string literal: r1 reads
                // raw lines, as `grep` does.
                let planted = format!(
                    "fn planted() {{}}\nlet _ = x.{text};\n// {text}\nconst S: &str = \"{text}\";\n"
                );
                for scope in bans.under {
                    for path in inside(scope) {
                        let hits = own(r1(&path, &planted));
                        let lines: Vec<usize> = hits.iter().map(|(line, _)| *line).collect();
                        assert_eq!(
                            lines,
                            [2, 3, 4],
                            "{} `{text}` in {path}: {hits:?}",
                            row.name
                        );
                        assert!(
                            hits[0].1.ends_with(row.reason),
                            "a hit names its row and reason: {hits:?}"
                        );
                        // Inside a longer identifier (`struct JournalConfig`
                        // against `struct Journal`): a fixed string is still
                        // a hit, a word is not.
                        let longer = format!("let _ = x_{text}_x;\n{text}Config;\n");
                        let hits = own(r1(&path, &longer));
                        match ban {
                            Ban::Fixed(_) => assert_eq!(hits.len(), 2, "`{text}` in {path}"),
                            Ban::Word(_) => {
                                assert!(hits.is_empty(), "`{text}` in {path}: {hits:?}")
                            }
                        }
                        checked += 1;
                    }
                    let path = outside(scope);
                    let hits = r1(&path, &planted);
                    assert!(
                        hits.is_empty(),
                        "`{text}` outside {scope}, in {path}: {hits:?}"
                    );
                }
                // The table's own crate spells out every string.
                assert!(r1("crates/lint/src/rules.rs", &planted).is_empty());
            }
        }
    }
    assert!(checked > 100, "{checked}");
}

#[test]
fn r1_answers_to_no_suppression_allow_or_skip() {
    let path = "crates/kvfs/src/store.rs";
    let src = "// lint:allow(r1): the reason\nlet a = SegLog::new();\n\
               let b = SegLog::new(); // lint:allow(all): the reason\n\
               // lint:allow(r1, all): the reason\nlet c = SegLog::new();\n";
    let all = Config::parse(&format!(
        "[skip]\npaths = [\"crates/\"]\n{}",
        symphony_lint::ALL_RULES
            .iter()
            .filter(|rule| **rule != Rule::R1)
            .map(|rule| format!("[allow.{}]\npaths = [\"crates/\"]\n", rule.id()))
            .collect::<String>()
    ))
    .unwrap();
    let files = [(path.to_string(), src.to_string())];
    for cfg in [Config::default(), all.clone()] {
        let lines: Vec<usize> = lint_sources(&files, &cfg)
            .iter()
            .filter(|v| v.rule == Rule::R1)
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, [2, 3, 5]);
    }
    // A config that names it is refused, and one built by hand is ignored.
    let err = Config::parse("[allow.r1]\npaths = [\"crates/\"]\n").unwrap_err();
    assert!(err.contains("r1"), "{err}");
    let mut cfg = all;
    cfg.allow.push((Rule::R1, "crates/".to_string()));
    assert_eq!(lint_source(path, src, &cfg).len(), 3);
}
