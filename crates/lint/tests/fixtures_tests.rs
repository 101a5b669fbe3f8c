//! Fixture suite: every rule must flag its known-bad snippet, suppressions
//! must behave, allowlists must skip, and the JSON report must round-trip
//! through the workspace `serde_json`.
//!
//! Fixtures live in `tests/fixtures/` (skip-listed in the workspace
//! `lint.toml` so `cargo run -p symphony-lint` stays green) and are linted
//! here via [`lint_source`] under *pseudo-paths* chosen to put each snippet
//! in the rule's scope.

use symphony_lint::{lint_source, render_json, Config, Rule, Violation};

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
        "crates/bench/src/bin/fixture.rs",
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
