//! End-to-end tests of the `symphony-exp` driver: the process, its
//! arguments and the files it leaves behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `symphony-exp <args>` with `cwd` as its working directory.
fn symphony_exp(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_symphony-exp"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn symphony-exp")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symphony-exp-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Telemetry flags never change results: `exp_vet --smoke` with and
/// without `--metrics`/`--trace` prints the same tables and writes the
/// same `exp_vet.json`; the snapshot and the trace land beside it, and
/// nothing is written where a full-scale run's reference copy lives.
#[test]
fn telemetry_flags_do_not_change_results() {
    let (plain, flagged) = (scratch("plain"), scratch("flagged"));
    let a = symphony_exp(&plain, &["exp_vet", "--smoke"]);
    let b = symphony_exp(
        &flagged,
        &["exp_vet", "--smoke", "--metrics", "--trace", "trace.json"],
    );
    assert!(a.status.success() && b.status.success(), "{a:?}\n{b:?}");
    assert_eq!(a.stdout, b.stdout, "tables differ under telemetry flags");

    let report =
        |dir: &Path| std::fs::read(dir.join("results/smoke/exp_vet.json")).expect("report");
    let payload = report(&plain);
    assert_eq!(
        payload,
        report(&flagged),
        "results differ under telemetry flags"
    );
    assert!(
        payload.starts_with(b"["),
        "the report is the bare results payload"
    );

    let metrics = std::fs::read_to_string(flagged.join("results/smoke/exp_vet.metrics.json"))
        .expect("--metrics writes the sibling snapshot");
    assert!(metrics.contains("serve.sessions.accepted"), "{metrics}");
    assert!(
        flagged.join("trace.json").is_file(),
        "--trace writes its path"
    );
    assert!(!plain.join("results/smoke/exp_vet.metrics.json").exists());
    for dir in [&plain, &flagged] {
        assert!(
            !dir.join("results/exp_vet.json").exists(),
            "smoke run wrote a full-scale file"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Usage errors exit 2 and run nothing; no arguments prints the registry.
#[test]
fn usage_errors_run_nothing() {
    let dir = scratch("usage");
    for bad in [&["exp_chat", "--quick"][..], &["exp_nope"], &["--smoke"]] {
        let out = symphony_exp(&dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{bad:?} printed tables");
    }
    let listing = symphony_exp(&dir, &[]);
    assert!(listing.status.success());
    let text = String::from_utf8(listing.stdout).expect("utf-8 usage");
    for e in symphony_bench::exp::REGISTRY {
        assert!(
            text.contains(e.name) && text.contains(e.about),
            "{}",
            e.name
        );
    }
    assert!(!dir.join("results").exists(), "a usage error wrote files");
    std::fs::remove_dir_all(&dir).ok();
}
