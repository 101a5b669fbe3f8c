//! `lip_run` is a client of the serving door: the built binary runs the
//! shipped examples and the programs the server serves, and reports the
//! door's admission verdicts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use symphony_serve::replay::rag_source;

fn lip_run(path: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lip_run"))
        .arg(path)
        .args(args)
        .output()
        .expect("lip_run starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Writes `source` to a file of this test's own under the target's
/// scratch directory.
fn program(name: &str, source: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, source).expect("write program");
    path
}

#[test]
fn every_shipped_example_runs() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lipscript");
    let mut ran = 0;
    for entry in std::fs::read_dir(&dir).expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "lip") {
            continue;
        }
        let out = lip_run(&path, &["serve programs, not prompts"]);
        let stderr = text(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", path.display());
        assert!(stderr.starts_with("-- ok in "), "{stderr}");
        ran += 1;
    }
    assert_eq!(ran, 3);
}

#[test]
fn the_served_rag_program_finds_its_corpus() {
    let path = program("rag.lip", &rag_source(8));
    let out = lip_run(&path, &["1|q"]);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(out.status.success(), "{stderr}");
    assert!(stdout.contains("[rag done: "), "{stdout}");
    assert!(
        stdout.len() > "[rag done: 8]\n".len(),
        "no generated text: {stdout}"
    );
}

#[test]
fn a_verifier_error_is_the_doors_rejection() {
    let path = program("undefined.lip", "let a = 1;\nemit(str(a + b));\n");
    let out = lip_run(&path, &[]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!(
            "{}:2:14: undefined variable `b`\n",
            path.display()
        )),
        "{stderr}"
    );
    assert!(
        stderr.contains("-- rejected: program failed verification"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());

    // Without the verifier the program is admitted and faults where the
    // verifier said it would.
    let out = lip_run(&path, &["--no-verify"]);
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("runtime error: undefined name `b` at 2:14"),
        "{stderr}"
    );
    assert!(stderr.contains("-- failed in "), "{stderr}");
}
