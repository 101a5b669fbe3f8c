//! The whole suite: every workload as a child process of its own —
//! exactly what the driver runs — plus the checks that span runs.
//!
//! A child per run keeps peak RSS, thread pools and pinning of one
//! workload out of the next one's numbers. `--aa` runs the suite twice
//! and compares: host-time metrics within their declared bounds,
//! virtual-time metrics and counts bit for bit.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use serde_json::Value as J;

use crate::metrics::{self, Def, END_TO_END, PER_LAYER};
use crate::workload::{self, Workload};

/// How to run the suite.
pub struct SuiteOptions {
    /// This executable.
    pub self_exe: PathBuf,
    /// Generator seed.
    pub seed: u64,
    /// `--seconds` for every run.
    pub seconds: f64,
    /// Two epochs per workload and tiny probes.
    pub smoke: bool,
    /// `symphony-serve` override.
    pub serve_bin: Option<PathBuf>,
    /// Output directory.
    pub out_dir: PathBuf,
}

/// One child run, parsed.
#[derive(Debug, Clone, Default)]
pub struct ChildResult {
    /// The result line's `correct`.
    pub correct: bool,
    /// The result line's `attempted`.
    pub attempted: f64,
    /// The result line's `failed`.
    pub failed: f64,
    /// Metric name → value; NaN for one reported as unresolved (`null`).
    pub metrics: BTreeMap<String, f64>,
    /// `workload key rest-of-line` facts.
    pub info: BTreeMap<String, String>,
}

/// All runs of one pass over the suite.
#[derive(Debug, Default)]
pub struct Suite {
    /// (workload, traced) → result.
    pub runs: BTreeMap<(Workload, bool), ChildResult>,
    /// Failed checks.
    pub problems: Vec<String>,
}

fn run_child(
    opts: &SuiteOptions,
    workload: Workload,
    seed: u64,
    trace: bool,
    emit: &mut dyn FnMut(&str),
) -> Result<ChildResult, String> {
    let mut cmd = Command::new(&opts.self_exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let Some(bin) = &opts.serve_bin {
        cmd.arg("--serve-bin").arg(bin);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", opts.self_exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    let mut result = parse_result_line(last).map_err(|e| {
        format!(
            "{} --trace {}: exit {}, no result line: {e}",
            workload.name(),
            u8::from(trace),
            output.status
        )
    })?;
    for line in lines {
        emit(line);
        let mut parts = line.splitn(3, ' ');
        if let (Some(_), Some(key), Some(rest)) = (parts.next(), parts.next(), parts.next()) {
            if metrics::find(key).is_none() {
                result.info.insert(key.to_string(), rest.to_string());
            }
        }
    }
    // A run with unresolved metrics exits non-zero on purpose; any other
    // failure means its checks did not pass, whatever the line says.
    let unresolved = result.metrics.values().any(|v| v.is_nan());
    if !output.status.success() && !unresolved {
        result.correct = false;
    }
    Ok(result)
}

fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let J::Object(doc) = serde_json::from_str::<J>(line).map_err(|e| e.to_string())? else {
        return Err("result line is not an object".into());
    };
    let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    let num = |k: &str| match doc.get(k) {
        Some(J::Number(n)) => Ok(*n),
        _ => Err(format!("`{k}` is not a number")),
    };
    let mut result = ChildResult {
        correct: doc.get("correct") == Some(&J::Bool(true)),
        attempted: num("attempted")?,
        failed: num("failed")?,
        ..Default::default()
    };
    let Some(J::Object(ms)) = doc.get("metrics") else {
        return Err("`metrics` is not an object".into());
    };
    for (name, m) in ms {
        let value = match m {
            J::Object(o) => match (o.get("value"), o.get("unit")) {
                (Some(J::Number(v)), Some(J::String(_))) if o.len() == 2 => *v,
                (Some(J::Null), Some(J::String(_))) if o.len() == 2 => f64::NAN,
                _ => return Err(format!("metric `{name}` is not {{value, unit}}")),
            },
            _ => return Err(format!("metric `{name}` is not an object")),
        };
        result.metrics.insert(name.clone(), value);
    }
    Ok(result)
}

/// Checks one run's metric names against the declared table.
fn check_names(workload: Workload, trace: bool, r: &ChildResult, problems: &mut Vec<String>) {
    let table: &[Def] = if trace { PER_LAYER } else { END_TO_END };
    let what = format!("{} --trace {}", workload.name(), u8::from(trace));
    for d in table {
        if !r.metrics.contains_key(d.name) {
            problems.push(format!(
                "{what}: declared metric `{}` was not printed",
                d.name
            ));
        }
    }
    for (name, value) in &r.metrics {
        if !table.iter().any(|d| d.name == name) {
            problems.push(format!("{what}: printed undeclared metric `{name}`"));
        }
        if value.is_nan() {
            problems.push(format!("{what}: `{name}` is unresolved"));
        }
    }
    if !trace {
        for d in table {
            if r.metrics.get(d.name).copied().unwrap_or(0.0) <= 0.0 {
                problems.push(format!(
                    "{what}: end-to-end metric `{}` is not positive",
                    d.name
                ));
            }
        }
    }
}

/// Runs every workload untraced then traced, relaying each child's
/// table through `emit`, and applies the cross-run checks.
pub fn run_all(opts: &SuiteOptions, emit: &mut dyn FnMut(&str)) -> Result<Suite, String> {
    let mut suite = Suite::default();
    for w in workload::ALL {
        for trace in [false, true] {
            let r = run_child(opts, w, opts.seed, trace, emit)?;
            let what = format!("{} --trace {}", w.name(), u8::from(trace));
            if !r.correct {
                suite
                    .problems
                    .push(format!("{what}: correctness checks failed"));
            }
            if r.failed != 0.0 {
                suite.problems.push(format!(
                    "{what}: failed_frac {} ({} of {})",
                    r.failed / r.attempted.max(1.0),
                    r.failed,
                    r.attempted
                ));
            }
            check_names(w, trace, &r, &mut suite.problems);
            suite.runs.insert((w, trace), r);
        }
    }
    // Same programs, same kernel configuration, durability on or off:
    // the streamed bytes and the whole virtual timeline must agree.
    let digest = |w: Workload| {
        suite
            .runs
            .get(&(w, false))
            .and_then(|r| r.info.get("output_digest_head"))
            .cloned()
            .unwrap_or_default()
    };
    let (plain, durable) = (digest(Workload::AgentLoop), digest(Workload::AgentDurable));
    if plain.is_empty() || plain != durable {
        suite.problems.push(format!(
            "output_digest_head: agent_loop {plain} != agent_durable {durable}"
        ));
    }
    if opts.smoke {
        match std::fs::read_to_string("BENCHMARK.json") {
            Ok(text) => suite.problems.extend(metrics::check_benchmark_json(&text)),
            Err(e) => suite.problems.push(format!("BENCHMARK.json: {e}")),
        }
    }
    Ok(suite)
}

/// Runs the suite twice and compares the passes; then one `agent_loop`
/// run under the next seed, which must differ from both.
pub fn run_aa(opts: &SuiteOptions, emit: &mut dyn FnMut(&str)) -> Result<Vec<String>, String> {
    let a = run_all(opts, emit)?;
    let b = run_all(opts, emit)?;
    let mut problems = a.problems;
    problems.extend(b.problems);
    for ((w, trace), ra) in &a.runs {
        let Some(rb) = b.runs.get(&(*w, *trace)) else {
            continue;
        };
        let table: &[Def] = if *trace { PER_LAYER } else { END_TO_END };
        for d in table {
            let (va, vb) = (
                ra.metrics.get(d.name).copied().unwrap_or(0.0),
                rb.metrics.get(d.name).copied().unwrap_or(0.0),
            );
            if d.exact && va.to_bits() != vb.to_bits() {
                problems.push(format!(
                    "A/A: {} {} must repeat exactly: {va:?} then {vb:?}",
                    w.name(),
                    d.name
                ));
            } else if !d.exact && !*trace {
                let spread = (va - vb).abs() / va.abs().min(vb.abs()).max(f64::MIN_POSITIVE);
                emit(&format!(
                    "aa {} {} {va:?} {vb:?} spread {spread:.4} bound {}",
                    w.name(),
                    d.name,
                    d.bound
                ));
                if spread > d.bound {
                    problems.push(format!(
                        "A/A: {} {} differs by {spread:.3} (> {}): {va:?} then {vb:?}",
                        w.name(),
                        d.name,
                        d.bound
                    ));
                }
            }
        }
        if *w != Workload::TcpAgent && ra.info.get("output_digest") != rb.info.get("output_digest")
        {
            problems.push(format!("A/A: {} output_digest changed", w.name()));
        }
    }
    let other = run_child(opts, Workload::AgentLoop, opts.seed + 1, false, emit)?;
    if let Some(ra) = a.runs.get(&(Workload::AgentLoop, false)) {
        if ra.info.get("output_digest") == other.info.get("output_digest") {
            problems
                .push("seed does not reach the generator: digest equal under another seed".into());
        }
        for d in END_TO_END
            .iter()
            .filter(|d| d.exact && d.name != "sim_slo_ok_frac")
        {
            if ra.metrics.get(d.name) == other.metrics.get(d.name) {
                problems.push(format!("{} is equal under another seed", d.name));
            }
        }
    }
    Ok(problems)
}
