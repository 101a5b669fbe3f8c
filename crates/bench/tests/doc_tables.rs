//! EXPERIMENTS.md's tables print what `results/*.json` holds.
//!
//! A table was copied into the document by hand after a run, so a
//! re-baseline that rewrote a result file could leave it behind. Each
//! numeric cell of a checked table is read back with the precision it is
//! printed at, and the result field it stands for, rounded the same way,
//! must print the same digits. Checked: Fig. 3's heavy-skew table
//! (latency per token, normalized to Symphony), E7's, E12's and E15's
//! tables.

use serde_json::Value;

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

/// The rows of `results/<name>.json`.
fn rows(name: &str) -> Vec<Value> {
    let path = format!("{}/../../results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    match serde_json::from_str(&text).expect("a results file is JSON") {
        Value::Array(rows) => rows,
        other => panic!("a results file is an array of rows, got {other:?}"),
    }
}

fn get<'a>(row: &'a Value, key: &str) -> Option<&'a Value> {
    match row {
        Value::Object(fields) => fields.get(key),
        _ => None,
    }
}

/// `field` of the one row whose `keys` fields equal the given values.
fn field(rows: &[Value], keys: &[(&str, Value)], field: &str) -> Result<f64, String> {
    let mut found = rows
        .iter()
        .filter(|r| keys.iter().all(|(k, v)| get(r, k) == Some(v)));
    match (found.next(), found.next()) {
        (Some(row), None) => match get(row, field) {
            Some(Value::Number(n)) => Ok(*n),
            other => Err(format!("{keys:?}: {field} is {other:?}")),
        },
        _ => Err(format!("not exactly one row {keys:?}")),
    }
}

/// The body rows of the first table after `marker`, as cells.
fn table_after(doc: &str, marker: &str) -> Result<Vec<Vec<String>>, String> {
    let (_, after) = doc
        .split_once(marker)
        .ok_or_else(|| format!("no {marker:?} in EXPERIMENTS.md"))?;
    let lines = after
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'));
    Ok(lines
        .skip(2) // header and rule
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect())
}

/// A cell's number and the decimals it is printed with (`**17.58×**`
/// is 17.58 at 2; `22 ms` is 22 at 0).
fn printed(cell: &str) -> Result<(f64, i32), String> {
    let digits: String = cell
        .trim_matches('*')
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    let value = digits
        .parse()
        .map_err(|_| format!("{cell:?} is not a number"))?;
    let decimals = digits.split_once('.').map_or(0, |(_, f)| f.len() as i32);
    Ok((value, decimals))
}

/// `Err` unless `want`, rounded as `cell` prints, is `cell`'s number.
fn agrees(cell: &str, want: f64, what: &str) -> Result<(), String> {
    let (value, decimals) = printed(cell)?;
    let scale = 10f64.powi(decimals);
    if (want * scale).round() == (value * scale).round() {
        Ok(())
    } else {
        Err(format!(
            "{what}: the table prints {cell:?}, the result is {want}"
        ))
    }
}

/// Fig. 3's heavy-skew table: per load, Symphony's latency per token,
/// then each baseline's normalized to it.
fn fig3_table(doc: &str, results: &[Value]) -> Result<(), String> {
    const COLUMNS: [&str; 6] = [
        "symphony",
        "vllm-noapc",
        "vllm",
        "tgi",
        "vllm-noapc-lip",
        "vllm-lip",
    ];
    let table = table_after(
        doc,
        "Latency per generated token, heavy skew (pareto = 0.5)",
    )?;
    if table.len() != 6 {
        return Err(format!("{} load rows, want 6", table.len()));
    }
    for row in &table {
        if row.len() != 1 + COLUMNS.len() {
            return Err(format!("{row:?}: want {} cells", 1 + COLUMNS.len()));
        }
        let (load, _) = printed(&row[0])?;
        let lpt = |system: &str| {
            let keys = [
                ("system", Value::String(system.into())),
                ("pareto_index", Value::Number(0.5)),
                ("load_rps", Value::Number(load)),
            ];
            field(results, &keys, "latency_per_token_ms")
        };
        let symphony = lpt("symphony")?;
        agrees(&row[1], symphony, &format!("symphony at {load} rps"))?;
        for (cell, system) in row[2..].iter().zip(&COLUMNS[1..]) {
            agrees(
                cell,
                lpt(system)? / symphony,
                &format!("{system} at {load} rps"),
            )?;
        }
    }
    Ok(())
}

/// E7's table: per buffer size, each mode's mean keystroke latency.
fn e7_table(doc: &str, results: &[Value]) -> Result<(), String> {
    const COLUMNS: [&str; 5] = [
        "symphony-incremental",
        "prompt-apc",
        "prompt-nocache",
        "prompt-apc-lip",
        "prompt-nocache-lip",
    ];
    let table = table_after(doc, "## E7 —")?;
    if table.len() != 3 {
        return Err(format!("{} buffer rows, want 3", table.len()));
    }
    for row in &table {
        if row.len() != 1 + COLUMNS.len() {
            return Err(format!("{row:?}: want {} cells", 1 + COLUMNS.len()));
        }
        let (words, _) = printed(&row[0])?;
        for (cell, mode) in row[1..].iter().zip(COLUMNS) {
            let keys = [
                ("mode", Value::String(mode.into())),
                ("buffer_words", Value::Number(words)),
            ];
            let ms = field(results, &keys, "mean_keystroke_latency_ms")?;
            agrees(cell, ms, &format!("{mode} at {words} words"))?;
        }
    }
    Ok(())
}

/// The `(workload, mode)` keys of a row whose first two cells name them.
fn workload_mode(row: &[String]) -> [(&'static str, Value); 2] {
    [
        ("workload", Value::String(row[0].clone())),
        ("mode", Value::String(row[1].clone())),
    ]
}

/// E12's table: per workload and executor mode, the gaps, TTFT,
/// throughput and iteration counts.
fn e12_table(doc: &str, results: &[Value]) -> Result<(), String> {
    const COLUMNS: [&str; 6] = [
        "p50_itl_ms",
        "p99_itl_ms",
        "mean_ttft_ms",
        "throughput_tok_s",
        "batches",
        "prefill_chunks",
    ];
    let table = table_after(doc, "## E12 —")?;
    if table.len() != results.len() {
        return Err(format!("{} rows, want {}", table.len(), results.len()));
    }
    for row in &table {
        if row.len() != 2 + COLUMNS.len() {
            return Err(format!("{row:?}: want {} cells", 2 + COLUMNS.len()));
        }
        let keys = workload_mode(row);
        for (cell, column) in row[2..].iter().zip(COLUMNS) {
            let want = field(results, &keys, column)?;
            agrees(cell, want, &format!("{} {}: {column}", row[0], row[1]))?;
        }
    }
    Ok(())
}

/// E15's table: per workload and mode, the per-program and per-`pred`
/// p99, and the phase that holds most of the programs' time (with its
/// share where printed).
fn e15_table(doc: &str, results: &[Value]) -> Result<(), String> {
    let table = table_after(doc, "## E15 —")?;
    if table.len() != results.len() {
        return Err(format!("{} rows, want {}", table.len(), results.len()));
    }
    for row in &table {
        if row.len() != 5 {
            return Err(format!("{row:?}: want 5 cells"));
        }
        let keys = workload_mode(row);
        let what = format!("{} {}", row[0], row[1]);
        agrees(&row[2], field(results, &keys, "prog_p99_ms")?, &what)?;
        agrees(&row[3], field(results, &keys, "pred_p99_ms")?, &what)?;
        let mut found = results
            .iter()
            .filter(|r| keys.iter().all(|(k, v)| get(r, k) == Some(v)));
        let phases: Vec<(String, f64)> = match found.next().and_then(|r| get(r, "phase_ns")) {
            Some(Value::Array(phases)) => phases
                .iter()
                .filter_map(|p| match p {
                    Value::Array(pair) => match (pair.first(), pair.get(1)) {
                        (Some(Value::String(name)), Some(Value::Number(ns))) => {
                            Some((name.clone(), *ns))
                        }
                        _ => None,
                    },
                    _ => None,
                })
                .collect(),
            other => return Err(format!("{what}: phase_ns is {other:?}")),
        };
        let total: f64 = phases.iter().map(|p| p.1).sum();
        let (top, ns) = phases
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .ok_or_else(|| format!("{what}: no phases"))?;
        let (name, share) = match row[4].split_once(" (") {
            Some((name, share)) => (name, Some(share.trim_end_matches(')'))),
            None => (row[4].as_str(), None),
        };
        if name != top {
            return Err(format!(
                "{what}: the table prints {name:?}, the top phase is {top:?}"
            ));
        }
        if let Some(share) = share {
            agrees(share, ns / total * 100.0, &format!("{what}: {top}'s share"))?;
        }
    }
    Ok(())
}

#[test]
fn fig3s_heavy_skew_table_prints_its_results() {
    fig3_table(EXPERIMENTS, &rows("fig3")).unwrap();
}

#[test]
fn e7s_table_prints_its_results() {
    e7_table(EXPERIMENTS, &rows("exp_editor")).unwrap();
}

#[test]
fn a_wrong_number_in_either_table_fails() {
    let fig3 = EXPERIMENTS.replacen("| 4 | 91 ms |", "| 4 | 92 ms |", 1);
    assert_ne!(fig3, EXPERIMENTS, "the planted cell is there");
    assert!(fig3_table(&fig3, &rows("fig3")).is_err());
    let e7 = EXPERIMENTS.replacen(
        "| 800 words | 68 ms | 197 ms |",
        "| 800 words | 68 ms | 198 ms |",
        1,
    );
    assert_ne!(e7, EXPERIMENTS, "the planted cell is there");
    assert!(e7_table(&e7, &rows("exp_editor")).is_err());
}

#[test]
fn e12s_table_prints_its_results() {
    e12_table(EXPERIMENTS, &rows("exp_sched")).unwrap();
}

#[test]
fn e15s_table_prints_its_results() {
    e15_table(EXPERIMENTS, &rows("exp_profile")).unwrap();
}

#[test]
fn a_wrong_number_in_e12s_or_e15s_table_fails() {
    let plant = |from: &str, to: &str| {
        let doc = EXPERIMENTS.replacen(from, to, 1);
        assert_ne!(doc, EXPERIMENTS, "the planted cell {from:?} is there");
        doc
    };
    let e12 = plant(
        "| agent | cont+chunked-b8 | 48.0 ms | 476.5 ms |",
        "| agent | cont+chunked-b8 | 48.0 ms | 476.6 ms |",
    );
    assert!(e12_table(&e12, &rows("exp_sched")).is_err());
    let e15 = plant(
        "| fleet | continuous | 3927 ms |",
        "| fleet | continuous | 3928 ms |",
    );
    assert!(e15_table(&e15, &rows("exp_profile")).is_err());
    let share = plant("queue-wait (61%)", "queue-wait (62%)");
    assert!(e15_table(&share, &rows("exp_profile")).is_err());
}
