//! EXPERIMENTS.md's tables print what `results/*.json` holds.
//!
//! A table was copied into the document by hand after a run, so a
//! re-baseline that rewrote a result file could leave it behind. Each
//! numeric cell of a checked table is read back with the precision it is
//! printed at, and the result field it stands for, rounded the same way,
//! must print the same digits. Checked: Fig. 3's heavy-skew table
//! (latency per token, normalized to Symphony) and E7's table.

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
