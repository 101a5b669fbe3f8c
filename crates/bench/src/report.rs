//! Table printing, the report an experiment returns, and file output.

use std::path::Path;

use crate::telemetry_cli::Telemetry;

/// A printable results table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table {
    /// Table title (e.g. `"Figure 3a"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// What an experiment's `run` hands back to the driver: the results
/// payload, plus the designated run's telemetry when the experiment has
/// one. Where (and whether) each part is written is the driver's decision
/// (`exp::run`), so no flag can change the bytes of `<name>.json`.
#[derive(Debug, Clone)]
pub struct Report {
    /// The results payload, pretty-printed: the bytes of `<name>.json`.
    pub results: String,
    /// Telemetry of the designated run, for `--metrics` / `--trace`.
    pub telemetry: Option<Telemetry>,
}

impl Report {
    /// A report carrying `results` and no telemetry.
    pub fn new<T: serde::Serialize>(results: &T) -> Self {
        Report {
            results: serde_json::to_string_pretty(results).expect("serialisable"),
            telemetry: None,
        }
    }

    /// Attaches the designated run's telemetry.
    pub fn with_telemetry(mut self, telemetry: Option<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Writes `contents` to `path`, creating its directory if needed.
/// Failures are reported, not fatal — the printed table is the primary
/// artifact.
pub fn write_file(path: &Path, contents: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warn: cannot create {}: {e}", dir.display());
            return;
        }
    }
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warn: write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["a", "long_header", "b"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["100".into(), "20000".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // All data lines equal length (aligned).
        assert_eq!(lines[2].len(), lines[3].len().max(lines[2].len()));
    }
}
