//! docs/OBSERVABILITY.md's "Metric names and units" table and the metrics
//! registry name the same metrics.
//!
//! The table is what an operator reads a snapshot with, and it was kept by
//! hand: a metric added without a row, or a row left behind by a metric
//! that went, is drift. This boots what a server boots — the serving
//! preset, with a WAL so the durability metrics are there too, behind a
//! `ServerCore` — and holds its registry's names to the table's first
//! column, both ways. A cell may list several names, comma-separated, and
//! the `faults.*` row stands for every per-site fault counter.

use std::collections::BTreeSet;

use symphony::WalConfig;
use symphony_serve::replay::{serving_config, standard_kernel};
use symphony_serve::{ServeConfig, ServerCore};

const OBSERVABILITY: &str = include_str!("../../../docs/OBSERVABILITY.md");

/// The names in the first column of the metric table, as written.
fn documented() -> BTreeSet<&'static str> {
    let table = OBSERVABILITY
        .split("\n## Metric names and units\n")
        .nth(1)
        .expect("the section is there");
    let table = table.split("\n## ").next().unwrap_or(table);
    table
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .flat_map(|row| {
            let cell = row.split(" |").next().unwrap_or_default();
            cell.split(", ")
                .map(|name| name.trim_start_matches('`').trim_end_matches('`'))
        })
        .collect()
}

#[test]
fn the_metric_table_names_every_registered_metric_and_no_other() {
    let wal = std::env::temp_dir().join(format!(
        "symphony-metric-docs-{}.wal",
        std::process::id()
    ));
    let mut cfg = serving_config();
    cfg.wal = Some(WalConfig::new(&wal));
    let core = ServerCore::new(standard_kernel(cfg), ServeConfig::default());
    let snapshot = core.kernel().metrics_snapshot();
    let registered: BTreeSet<&str> = snapshot.entries.iter().map(|(n, _)| n.as_str()).collect();
    let documented = documented();

    let covers = |row: &str, name: &str| match row.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => row == name,
    };
    let undocumented: Vec<&str> = registered
        .iter()
        .copied()
        .filter(|name| !documented.iter().any(|row| covers(row, name)))
        .collect();
    let unregistered: Vec<&str> = documented
        .iter()
        .copied()
        .filter(|row| !registered.iter().any(|name| covers(row, name)))
        .collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "registered but not in docs/OBSERVABILITY.md: {undocumented:?}; \
         in its table but not registered: {unregistered:?}"
    );
    drop(core);
    std::fs::remove_file(&wal).ok();
}
