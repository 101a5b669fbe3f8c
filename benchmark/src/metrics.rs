//! The declared metrics: names, units, directions and regression
//! bounds. `BENCHMARK.json` is generated from these tables
//! (`--emit-benchmark-json`) and `--smoke` checks the checked-in file
//! against them, so a run can never print a name the contract does not
//! declare, or miss one it does.

use std::fmt::Write as _;

use crate::workload::{self, Workload};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the
    /// metric may worsen before a PR is rejected.
    pub bound: f64,
    /// The value is a count or a virtual-time quantity: for one seed
    /// and one commit it repeats bit for bit, and a host-speed PR must
    /// leave it unchanged.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a client of the system sees. Printed with
/// `--trace 0`, measured with kernel telemetry off. The driver's
/// contract wants every one of them on every workload under one bound,
/// and wants ten runs of the same code to agree within that bound, so
/// only metrics that are measured on all four *and repeat* are here.
/// Host-time throughput does not: on the shared hosts this runs on,
/// single runs of one binary sit a third apart (README, "Host time"),
/// wider than the widest bound the contract allows. It is
/// `host.sessions_per_s` below, ungated, and every `--trace 0` run
/// prints it as a fact. The wall latencies only `tcp_agent` has are
/// `serve.tcp.*` rows. Each bound is at least three times the
/// run-to-run spread (quartile distance over the median, ten seeds)
/// measured on the sandbox this was frozen on, except `setup_s`, the
/// one host-time metric the contract requires, which has the widest
/// bound allowed.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.15, false),
    e2e("sim_ttft_ms_mean", "ms", Lower, 0.15, true),
    e2e("sim_itl_ms_p99", "ms", Lower, 0.15, true),
    e2e("sim_latency_ms_p50", "ms", Lower, 0.05, true),
    e2e("sim_latency_ms_p99", "ms", Lower, 0.15, true),
    e2e("sim_tokens_per_s", "1/s", Higher, 0.10, true),
    e2e("sim_slo_ok_frac", "frac", Higher, 0.10, true),
];

/// Per-layer metrics, one group per crate. Printed with `--trace 1`.
/// A row that does not apply to a workload reads 0 there (README has
/// the table of which rows apply where).
pub const PER_LAYER: &[Def] = &[
    // serve: the door and the frame plumbing around the kernel.
    layer("serve.feed_us_per_submit", "us", Lower, false),
    layer("serve.pump_us_per_session", "us", Lower, false),
    layer("serve.drain_us_per_session", "us", Lower, false),
    layer("serve.door_share", "frac", Lower, false),
    layer("serve.frames_out_per_session", "count", Lower, true),
    layer("serve.bytes_out_per_session", "B", Lower, true),
    layer("serve.accepted", "count", Higher, true),
    layer("serve.shed", "count", Lower, true),
    layer("serve.errors", "count", Lower, true),
    // serve, TCP shell only.
    layer("serve.tcp.extra_us_per_session", "us", Lower, false),
    layer("serve.tcp.ttft_over_latency", "ratio", Lower, false),
    layer("serve.tcp.wall_ttft_ms_p50", "ms", Lower, false),
    layer("serve.tcp.wall_latency_ms_p50", "ms", Lower, false),
    layer("serve.tcp.wall_ttft_ms_p99", "ms", Lower, false),
    layer("serve.tcp.wall_latency_ms_p99", "ms", Lower, false),
    // rpc
    layer("rpc.decode_ns_per_frame", "ns", Lower, false),
    layer("rpc.encode_ns_per_frame", "ns", Lower, false),
    // lipscript
    layer("lipscript.parse_us_per_program", "us", Lower, false),
    layer("lipscript.verify_us_per_program", "us", Lower, false),
    layer("lipscript.interp_ns_per_fuel", "ns", Lower, false),
    layer("lipscript.fuel_per_session", "count", Lower, true),
    // tokenizer
    layer("tokenizer.encode_ns_per_token", "ns", Lower, false),
    // core: event loop and LIP hand-off.
    layer("core.events_per_s", "1/s", Higher, false),
    layer("core.syscalls_per_session", "count", Lower, true),
    layer("core.pump_us_per_syscall", "us", Lower, false),
    layer("core.handoff_us_per_roundtrip", "us", Lower, false),
    layer("core.unattributed_share", "frac", Lower, false),
    layer("core.lip_threads_peak", "count", Lower, false),
    // Estimated shares of pump time, probe cost x count; with
    // core.unattributed_share they sum to 1.
    layer("pump_share.handoff", "frac", Lower, false),
    layer("pump_share.lipscript", "frac", Lower, false),
    layer("pump_share.model", "frac", Lower, false),
    layer("pump_share.gpu", "frac", Lower, false),
    layer("pump_share.kvfs", "frac", Lower, false),
    layer("pump_share.rpc", "frac", Lower, false),
    layer("pump_share.sched", "frac", Lower, false),
    layer("pump_share.sim", "frac", Lower, false),
    layer("pump_share.tokenizer", "frac", Lower, false),
    // core: scheduler.
    layer("core.sched.decide_ns_per_op", "ns", Lower, false),
    layer("core.sched.queue_delay_ms_mean", "ms", Lower, true),
    layer("core.preemptions", "count", Lower, true),
    layer("core.prefill_chunks", "count", Lower, true),
    // core: write-ahead log.
    layer("core.wal.bytes_per_session", "B", Lower, true),
    layer("core.wal.frames_per_session", "count", Lower, true),
    layer("core.wal.checkpoints", "count", Lower, true),
    layer("core.durable_slowdown", "ratio", Lower, false),
    // sim
    layer("sim.event_queue_ns_per_op", "ns", Lower, false),
    layer("sim.frame_ns_per_frame", "ns", Lower, false),
    // gpu / model
    layer("gpu.batches_per_session", "count", Lower, true),
    layer("gpu.batch_occupancy_mean", "frac", Higher, true),
    layer("gpu.busy_frac", "frac", Higher, true),
    layer("model.next_dist_ns", "ns", Lower, false),
    layer("model.cost_eval_ns", "ns", Lower, false),
    // kvfs
    layer("kvfs.op_ns", "ns", Lower, false),
    layer("kvfs.cow_copies_per_session", "count", Lower, true),
    layer("kvfs.swapped_in_tokens_per_session", "count", Lower, true),
    layer("kvfs.swapped_out_tokens_per_session", "count", Lower, true),
    layer("kvfs.prefix_reuse_frac", "frac", Higher, true),
    layer("kvfs.gpu_pages_peak_frac", "frac", Lower, true),
    layer("kvfs.journal.bytes_final", "B", Lower, true),
    layer("kvfs.journal.compactions", "count", Lower, true),
    layer("kvfs.journal.persist_us_per_epoch", "us", Lower, false),
    // telemetry
    layer("telemetry.emit_ns_per_event_off", "ns", Lower, false),
    layer("telemetry.emit_ns_per_event_on", "ns", Lower, false),
    layer("telemetry.emit_ns_per_event_causal", "ns", Lower, false),
    layer("telemetry.events_per_session", "count", Lower, true),
    layer("telemetry.overhead_frac", "frac", Lower, false),
    layer("critpath.queue_wait_frac", "frac", Lower, true),
    layer("critpath.prefill_frac", "frac", Lower, true),
    layer("critpath.decode_frac", "frac", Lower, true),
    layer("critpath.tool_frac", "frac", Lower, true),
    layer("critpath.kv_swap_frac", "frac", Lower, true),
    layer("critpath.other_frac", "frac", Lower, true),
    // host
    layer("host.pinned", "count", Higher, false),
    layer("host.sessions_per_s", "1/s", Higher, false),
    layer("host.calib_mops_before", "Mops/s", Higher, false),
    layer("host.calib_mops_after", "Mops/s", Higher, false),
    layer("host.epoch_rate_iqr_frac", "frac", Lower, false),
];

/// Looks a declared metric up by name.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Declared name.
    pub name: &'static str,
    /// The measurement; `None` when it could not be resolved (the note
    /// says why) and must not be compared with anything.
    pub value: Option<f64>,
    /// Sample counts, the percentile used, and the like.
    pub note: String,
}

impl Value {
    /// The value as printed in the table and in the result line.
    fn render(&self, unresolved: &str) -> String {
        self.value
            .map_or_else(|| unresolved.to_string(), |v| format!("{v:?}"))
    }
}

/// Collects measured values against one of the declared tables.
#[derive(Debug)]
pub struct Sheet {
    table: &'static [Def],
    values: Vec<Value>,
}

impl Sheet {
    /// An empty sheet for `table`.
    pub fn new(table: &'static [Def]) -> Self {
        Sheet {
            table,
            values: Vec::new(),
        }
    }

    /// Records a value. Panics on an undeclared name: that is a bug in
    /// the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.put(name, Some(value), note.into());
    }

    /// Records that `name` was measured but the measurement cannot be
    /// trusted, and why. The row prints `unresolved`, the result line
    /// carries `null`, and the run exits non-zero: a number here would
    /// be compared against a bound it says nothing about.
    pub fn set_unresolved(&mut self, name: &str, why: impl Into<String>) {
        self.put(name, None, why.into());
    }

    fn put(&mut self, name: &str, value: Option<f64>, note: String) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.values.retain(|v| v.name != def.name);
        self.values.push(Value {
            name: def.name,
            value,
            note,
        });
    }

    /// Names recorded as unresolved.
    pub fn unresolved(&self) -> Vec<&'static str> {
        self.values
            .iter()
            .filter(|v| v.value.is_none())
            .map(|v| v.name)
            .collect()
    }

    /// Every declared metric in table order; rows nothing was recorded
    /// for read 0 with the note `n/a`.
    pub fn rows(&self) -> Vec<(&'static Def, Value)> {
        self.table
            .iter()
            .map(|def| {
                let value = self
                    .values
                    .iter()
                    .find(|v| v.name == def.name)
                    .cloned()
                    .unwrap_or(Value {
                        name: def.name,
                        value: Some(0.0),
                        note: "n/a on this workload".into(),
                    });
                (def, value)
            })
            .collect()
    }

    /// The table, one `workload metric value unit  # note` line per row.
    pub fn lines(&self, workload: &str) -> Vec<String> {
        self.rows()
            .iter()
            .map(|(def, v)| {
                let note = if v.note.is_empty() {
                    String::new()
                } else {
                    format!("  # {}", v.note)
                };
                format!(
                    "{workload} {} {} {}{note}",
                    def.name,
                    v.render("unresolved"),
                    def.unit
                )
            })
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (def, v)) in self.rows().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                v.render("null"),
                def.unit
            );
        }
        out.push('}');
        out
    }
}

/// A workload's `why` in `BENCHMARK.json`: why it was chosen, then the
/// load it was frozen under, so a reviewer can see the load was
/// measured, not guessed. The contract fixes the file's keys and caps a
/// `why` at 200 characters, hence the telegram style.
fn why(w: Workload) -> String {
    let chosen = match w {
        Workload::AgentLoop => "tool agents over in-process SYMR: LIP hand-off, interpreter, scheduler; little KVFS",
        Workload::RagChurn => "15/16 fork a Zipf doc (corpus 3x GPU KV pool), 1/16 prefill+publish: KVFS reads/writes/tiers",
        Workload::AgentDurable => "agent_loop's programs into the durable kernel API, WAL + KV journal on: durability cost",
        Workload::TcpAgent => "agent_loop's programs over the real symphony-serve socket, 2x8 closed loop; sim_* rows are an in-process replica's",
    };
    let f = w.frozen();
    let load = if f.saturation_per_s > 0.0 {
        format!(
            "{:.2}/s arrivals = {} x sat., ",
            w.arrival_rate(),
            workload::LOAD
        )
    } else {
        String::new()
    };
    format!(
        "{chosen}; frozen @{} seed {}: {load}{}x{} sessions/10 s, SLO ttft/gap {:.1}/{:.1} ms",
        workload::FROZEN_COMMIT,
        workload::FROZEN_SEED,
        f.epochs_per_10s,
        workload::EPOCH_SESSIONS,
        f.slo_ttft_ms,
        f.slo_itl_ms
    )
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in workload::ALL.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name(),
            why(*w),
            if i + 1 < workload::ALL.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            d.name,
            d.unit,
            d.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Checks a `BENCHMARK.json` document against the tables: same metric
/// names, units, directions and bounds, same workloads. Returns the
/// differences found.
pub fn check_benchmark_json(text: &str) -> Vec<String> {
    use serde_json::Value as J;
    let mut problems = Vec::new();
    let doc = match serde_json::from_str::<J>(text) {
        Ok(J::Object(o)) => o,
        Ok(_) => return vec!["BENCHMARK.json is not an object".into()],
        Err(e) => return vec![format!("BENCHMARK.json: {e}")],
    };
    let names = |key: &str| -> Vec<(String, String, String, f64)> {
        let Some(J::Array(items)) = doc.get(key) else {
            return Vec::new();
        };
        items
            .iter()
            .filter_map(|it| {
                let J::Object(o) = it else { return None };
                let s = |k: &str| match o.get(k) {
                    Some(J::String(s)) => s.clone(),
                    _ => String::new(),
                };
                let bound = match o.get("bound") {
                    Some(J::Number(n)) => *n,
                    _ => 0.0,
                };
                Some((s("name"), s("unit"), s("better"), bound))
            })
            .collect()
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = names(key);
        for d in table {
            match declared.iter().find(|(n, ..)| n == d.name) {
                None => problems.push(format!("{key}: `{}` is printed but not declared", d.name)),
                Some((_, unit, better, bound)) => {
                    if unit != d.unit || better != d.better.as_str() || *bound != d.bound {
                        problems.push(format!("{key}: `{}` differs from the table", d.name));
                    }
                }
            }
        }
        for (n, ..) in &declared {
            if !table.iter().any(|d| d.name == n) {
                problems.push(format!("{key}: `{n}` is declared but never printed"));
            }
        }
    }
    let declared: Vec<String> = names("workloads").into_iter().map(|(n, ..)| n).collect();
    let ours: Vec<String> = workload::ALL.iter().map(|w| w.name().to_string()).collect();
    if declared != ours {
        problems.push(format!("workloads: declared {declared:?}, run {ours:?}"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_benchmark_json_matches_the_tables_and_the_contract_limits() {
        let text = benchmark_json(10);
        assert_eq!(check_benchmark_json(&text), Vec::<String>::new());
        assert!(text.len() < 64 * 1024);
        for w in workload::ALL {
            let line = text
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{}\"", w.name())))
                .expect("workload is declared");
            assert!(line.contains(&why(w)));
            assert!(why(w).len() <= 200, "{}: why is too long", w.name());
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} is declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
    }

    #[test]
    fn a_drifted_document_is_caught() {
        let text = benchmark_json(10).replace("peak_rss_mb", "peak_rss_mib");
        let problems = check_benchmark_json(&text);
        assert!(problems.iter().any(|p| p.contains("peak_rss_mb")));
        assert!(problems.iter().any(|p| p.contains("peak_rss_mib")));
    }

    #[test]
    fn sheet_fills_unset_rows_with_zero_and_keeps_table_order() {
        let mut s = Sheet::new(END_TO_END);
        s.set("peak_rss_mb", 650.5, "VmHWM after 24 epochs");
        let rows = s.rows();
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(rows[0].0.name, "setup_s");
        assert_eq!(rows[1].1.value, Some(650.5));
        assert!(s
            .to_json()
            .contains("\"peak_rss_mb\": {\"value\": 650.5, \"unit\": \"MB\"}"));
        assert!(s.unresolved().is_empty());
    }

    #[test]
    fn an_unresolved_row_prints_no_number() {
        let mut s = Sheet::new(END_TO_END);
        s.set("setup_s", 0.05, "");
        s.set_unresolved("setup_s", "UNRESOLVED: not pinned");
        assert_eq!(s.unresolved(), ["setup_s"]);
        assert!(s
            .to_json()
            .contains("\"setup_s\": {\"value\": null, \"unit\": \"s\"}"));
        let line = &s.lines("agent_loop")[0];
        assert_eq!(
            line,
            "agent_loop setup_s unresolved s  # UNRESOLVED: not pinned"
        );
    }
}
