//! The experiment registry and the driver that runs one entry.
//!
//! [`REGISTRY`] is the only list of experiments in the repository: the
//! `symphony-exp` binary dispatches through it, `symphony-exp all` and the
//! CI `results-fresh` job run it in order, and a test checks it against
//! the headings of `EXPERIMENTS.md`. Each module's `run` keeps its sweep,
//! tables and notes and returns a [`Report`]; [`run`] decides where the
//! report, the metrics snapshot and the trace are written.

use std::path::PathBuf;

use crate::report::{write_file, Report};
use crate::telemetry_cli::ExpArgs;

mod exp_batching;
mod exp_chat;
mod exp_constrained;
mod exp_editor;
mod exp_faults;
mod exp_lipscript;
mod exp_offload;
mod exp_pagesize;
mod exp_persist;
mod exp_profile;
mod exp_recovery;
mod exp_sched;
mod exp_serve;
mod exp_speculative;
mod exp_toolcalls;
mod exp_tot;
mod exp_vet;
mod fig3;

/// One runnable experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Command-line name and result-file stem (`results/<name>.json`).
    pub name: &'static str,
    /// The label `EXPERIMENTS.md` and `DESIGN.md` file it under.
    pub id: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// Whether `results/<name>.json` is a tracked reference copy that a
    /// full-scale run must reproduce byte for byte. False only where a
    /// reported column is wall-clock time.
    pub pinned: bool,
    /// Runs the sweep, prints its tables and notes, returns the report.
    pub run: fn(&ExpArgs) -> Report,
}

macro_rules! registry {
    ($( $module:ident, $id:literal, $pinned:literal, $about:literal; )*) => {
        /// Every experiment, in the order `all` runs them.
        pub static REGISTRY: &[Experiment] = &[$(
            Experiment {
                name: stringify!($module),
                id: $id,
                about: $about,
                pinned: $pinned,
                run: $module::run,
            },
        )*];
    };
}

registry! {
    fig3, "Figure 3", true, "RAG prompt caching: Symphony vs vLLM (with and without APC) vs TGI, load x Pareto index";
    exp_batching, "E1", true, "§4.4 batch-scheduling policy ablation (immediate / fixed-window / adaptive)";
    exp_toolcalls, "E2", true, "§2.2 server-side tool calls vs client-side function-calling round trips";
    exp_constrained, "E3", false, "§2.3 constrained decoding through LIPs (grammar masks; reports wall time)";
    exp_speculative, "E4", true, "§4.1 speculative decoding through multi-token pred verification";
    exp_tot, "E5", true, "§4.3 Tree-of-Thought: kv_fork COW vs independent prefills";
    exp_offload, "E6", true, "§4.3 KV offload to host memory across blocking tool calls";
    exp_editor, "E7", true, "§2 editor autocompletion: incremental KV append vs prompt resubmission";
    exp_lipscript, "E8", false, "§6 sandbox cost: LipScript vs native LIP (reports wall time)";
    exp_chat, "E9", true, "§2.1 multi-round chat: retained KV vs per-turn recomputation";
    exp_pagesize, "E10", true, "KVFS page-size ablation";
    exp_faults, "E11", true, "tool-fault resilience: goodput vs fault rate x retry policy";
    exp_sched, "E12", true, "§4.4 iteration-level scheduling: static / continuous / chunked / program-aware";
    exp_persist, "E13", true, "warm restart from the KVFS journal vs cold boot";
    exp_recovery, "E14", true, "crash-tolerant serving: goodput vs checkpoint interval x crash rate";
    exp_profile, "E15", true, "per-program observability: causal traces and critical-path attribution";
    exp_serve, "E16", true, "serving over the wire: client-observed latency vs sessions x RTT x admission";
    exp_vet, "E17", true, "admission-time verification: flood shedding and static cost hints";
}

/// Where `e`'s results payload goes under `args`.
pub fn report_path(args: &ExpArgs, e: &Experiment) -> PathBuf {
    args.out_dir().join(format!("{}.json", e.name))
}

/// Where `e`'s `--metrics` snapshot goes under `args`.
pub fn metrics_path(args: &ExpArgs, e: &Experiment) -> PathBuf {
    args.out_dir().join(format!("{}.metrics.json", e.name))
}

/// Runs one experiment and writes what it returned: always the results
/// payload, the metrics snapshot under `--metrics`, the trace under
/// `--trace`.
pub fn run(e: &Experiment, args: &ExpArgs) {
    eprintln!("symphony-exp: {} ({})", e.name, e.id);
    let report = (e.run)(args);
    write_file(&report_path(args, e), &report.results);
    if !(args.metrics || args.trace.is_some()) {
        return;
    }
    let Some(telemetry) = report.telemetry else {
        eprintln!(
            "warn: {} has no designated telemetry run; --metrics/--trace wrote nothing",
            e.name
        );
        return;
    };
    if args.metrics {
        let snapshot = serde_json::to_string_pretty(&telemetry.metrics).expect("serialisable");
        write_file(&metrics_path(args, e), &snapshot);
    }
    if let (Some(path), Some(trace)) = (&args.trace, &telemetry.trace) {
        write_file(path, trace);
    }
}

const USAGE: &str = "\
usage: symphony-exp <name>|all [--smoke] [--trace <path>] [--metrics]

Prints the experiment's tables and writes results/<name>.json.
  --smoke         tiny CI-scale variant where the experiment has one;
                  everything is written under results/smoke/ instead
  --trace <path>  Chrome/Perfetto trace of the designated run (one experiment)
  --metrics       metrics snapshot of the designated run, to <name>.metrics.json

experiments (`all` runs them in this order; * = results file is a
tracked reference copy a full-scale run reproduces byte for byte):
";

/// The usage text: the command line plus the registry.
pub fn usage() -> String {
    let mut out = String::from(USAGE);
    for e in REGISTRY {
        let pin = if e.pinned { '*' } else { ' ' };
        out.push_str(&format!("  {:<16}{pin} {:<9} {}\n", e.name, e.id, e.about));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_ids_are_unique() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
        let ids: BTreeSet<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(names.len(), REGISTRY.len());
        assert_eq!(ids.len(), REGISTRY.len());
        assert!(!names.contains("all"), "`all` is the driver's own word");
    }

    /// Every `## ` heading of EXPERIMENTS.md is one experiment's, written
    /// ``## <id> — <title> (`<name>`)``, and every experiment has one, in
    /// registry order; README's table lists the same.
    #[test]
    fn registry_matches_experiments_md_headings() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let headings: Vec<(String, String)> = doc
            .lines()
            .filter_map(|l| l.strip_prefix("## "))
            .map(|h| {
                let (id, rest) = h
                    .split_once(" — ")
                    .unwrap_or_else(|| panic!("heading without `<id> — `: {h}"));
                let name = rest
                    .strip_suffix("`)")
                    .and_then(|r| r.rsplit_once("(`"))
                    .unwrap_or_else(|| panic!("heading without a trailing (`<name>`): {h}"))
                    .1;
                (id.to_string(), name.to_string())
            })
            .collect();
        let registry: Vec<(String, String)> = REGISTRY
            .iter()
            .map(|e| (e.id.to_string(), e.name.to_string()))
            .collect();
        assert_eq!(headings, registry);

        // README's table: one ``| `<name>` | <id> | … |`` row per entry.
        let readme = include_str!("../../../../README.md");
        let rows: Vec<(String, String)> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split_once("` | "))
            .filter(|(name, _)| name.starts_with("exp_") || *name == "fig3")
            .map(|(name, rest)| {
                let id = rest.split(" | ").next().unwrap_or_default();
                (id.to_string(), name.to_string())
            })
            .collect();
        assert_eq!(rows, registry);
    }

    #[test]
    fn pinned_experiments_have_a_reference_copy() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for e in REGISTRY.iter().filter(|e| e.pinned) {
            let path = results.join(format!("{}.json", e.name));
            assert!(
                path.is_file(),
                "{} is pinned but {} is missing",
                e.name,
                path.display()
            );
        }
    }
}
