//! The one argument parser of `symphony-exp`: an experiment name (or
//! `all`) plus `--smoke`, `--trace <path>` and `--metrics`, and the one
//! place that decides where a run's files go.
//!
//! Telemetry is opt-in per invocation and never changes experiment
//! results: the flags only decide whether the designated run's kernel
//! records events (for a Perfetto export) and whether its metrics
//! snapshot is written beside the report. A run with and without the
//! flags prints the same tables and writes the same `<name>.json`. An
//! unknown flag or name is a usage error, never silently ignored.

use std::path::PathBuf;

use symphony::{Kernel, MetricsSnapshot};

use crate::exp::{Experiment, REGISTRY};

/// What every experiment's `run` is handed: the scale switch plus the
/// telemetry flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpArgs {
    /// `--smoke`: run the experiment's tiny CI-scale variant (experiments
    /// without one run at their only scale) and write under
    /// `results/smoke/`, so a smoke run never touches a reference file.
    pub smoke: bool,
    /// `--trace <path>`: write a Chrome trace-event JSON file of the
    /// designated run to `path`.
    pub trace: Option<PathBuf>,
    /// `--metrics`: write the designated run's metrics snapshot to
    /// `<name>.metrics.json` beside the report.
    pub metrics: bool,
}

/// Telemetry captured from an experiment's designated run.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The unified metrics snapshot of the designated run's kernel.
    pub metrics: MetricsSnapshot,
    /// Its Chrome trace, exported only when `--trace` asked for one.
    pub trace: Option<String>,
}

impl ExpArgs {
    /// Parses `<name>|all [--smoke] [--trace <path>|--trace=<path>]
    /// [--metrics]` into the experiments to run, in registry order, and
    /// their arguments. The error is the message for a usage failure.
    pub fn parse(argv: &[String]) -> Result<(Vec<&'static Experiment>, ExpArgs), String> {
        let mut args = ExpArgs::default();
        let mut name: Option<&str> = None;
        let mut it = argv.iter().map(String::as_str);
        while let Some(a) = it.next() {
            match a {
                "--smoke" => args.smoke = true,
                "--metrics" => args.metrics = true,
                "--trace" => {
                    let path = it.next().ok_or("--trace needs a path argument")?;
                    args.trace = Some(PathBuf::from(path));
                }
                _ if a.starts_with("--trace=") => {
                    args.trace = Some(PathBuf::from(&a["--trace=".len()..]));
                }
                _ if a.starts_with('-') => return Err(format!("unknown flag `{a}`")),
                _ if name.is_some() => return Err(format!("unexpected argument `{a}`")),
                _ => name = Some(a),
            }
        }
        let name = name.ok_or("missing experiment name")?;
        let targets: Vec<&Experiment> = if name == "all" {
            if args.trace.is_some() {
                return Err(
                    "--trace names one file: pass it with one experiment, not `all`".into(),
                );
            }
            REGISTRY.iter().collect()
        } else {
            let known = REGISTRY.iter().find(|e| e.name == name).ok_or_else(|| {
                let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
                format!(
                    "unknown experiment `{name}`; known: all {}",
                    names.join(" ")
                )
            })?;
            vec![known]
        };
        Ok((targets, args))
    }

    /// The directory every file of this run goes to: the report, the
    /// metrics sibling, and any scratch file an experiment keeps (journals,
    /// flamegraph input). Full-scale runs own `results/`; smoke runs own
    /// `results/smoke/`.
    pub fn out_dir(&self) -> PathBuf {
        if self.smoke {
            PathBuf::from("results/smoke")
        } else {
            PathBuf::from("results")
        }
    }

    /// Whether a run's kernel should record telemetry events: only the
    /// designated run, and only when `--trace` asked for an export.
    pub fn record(&self, designated: bool) -> bool {
        designated && self.trace.is_some()
    }

    /// Captures the designated run's telemetry for the report when a flag
    /// asked for it: its metrics snapshot, and its Chrome trace when
    /// `--trace` was given. Non-designated runs capture nothing.
    pub fn capture(&self, kernel: &Kernel, designated: bool) -> Option<Telemetry> {
        let wanted = designated && (self.metrics || self.trace.is_some());
        wanted.then(|| Telemetry {
            metrics: kernel.metrics_snapshot(),
            trace: self.trace.is_some().then(|| kernel.export_chrome_trace()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<&'static Experiment>, ExpArgs), String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ExpArgs::parse(&argv)
    }

    #[test]
    fn parses_trace_and_metrics() {
        let (targets, a) = parse(&["exp_vet", "--trace", "out.json", "--metrics"]).unwrap();
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].name, "exp_vet");
        assert_eq!(a.trace, Some(PathBuf::from("out.json")));
        assert!(a.metrics);
        assert!(!a.smoke);
        assert!(parse(&["exp_vet", "--trace"]).unwrap_err().contains("path"));
    }

    #[test]
    fn parses_equals_form_and_rejects_unknown() {
        let (_, a) = parse(&["--trace=t.json", "exp_sched"]).unwrap();
        assert_eq!(a.trace, Some(PathBuf::from("t.json")));
        assert!(!a.metrics);
        assert!(parse(&["exp_sched", "--fast"])
            .unwrap_err()
            .contains("--fast"));
        assert!(parse(&["exp_sched", "--quick"])
            .unwrap_err()
            .contains("--quick"));
        assert!(parse(&["exp_sched", "x"]).unwrap_err().contains("`x`"));
        assert!(parse(&["--smoke"]).unwrap_err().contains("missing"));
    }

    #[test]
    fn default_is_disabled() {
        let (_, a) = parse(&["fig3"]).unwrap();
        assert_eq!(a, ExpArgs::default());
        assert!(!a.record(true));
    }

    #[test]
    fn exp_args_parse_smoke_alongside_telemetry() {
        let (_, a) = parse(&["exp_sched", "--smoke", "--trace", "t.json"]).unwrap();
        assert!(a.smoke);
        assert!(a.record(true));
        assert!(!a.record(false));
        let (_, b) = parse(&["exp_sched", "--metrics"]).unwrap();
        assert!(!b.smoke);
        assert!(b.metrics);
    }

    #[test]
    fn unknown_name_lists_the_registry_and_all_runs_it_in_order() {
        let err = parse(&["exp_nope"]).unwrap_err();
        for e in REGISTRY {
            assert!(err.contains(e.name), "{err}");
        }
        let (targets, _) = parse(&["all", "--smoke", "--metrics"]).unwrap();
        let names: Vec<&str> = targets.iter().map(|e| e.name).collect();
        let registry: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names, registry);
        assert!(parse(&["all", "--trace", "t.json"]).is_err());
    }

    #[test]
    fn smoke_and_full_output_never_collide() {
        let full = ExpArgs::default();
        let smoke = ExpArgs {
            smoke: true,
            ..ExpArgs::default()
        };
        let files = |a: &ExpArgs| -> Vec<PathBuf> {
            REGISTRY
                .iter()
                .flat_map(|e| {
                    [
                        crate::exp::report_path(a, e),
                        crate::exp::metrics_path(a, e),
                    ]
                })
                .collect()
        };
        let (full_files, smoke_files) = (files(&full), files(&smoke));
        let mut all: Vec<&PathBuf> = full_files.iter().chain(&smoke_files).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4 * REGISTRY.len());
        assert!(smoke_files.iter().all(|p| p.starts_with(smoke.out_dir())));
        assert!(full_files.iter().all(|p| !p.starts_with(smoke.out_dir())));
    }
}
