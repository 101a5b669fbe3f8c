//! Experiment harness: regenerates every figure in the paper plus the
//! extension experiments listed in `DESIGN.md`.
//!
//! One binary, `symphony-exp`, dispatches through [`exp::REGISTRY`]; each
//! experiment prints the rows/series of one figure and returns a
//! [`Report`] the driver writes under `results/`, so `EXPERIMENTS.md`
//! numbers are regenerable.

pub mod exp;
pub mod fig3;
pub mod report;
pub mod telemetry_cli;

pub use report::{Report, Table};
pub use telemetry_cli::{ExpArgs, Telemetry};
