//! Experiment harness: regenerates every figure in the paper plus the
//! extension experiments listed in `DESIGN.md`.
//!
//! One binary, `symphony-exp`, dispatches through [`exp::REGISTRY`]; each
//! experiment prints the rows/series of one figure and returns a
//! [`Report`] the driver writes under `results/`, so `EXPERIMENTS.md`
//! numbers are regenerable.

pub mod exp;
pub mod fig3;
pub mod lip;
pub mod prompt_server;
pub mod report;
// The prelude's sampling functions, tested where the kernel runs them;
// the files live beside the integration tests, out of the crate's source.
#[cfg(test)]
#[path = "../tests/sampling/mod.rs"]
mod sampling;
pub mod telemetry_cli;

pub use report::{Report, Table};
pub use telemetry_cli::{ExpArgs, Telemetry};
