//! The Symphony network front door.
//!
//! The paper's serving model made real on a wire: clients submit whole
//! *LLM Inference Programs* over the SYMR protocol (`symphony-rpc`,
//! specified in `docs/SERVING.md`) and the server multiplexes every
//! connection's sessions onto one kernel, streaming each program's
//! output back incrementally.
//!
//! Layering, from the inside out:
//!
//! * [`ServerCore`] — the transport-agnostic serving loop: frames in,
//!   frames out, kernel in the middle. Admission (per-tenant quotas and
//!   a global session cap), cancellation, BYE draining and slow-client
//!   shedding all live here, so they behave identically under every
//!   transport.
//! * [`replay`] — a deterministic loopback load generator: replays
//!   agent/RAG workloads with simulated RTT and injected faults, and
//!   reports *client-observed* TTFT and per-program latency. Same seed,
//!   same bytes — the e2e suite and CI diff two runs.
//! * [`shell`] — the same core over real TCP: one `poll(2)` loop that
//!   reads, runs the kernel in bounded slices and writes what each
//!   socket takes.
//! * the `symphony-serve` / `symphony-client` binaries — the shell behind
//!   a command line, and its matching load generator.

pub mod replay;
pub mod server;
pub mod shell;

pub use replay::{run_replay, run_replay_on, ReplayReport, ReplaySpec, WorkloadKind};
pub use server::{CloseReason, ServeConfig, ServerCore, SLICE};
