//! Discrete-event simulation substrate for the Symphony reproduction.
//!
//! Every serving system in this workspace — the Symphony kernel as well as the
//! vLLM-like and TGI-like baselines — runs on *virtual time* provided by this
//! crate. This mirrors the paper's own methodology ("We conduct simulated
//! experiments", §5) and buys two properties the experiments rely on:
//!
//! - **Determinism.** Given a seed, a whole serving run (arrivals, batch
//!   timings, tool-call latencies) replays bit-identically, which the
//!   integration tests assert.
//! - **Scale.** Load sweeps far beyond wall-clock limits execute in
//!   milliseconds because GPU batches are *timed analytically*, not executed.
//!
//! The crate deliberately has no dependency on the rest of the workspace.
//!
//! # Examples
//!
//! ```
//! use symphony_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "second");
//! q.schedule(SimTime::ZERO, "first");
//! assert_eq!(q.pop().unwrap().1, "first");
//! assert_eq!(q.pop().unwrap().1, "second");
//! assert_eq!(q.now(), SimTime::from_nanos(5_000));
//! ```

pub mod dist;
pub mod events;
pub mod frame;
pub mod retry;
pub mod rng;
pub mod seglog;
pub mod slab;
pub mod stats;
pub mod time;

pub use dist::{Categorical, Exponential, LogNormal, Pareto, PoissonProcess, Zipf};
pub use events::EventQueue;
pub use retry::RetryPolicy;
pub use rng::Rng;
pub use slab::IdSlab;
pub use stats::{Histogram, OnlineStats, Series};
pub use time::{SimDuration, SimTime};
