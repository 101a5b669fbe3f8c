//! Kernel-wide telemetry for Symphony.
//!
//! Three pieces, all stamped on the deterministic virtual clock:
//!
//! * [`EventBus`] — a zero-cost-when-disabled sink for typed
//!   [`EventKind`] events. Emission takes a closure, so a disabled bus
//!   never constructs (or allocates for) an event.
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms shared across subsystems via cheap atomic handles; the
//!   `KvStats`/`GpuMetrics` structs are snapshot views over it.
//! * [`export_chrome_trace`] — renders a recorded event stream as Chrome
//!   trace-event JSON loadable in Perfetto or `chrome://tracing`, with one
//!   track per LIP process/thread plus dedicated GPU and scheduler tracks;
//!   causal events, when recorded, draw as Perfetto flow arrows.
//!
//! On top of the raw stream sits the causal layer: when
//! `KernelConfig::causal` is on the kernel records [`EventKind::CausalEdge`]
//! (spawn, IPC, join, tool, preemption), [`EventKind::PredExec`] and
//! [`EventKind::ReplayAnswered`] events. [`trace_tree`] folds the stream
//! into per-program span trees, [`critical_path`] walks each tree
//! backwards into exclusive [`critical_path::Phase`] buckets whose sum is
//! exactly the program's end-to-end latency, and [`flame`] renders that
//! attribution as flamegraph.pl folded stacks.
//!
//! Because every timestamp is virtual time from a same-seed-deterministic
//! kernel, two identical runs export byte-identical traces — traces double
//! as regression artifacts. See `docs/OBSERVABILITY.md` for the event
//! taxonomy and metric catalogue.

mod bus;
mod chrome;
pub mod critical_path;
mod event;
pub mod flame;
mod metrics;
pub mod trace_tree;

pub use bus::EventBus;
pub use chrome::{export_chrome_trace, GPU_PID, GPU_TID, KERNEL_PID, SCHED_TID, SERVE_PID};
pub use critical_path::{
    analyze, critical_path as program_critical_path, render_report, LatencyBreakdown, Phase, PHASES,
};
pub use event::{EdgeKind, EventKind, SwapDir, TimedEvent};
pub use flame::collapsed_stacks;
pub use metrics::{
    latency_bounds_ns, occupancy_bounds, percent_bounds, Counter, Gauge, Histogram, MetricValue,
    MetricsRegistry, MetricsSnapshot,
};
pub use trace_tree::{
    build_forest, CausalLink, ExecWindow, ProgramTrace, SyscallSpan, ThreadTrace, TraceForest,
};
