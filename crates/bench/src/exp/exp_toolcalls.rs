//! E2 — §2.2 communication overhead: server-side vs client-side function
//! calling.
//!
//! One agent task interleaves generation with `n` tool calls. Three
//! execution models, all on the same substrate:
//!
//! - `server-lip`: the LIP calls tools inside the server (no round trips).
//! - `client-stateful`: the client executes each tool; every call costs one
//!   network round trip, but server-side state (KV) survives.
//! - `client-prompt`: a stateless prompt API — each round trip also
//!   re-prefills the whole accumulated context (no cache).
//!
//! Expected shape: the gap grows linearly in the number of calls; the
//! stateless variant adds recompute on top of the round trips.

use crate::{lip, ExpArgs, Report, Table, Telemetry};
use serde::Serialize;
use symphony::{Kernel, KernelConfig, SimDuration, SpawnOpts, ToolOutcome, ToolSpec};

/// The agent task in all three execution models.
const PROGRAM: &str = include_str!("../../../../examples/lipscript/with_prelude/toolcalls.lip");
const TOOL_LATENCY: SimDuration = SimDuration::from_millis(25);

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    calls: usize,
    latency_ms: f64,
    pred_tokens: u64,
}

/// Runs one `(mode, calls)` point. The designated run may record events
/// for the Perfetto export; recording never changes results — the bus
/// only observes.
fn run_mode(
    mode: &str,
    calls: usize,
    telemetry: &ExpArgs,
    designated: bool,
) -> (Point, Option<Telemetry>) {
    let mut cfg = KernelConfig::paper_setup();
    cfg.model = cfg.model.with_mean_output_tokens(1_000); // segments end by cap
    cfg.telemetry = telemetry.record(designated);
    let mut kernel = Kernel::new(cfg);
    kernel.register_tool(
        "api",
        ToolSpec::fixed(TOOL_LATENCY, |args| {
            ToolOutcome::Ok(format!("api result for {args}"))
        }),
    );
    let args = format!("{mode} {calls}");
    let pid = kernel.admit(mode, &args, SpawnOpts::default(), lip::program(PROGRAM));
    kernel.run();
    let rec = kernel.record(pid).expect("record");
    assert!(rec.status.is_ok(), "{mode}: {:?}", rec.status);
    let point = Point {
        mode: mode.to_string(),
        calls,
        latency_ms: rec.latency().expect("exited").as_millis_f64(),
        pred_tokens: rec.usage.pred_tokens,
    };
    let snap = telemetry.capture(&kernel, designated);
    (point, snap)
}

pub(super) fn run(opts: &ExpArgs) -> Report {
    let modes = ["server-lip", "client-stateful", "client-prompt"];
    let call_counts = [1usize, 2, 4, 8, 16];
    let designated_calls = *call_counts.last().expect("non-empty");
    let mut results = Vec::new();
    let mut captured: Option<Telemetry> = None;
    let mut table = Table::new(
        "E2 — function calling: server-side vs client round trips (RTT 40ms)",
        &[
            "calls",
            "server-lip",
            "client-stateful",
            "client-prompt",
            "prompt pred-tokens",
        ],
    );
    for &calls in &call_counts {
        eprintln!("E2: {calls} calls ...");
        let pts: Vec<Point> = modes
            .iter()
            .map(|m| {
                // The designated telemetry run: server-lip at max calls.
                let designated = *m == "server-lip" && calls == designated_calls;
                let (pt, snap) = run_mode(m, calls, opts, designated);
                if designated {
                    captured = snap;
                }
                pt
            })
            .collect();
        table.row(vec![
            calls.to_string(),
            format!("{:.0}ms", pts[0].latency_ms),
            format!(
                "{:.0}ms (+{:.0})",
                pts[1].latency_ms,
                pts[1].latency_ms - pts[0].latency_ms
            ),
            format!(
                "{:.0}ms (+{:.0})",
                pts[2].latency_ms,
                pts[2].latency_ms - pts[0].latency_ms
            ),
            format!("{} vs {} (lip)", pts[2].pred_tokens, pts[0].pred_tokens),
        ]);
        results.extend(pts);
    }
    table.print();
    println!("\nShape check: client-stateful − server-lip ≈ 2·RTT·calls = round-trip overhead.");
    Report::new(&results).with_telemetry(captured)
}
