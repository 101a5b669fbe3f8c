//! Cooperative multi-agent LIPs with server-side tools and IPC (§2.2, §4.3).
//!
//! A researcher agent calls tools and generates findings; a writer agent
//! waits for the findings over IPC and produces the summary. All
//! coordination happens inside the serving system — zero client round
//! trips. Both are one LipScript program (`examples/lipscript/with_prelude/multi_agent.lip`)
//! in two roles.
//!
//! Run with: `cargo run --example multi_agent`

use symphony::{Body, Kernel, KernelConfig, SimDuration, SpawnOpts, ToolOutcome, ToolSpec};
use symphony_lipscript::{InterpLimits, LipBody};

/// Both agents' program, after the decoding prelude it calls.
const PROGRAM: &str = concat!(
    include_str!("lipscript/with_prelude/decode.lip"),
    include_str!("lipscript/with_prelude/multi_agent.lip")
);

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());

    kernel.register_tool(
        "search",
        ToolSpec::new(SimDuration::from_millis(40), |query| {
            ToolOutcome::Ok(format!("top result for {query}: cache reuse wins"))
        }),
    );
    kernel.register_tool(
        "calculator",
        ToolSpec::fixed(SimDuration::from_millis(5), |expr| {
            // A toy evaluator: sums a "+"-separated list.
            let sum: i64 = expr
                .split('+')
                .filter_map(|t| t.trim().parse::<i64>().ok())
                .sum();
            ToolOutcome::Ok(sum.to_string())
        }),
    );

    let mut admit = |name: &str, args: &str| {
        let body = LipBody::parse(PROGRAM, InterpLimits::default()).expect("the program parses");
        kernel.admit(
            name,
            args,
            SpawnOpts::default(),
            Body::Inline(Box::new(body)),
        )
    };
    let writer = admit("writer", "writer");
    let researcher = admit("researcher", "researcher llm serving systems");

    kernel.run();

    for (name, pid) in [("researcher", researcher), ("writer", writer)] {
        let rec = kernel.record(pid).expect("record");
        println!("{name:>10}: {:?} — {}", rec.status, rec.output);
        println!(
            "{:>10}  tool calls: {}, pred tokens: {}",
            "", rec.usage.tool_calls, rec.usage.pred_tokens
        );
    }
}
