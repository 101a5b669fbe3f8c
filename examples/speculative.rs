//! Speculative decoding as a user program (§4.1).
//!
//! The LIP drafts several tokens cheaply (here: from the current
//! distribution alone, standing in for a small draft model), verifies them
//! with ONE multi-token `pred`, and rolls the KV file back to the accepted
//! prefix with `kv_truncate` — no serving-system support required. The
//! program is LipScript text (`examples/lipscript/with_prelude/speculate.lip`).
//!
//! Run with: `cargo run --example speculative`

use symphony::{Body, Kernel, KernelConfig, SpawnOpts};
use symphony_lipscript::{InterpLimits, LipBody};

/// The drafting loop, after the decoding prelude it calls.
const PROGRAM: &str = concat!(
    include_str!("lipscript/with_prelude/decode.lip"),
    include_str!("lipscript/with_prelude/speculate.lip")
);

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());

    let body = LipBody::parse(PROGRAM, InterpLimits::default()).expect("the program parses");
    let pid = kernel.admit(
        "speculative",
        "a context for drafting",
        SpawnOpts::default(),
        Body::Inline(Box::new(body)),
    );

    kernel.run();
    let rec = kernel.record(pid).expect("record");
    println!("status: {:?}", rec.status);
    println!("{}", rec.output);
    println!(
        "pred calls: {} for {} emitted tokens (speculation amortises steps)",
        rec.usage.pred_calls, rec.usage.emitted_tokens
    );
}
