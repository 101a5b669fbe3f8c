//! Quickstart: serve one LLM Inference Program.
//!
//! The program arrives as LipScript text (`examples/lipscript/with_prelude/quickstart.lip`,
//! after the decoding prelude `decode.lip` it calls) and owns the
//! generation loop: it prefills its prompt with one `pred` system call,
//! then samples and extends token by token — the paper's core "separation
//! of generation and model computation".
//!
//! Run with: `cargo run --example quickstart`

use symphony::{Body, Kernel, KernelConfig, SpawnOpts};
use symphony_lipscript::{InterpLimits, LipBody};

/// What the client sends: the prelude, then the program.
const PROGRAM: &str = concat!(
    include_str!("lipscript/with_prelude/decode.lip"),
    include_str!("lipscript/with_prelude/quickstart.lip")
);

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());

    let body = LipBody::parse(PROGRAM, InterpLimits::default()).expect("the program parses");
    let pid = kernel.admit(
        "quickstart",
        "the design of the serving system",
        SpawnOpts::default(),
        Body::Inline(Box::new(body)),
    );

    kernel.run();

    let rec = kernel.record(pid).expect("process record");
    println!("status : {:?}", rec.status);
    println!("latency: {}", rec.latency().expect("exited"));
    println!("output : {}", rec.output);
    println!(
        "usage  : {} syscalls, {} pred calls, {} tokens through pred",
        rec.usage.syscalls, rec.usage.pred_calls, rec.usage.pred_tokens
    );
}
