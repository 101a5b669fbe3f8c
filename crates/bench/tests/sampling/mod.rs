//! The decoding prelude's sampling functions (`examples/lipscript/
//! with_prelude/decode*.lip`), tested where they run: each test admits a
//! LipScript program after the prelude on a test kernel and reads what it
//! emitted. The bench crate's unit tests include this directory by path,
//! as `tests/arb` is included elsewhere.

mod constraint;
mod speculative;
mod watermark;

use symphony::{Body, Kernel, KernelConfig, SpawnOpts};
use symphony_lipscript::{InterpLimits, LipBody};

/// Every part of the prelude.
const PRELUDE: &str = concat!(
    include_str!("../../../../examples/lipscript/with_prelude/decode.lip"),
    include_str!("../../../../examples/lipscript/with_prelude/decode_constrained.lip"),
    include_str!("../../../../examples/lipscript/with_prelude/decode_watermark.lip")
);

/// Runs `program` after the prelude with `args`; what it emitted. Panics
/// with the program's error if it fails.
fn run_with(program: &str, args: &str) -> String {
    let limits = InterpLimits {
        fuel: 1_000_000_000,
        memory_cells: 1_000_000_000,
        ..InterpLimits::default()
    };
    let body = LipBody::parse(&format!("{PRELUDE}{program}"), limits).expect("parses");
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let pid = kernel.admit("t", args, SpawnOpts::default(), Body::Inline(Box::new(body)));
    kernel.run();
    let rec = kernel.record(pid).expect("record");
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    rec.output.clone()
}

fn run(program: &str) -> String {
    run_with(program, "")
}
