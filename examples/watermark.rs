//! Policy-based generation (§2.3): watermarked sampling as a user program.
//!
//! The watermark biases a pseudo-random "green list" of tokens at every
//! step and a detector later verifies provenance from tokens alone. A
//! prompt API cannot express this — it needs the full distribution each
//! step — but in Symphony it is LIP code over `pred`
//! (`examples/lipscript/with_prelude/watermark.lip`, with the bias and the detector in
//! the prelude's `decode_watermark.lip`).
//!
//! Run with: `cargo run --example watermark`

use symphony::{Body, Kernel, KernelConfig, SpawnOpts};
use symphony_lipscript::{InterpLimits, LipBody};

/// The sampler and detector, after the decoding prelude they call.
const PROGRAM: &str = concat!(
    include_str!("lipscript/with_prelude/decode.lip"),
    include_str!("lipscript/with_prelude/decode_watermark.lip"),
    include_str!("lipscript/with_prelude/watermark.lip")
);

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let bos = kernel.tokenizer().specials().bos;
    // The bias hashes every candidate of every step in the interpreter.
    let limits = InterpLimits {
        fuel: 1_000_000_000,
        memory_cells: 1_000_000_000,
        ..InterpLimits::default()
    };
    let mut run = |name: &str, mode: &str| {
        let body = LipBody::parse(PROGRAM, limits).expect("the program parses");
        let args = format!("{mode} {bos}\na paragraph about provenance");
        kernel.admit(
            name,
            &args,
            SpawnOpts::default(),
            Body::Inline(Box::new(body)),
        )
    };
    let marked = run("watermarked", "marked");
    let clean = run("clean", "clean");
    kernel.run();

    let z = |pid| -> f64 {
        let rec = kernel.record(pid).expect("record");
        rec.output
            .parse()
            .unwrap_or_else(|_| panic!("{:?}", rec.status))
    };
    let (z_marked, z_clean) = (z(marked), z(clean));
    println!("detector z-score, watermarked generation: {z_marked:.2}  (threshold ~4)");
    println!("detector z-score, clean generation:       {z_clean:.2}");
    assert!(
        z_marked > z_clean,
        "watermark must raise the detector score"
    );
    println!(
        "\nThe serving system was never modified: the bias runs inside the LIP\n\
         on the distributions `pred` returns."
    );
}
