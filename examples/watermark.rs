//! Policy-based generation (§2.3): watermarked sampling as a user program.
//!
//! The watermark biases a pseudo-random "green list" of tokens at every
//! step and a detector later verifies provenance from tokens alone. A
//! prompt API cannot express this — it needs the full distribution each
//! step — but in Symphony it is a few lines of LIP code over `pred`.
//!
//! Run with: `cargo run --example watermark`

use symphony::sampling::Watermark;
use symphony::{Kernel, KernelConfig, SysError};

const TOKENS: usize = 220;

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());

    let run = |kernel: &mut Kernel, name: &'static str, marked: bool| {
        kernel.spawn_process(name, "a paragraph about provenance", move |ctx| {
            let wm = Watermark::new(0x5EED, ctx.specials().bos);
            let prompt = ctx.tokenize(&ctx.args())?;
            let kv = ctx.kv_create()?;
            let mut dist = ctx
                .pred_positions(kv, &prompt, 0)?
                .last()
                .ok_or(SysError::BadArgument)?;
            let mut prev = *prompt.last().expect("non-empty prompt");
            let mut pos = prompt.len() as u32;
            let mut out = Vec::new();
            while out.len() < TOKENS {
                let d = if marked { wm.bias(&dist, prev) } else { dist.clone() };
                let t = {
                    let d = d.top_p(0.9);
                    let u = ctx.rng_f64();
                    d.sample_with(u, ctx.specials().bos)
                };
                if t == ctx.eos() {
                    // Keep generating past EOS for a stable-length sample.
                    prev = t;
                    pos += 1;
                    dist = ctx
                        .pred(kv, &[(t, pos - 1)])?
                        .last()
                        .ok_or(SysError::BadArgument)?;
                    continue;
                }
                out.push(t);
                dist = ctx
                    .pred(kv, &[(t, pos)])?
                    .last()
                    .ok_or(SysError::BadArgument)?;
                prev = t;
                pos += 1;
            }
            // Report the detector's z-score on our own output.
            let z = wm.detect(&out);
            ctx.emit(&format!("{z:.2}"))?;
            Ok(())
        })
    };

    let marked = run(&mut kernel, "watermarked", true);
    let clean = run(&mut kernel, "clean", false);
    kernel.run();

    let z_marked: f64 = kernel.record(marked).unwrap().output.parse().unwrap();
    let z_clean: f64 = kernel.record(clean).unwrap().output.parse().unwrap();
    println!("detector z-score, watermarked generation: {z_marked:.2}  (threshold ~4)");
    println!("detector z-score, clean generation:       {z_clean:.2}");
    assert!(z_marked > z_clean, "watermark must raise the detector score");
    println!(
        "\nThe serving system was never modified: the bias runs inside the LIP\n\
         on the distributions `pred` returns."
    );
}
