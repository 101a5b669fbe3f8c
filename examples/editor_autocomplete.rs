//! The paper's §2 running example: a code editor with live autocompletion.
//!
//! A naive prompt API recomputes the whole buffer on every keystroke. A LIP
//! keeps the buffer's KV file alive across keystrokes and appends only the
//! newly typed tokens, making per-keystroke latency near-constant.
//!
//! Run with: `cargo run --example editor_autocomplete`

use symphony::{Kernel, KernelConfig, SysError};
use symphony_workloads::EditorWorkload;

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let mut workload = EditorWorkload::new(
        180,
        12,
        symphony::SimDuration::from_millis(200),
        42,
    );
    let trace = workload.next_trace();
    let keystrokes = trace.appends.len();
    let args = serialize_trace(&trace.initial_buffer, &trace.appends);

    let pid = kernel.spawn_process("editor", &args, move |ctx| {
        let parts = ctx.args();
        let (buffer, appends) = deserialize_trace(&parts).ok_or(SysError::BadArgument)?;

        // One persistent KV file for the whole editing session.
        let kv = ctx.kv_create()?;
        let initial = ctx.tokenize(&buffer)?;
        let mut dist = ctx
            .pred_positions(kv, &initial, 0)?
            .last()
            .ok_or(SysError::BadArgument)?;
        let mut pos = initial.len() as u32;

        for (i, chunk) in appends.iter().enumerate() {
            let t0 = ctx.now()?;
            // Incremental update: append ONLY the typed tokens.
            let typed = ctx.tokenize(chunk)?;
            if !typed.is_empty() {
                dist = ctx
                    .pred_positions(kv, &typed, pos)?
                    .last()
                    .ok_or(SysError::BadArgument)?;
                pos += typed.len() as u32;
            }
            // Offer a 3-token completion from a *fork* so the buffer file
            // stays exactly in sync with what the user typed.
            let probe = ctx.kv_fork(kv)?;
            let mut suggestion = Vec::new();
            let mut d = dist.clone();
            for p in pos..pos + 3 {
                let t = d.argmax();
                if t == ctx.eos() {
                    break;
                }
                suggestion.push(t);
                d = ctx
                    .pred(probe, &[(t, p)])?
                    .last()
                    .ok_or(SysError::BadArgument)?;
            }
            ctx.kv_remove(probe)?;
            let t1 = ctx.now()?;
            let text = ctx.detokenize(&suggestion)?;
            ctx.emit(&format!(
                "keystroke {i:>2}: +{:>2} tokens, suggestion {:?} in {}\n",
                typed.len(),
                text,
                t1.duration_since(t0)
            ))?;
        }
        ctx.kv_remove(kv)?;
        Ok(())
    });

    kernel.run();
    let rec = kernel.record(pid).expect("record");
    println!("status: {:?}", rec.status);
    print!("{}", rec.output);
    println!(
        "session: {keystrokes} completions, {} total pred tokens \
         (a resubmit-everything client would pay the full buffer each time)",
        rec.usage.pred_tokens
    );
}

/// Serialises the trace into the LIP's argument string.
fn serialize_trace(buffer: &str, appends: &[String]) -> String {
    let mut s = String::new();
    s.push_str(buffer);
    for a in appends {
        s.push('\u{1f}');
        s.push_str(a);
    }
    s
}

/// Parses the argument string back into `(buffer, appends)`.
fn deserialize_trace(args: &str) -> Option<(String, Vec<String>)> {
    let mut parts = args.split('\u{1f}');
    let buffer = parts.next()?.to_string();
    Some((buffer, parts.map(|s| s.to_string()).collect()))
}
