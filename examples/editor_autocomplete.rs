//! The paper's §2 running example: a code editor with live autocompletion.
//!
//! A naive prompt API recomputes the whole buffer on every keystroke. A LIP
//! keeps the buffer's KV file alive across keystrokes and appends only the
//! newly typed tokens, making per-keystroke latency near-constant. The
//! program is E7's (`examples/lipscript/with_prelude/editor.lip`, after the
//! decoding prelude): the session arrives as its args, and it reports each
//! keystroke's tokens, suggestion and latency for this file to print.
//!
//! Run with: `cargo run --example editor_autocomplete`

use symphony::{Body, Kernel, KernelConfig, SimDuration, SpawnOpts};
use symphony_lipscript::{InterpLimits, LipBody};
use symphony_workloads::EditorWorkload;

/// What the client sends: the prelude, then the program.
const PROGRAM: &str = concat!(
    include_str!("lipscript/with_prelude/decode.lip"),
    include_str!("lipscript/with_prelude/editor.lip")
);

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let mut workload = EditorWorkload::new(180, 12, SimDuration::from_millis(200), 42);
    let trace = workload.next_trace();
    let keystrokes = trace.appends.len();

    // A 3-token suggestion after each keystroke, typed without a pause.
    let mut args = format!("3\n{}", trace.initial_buffer);
    for chunk in &trace.appends {
        args.push_str(&format!("\n0\t{chunk}"));
    }
    let body = LipBody::parse(PROGRAM, InterpLimits::default()).expect("the program parses");
    let pid = kernel.admit(
        "editor",
        &args,
        SpawnOpts::default(),
        Body::Inline(Box::new(body)),
    );

    kernel.run();
    let rec = kernel.record(pid).expect("record");
    println!("status: {:?}", rec.status);
    // After the summed latency, one `<typed>\t<ns>\t<suggestion>` line per
    // keystroke.
    for (i, line) in rec.output.lines().skip(1).enumerate() {
        let mark: Vec<&str> = line.split('\t').collect();
        let suggestion: Vec<u32> = mark[2]
            .split(',')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().expect("a token"))
            .collect();
        let latency = SimDuration::from_nanos(mark[1].parse().expect("a latency"));
        println!(
            "keystroke {i:>2}: +{:>2} tokens, suggestion {:?} in {latency}",
            mark[0],
            kernel.tokenizer().decode(&suggestion),
        );
    }
    println!(
        "session: {keystrokes} completions, {} total pred tokens \
         (a resubmit-everything client would pay the full buffer each time)",
        rec.usage.pred_tokens
    );
}
