//! Serving a program that arrives as *data* — the paper's literal pitch.
//!
//! The client ships LipScript source text; the server runs it in a
//! fuel/memory-metered sandbox with access only to the system-call surface.
//! This program implements Figure 2 of the paper: parallel generation over
//! a forked shared prefix.
//!
//! Run with: `cargo run --example lipscript_program`

use std::sync::Arc;

use symphony::{Body, Kernel, KernelConfig, Mode, SpawnOpts};
use symphony_lipscript::{parse::parse, InterpLimits, LipBody};

/// What the client sends over the wire.
const CLIENT_PROGRAM: &str = r#"
// Figure 2, in LipScript: fork the preloaded system prompt per query and
// generate each continuation on its own thread.
fn branch(kv, query) {
    let suffix = tokenize(query);
    let dists = pred(kv, suffix, kv_next_pos(kv));
    let d = dists[len(dists) - 1];
    let n = 0;
    while (n < 12) {
        let t = argmax(d);
        if (t == eos()) { break; }
        d = pred(kv, [t], kv_next_pos(kv))[0];
        n = n + 1;
    }
    emit("[" + query + " -> " + str(n) + " tokens]\n");
    kv_remove(kv);
    return n;
}

let prefix = kv_open("sys_msg.kv");
let queries = ["first question", "second question", "third question"];
let threads = [];
for q in queries {
    threads = push(threads, spawn("branch", [kv_fork(prefix), q]));
}
let ok = true;
for t in threads {
    ok = ok && join(t);
}
if (ok) { emit("all branches joined\n"); }
"#;

fn main() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());

    // Deployment-time setup: a shared system prompt, readable by all LIPs.
    let sys = kernel
        .tokenizer()
        .encode("you are a helpful assistant that reasons step by step");
    kernel
        .preload_kv("sys_msg.kv", &sys, Mode::SHARED_READ, true)
        .expect("preload system prompt");

    // The program is a value the kernel steps itself, sandboxed by its
    // interpreter limits: no OS thread of its own.
    let program = Arc::new(parse(CLIENT_PROGRAM).expect("the client program parses"));
    let limits = InterpLimits {
        fuel: 1_000_000,
        memory_cells: 500_000,
        max_depth: 32,
    };
    let body = Body::Inline(Box::new(LipBody::new(program, limits)));
    let pid = kernel.admit("client-program", "", SpawnOpts::default(), body);

    kernel.run();
    let rec = kernel.record(pid).expect("record");
    println!("status: {:?}", rec.status);
    print!("{}", rec.output);
    println!(
        "sandboxed execution: {} syscalls, {} pred tokens, {} threads",
        rec.usage.syscalls, rec.usage.pred_tokens, rec.usage.threads_spawned
    );
}
