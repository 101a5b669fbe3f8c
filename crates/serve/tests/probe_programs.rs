//! The benchmark's interpreter probe (`lipscript.interp_ns_per_fuel`) runs
//! the workloads' programs on `MockHost`, with no kernel, and counts a
//! program the mock cannot finish as skipped. The mock answers no threads,
//! IPC or clock, so this holds every program shape the probe interprets —
//! the agent, the RAG reader and the publisher — to running to completion
//! on a mock set up the way the probe sets it up: tools `echo`, `index`
//! and `retrieve`, and the corpus files `doc<n>.kv`.

use std::sync::Arc;

use symphony_lipscript::host::MockHost;
use symphony_lipscript::{parse::parse, InterpLimits, Interpreter};
use symphony_serve::replay::{agent_source, rag_source, RAG_DOCS};

/// A publisher as `rag_churn` runs it: fetch a document, prefill it into a
/// fresh KV file, stream one token, publish the file under a path, notify
/// an indexer, withdraw it.
const PUBLISHER: &str = r#"let parts = split(args(), "|");
let text = call_tool("retrieve", parts[1] + "|" + parts[2]);
let kv = kv_create();
let toks = tokenize(text);
let d = pred(kv, toks, 0)[len(toks) - 1];
emit_token(argmax(d));
let path = "pub/" + parts[0] + ".kv";
kv_link(kv, path);
let ack = call_tool("index", path);
emit("[published " + str(len(toks)) + " tokens: " + ack + "]");
kv_unlink(path);
kv_remove(kv);
"#;

/// The probe's mock: its tools, and `RAG_DOCS` documents of 32 tokens.
fn probe_mock(args: &str) -> MockHost {
    let mut host = MockHost::new(args);
    for tool in ["echo", "index"] {
        host.tools.insert(tool.to_string(), "ok".to_string());
    }
    host.tools.insert(
        "retrieve".to_string(),
        "a retrieved document of a few words to prefill".to_string(),
    );
    for doc in 0..RAG_DOCS {
        let handle = host.files.len() as u64;
        host.files
            .push(Some((0..32).map(|i| (i as u32, i as u32)).collect()));
        host.names.insert(format!("doc{doc}.kv"), handle);
    }
    host
}

#[test]
fn the_interpreter_probes_programs_finish_on_the_mock() {
    let mut programs = Vec::new();
    for rounds in 2..=6 {
        for seg in [12, 16] {
            programs.push((agent_source(rounds, seg), format!("task {rounds}")));
        }
    }
    for topic in 0..RAG_DOCS {
        programs.push((rag_source(16), format!("{topic}|what is topic {topic}")));
    }
    programs.push((PUBLISHER.to_string(), "16|12345|900".to_string()));
    for (src, args) in programs {
        let program = Arc::new(parse(&src).expect("the workload's programs parse"));
        let mut interp = Interpreter::new(program, InterpLimits::default());
        let ran = interp.run(&mut probe_mock(&args));
        assert!(ran.is_ok(), "{ran:?} with args {args:?}:\n{src}");
        assert!(interp.fuel_used() > 0);
    }
}
