//! A served program has no OS thread, and nobody can tell.
//!
//! The server hands the kernel a `LipBody` — the interpreter as a value the
//! kernel steps on its own thread — where it used to hand it a closure for
//! a pool worker. These tests run the same programs three ways — inline,
//! hosted (`spawn_process(|ctx| Interpreter::run(ctx))`, the channel path
//! symbench's isolation re-run takes) and exec'd (`run_lip`: a hosted
//! closure that parses and hands its seat to a `LipBody`) — and demand the
//! same typed event stream, the same output and the same exit status.
//! (That a serving run really does no hand-offs is checked over the wire,
//! in `e2e_serve.rs`.)

use std::sync::Arc;

use symphony::{
    BatchPolicy, Body, ContinuousConfig, ExecMode, ExitStatus, Kernel, KernelConfig, Limits, Pid,
    SimDuration, SpawnOpts, SysError, TimedEvent, ToolOutcome, ToolSpec,
};
use symphony_lipscript::{
    parse::parse, run_lip, Image, InterpLimits, Interpreter, LipBody, LipError,
};
use symphony_serve::replay::{agent_source, rag_source, standard_kernel};

/// symbench's `rag_churn` publisher (`benchmark/src/workload.rs`).
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

/// Spawn and join: the paper's Figure 2.
const PARALLEL: &str = include_str!("../../../examples/lipscript/parallel.lip");

/// Draws from the thread's RNG stream every way a program can.
const SAMPLER: &str = r#"let kv = kv_create();
let toks = tokenize("sampling: " + args());
let d = pred(kv, toks, 0)[len(toks) - 1];
let pos = len(toks);
let n = 0;
while (n < 12) {
    let t = sample_t(top_k(d, 8), 0.9);
    if (n % 3 == 0) { t = sample(d); }
    if (rand() < 0.2) { sleep_ms(1); }
    emit_token(t);
    d = pred(kv, [t], pos)[0];
    pos = pos + 1;
    n = n + 1;
}
kv_remove(kv);
"#;

/// How a program gets into the kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Way {
    Inline,
    Hosted,
    Exec,
}

const WAYS: [Way; 3] = [Way::Inline, Way::Hosted, Way::Exec];

fn admit(
    kernel: &mut Kernel,
    way: Way,
    name: &str,
    args: &str,
    src: &str,
    limits: InterpLimits,
    opts: SpawnOpts,
) -> Pid {
    let body = match way {
        Way::Inline => {
            let program = Arc::new(parse(src).expect("test programs parse"));
            Body::Inline(Box::new(LipBody::new(program, limits)))
        }
        Way::Hosted => {
            let program = Arc::new(parse(src).expect("test programs parse"));
            Body::hosted(move |ctx| {
                Interpreter::new(program, limits)
                    .run(ctx)
                    .map(drop)
                    .map_err(|e| SysError::ToolFailed(LipError::from(e).to_string()))
            })
        }
        Way::Exec => {
            let src = src.to_string();
            Body::hosted(move |ctx| {
                run_lip(&src, ctx, limits)
                    .map(drop)
                    .map_err(|e| SysError::ToolFailed(e.to_string()))
            })
        }
    };
    kernel.admit(name, args, opts, body)
}

fn serving_kernel(cfg: KernelConfig) -> Kernel {
    let mut kernel = standard_kernel(cfg);
    kernel.register_tool(
        "retrieve",
        ToolSpec::fixed(SimDuration::from_millis(2), |spec| {
            ToolOutcome::Ok(format!("a document about {spec} of a dozen words or so"))
        }),
    );
    kernel.register_tool(
        "index",
        ToolSpec::fixed(SimDuration::from_millis(1), |path| {
            ToolOutcome::Ok(format!("indexed {path}"))
        }),
    );
    kernel
}

/// Everything a run leaves behind that a client or an operator could see.
#[derive(Debug, PartialEq)]
struct Trace {
    events: Vec<TimedEvent>,
    /// Per program, in admission order: output and exit status.
    sessions: Vec<(String, ExitStatus)>,
}

/// The mixed run: agents, RAG readers, a publisher, a spawning program and
/// a sampling one, all admitted at time zero and interleaved by the kernel.
fn mixed_run(cfg: KernelConfig, way: Way) -> Trace {
    let mut kernel = serving_kernel(cfg);
    let limits = InterpLimits::default();
    let jobs = [
        ("agent-1", "what is a lip?", agent_source(3, 8)),
        ("rag-1", "1|how do kv files fork?", rag_source(10)),
        ("pub-1", "16|12345|900", PUBLISHER.to_string()),
        (
            "agent-2",
            "serve programs, not prompts",
            agent_source(2, 12),
        ),
        ("parallel", "", PARALLEL.to_string()),
        ("rag-2", "2|and who schedules the threads?", rag_source(6)),
        ("sampler", "draw some tokens", SAMPLER.to_string()),
    ];
    let pids: Vec<Pid> = jobs
        .iter()
        .map(|(name, args, src)| {
            admit(
                &mut kernel,
                way,
                name,
                args,
                src,
                limits,
                SpawnOpts::default(),
            )
        })
        .collect();
    assert_eq!(kernel.run(), jobs.len());
    assert_eq!(kernel.live_threads(), 0);
    let registry = kernel.metrics_registry();
    let hosted = registry.counter_value("kernel.lip.hosted_handoffs");
    match way {
        Way::Inline => assert_eq!(hosted, Some(0), "an inline run handed off to an OS thread"),
        Way::Hosted => assert!(hosted > Some(0), "the hosted run was not hosted"),
        // Each program's start went to its closure, which exec'd.
        Way::Exec => assert_eq!(hosted, Some(jobs.len() as u64)),
    }
    assert_eq!(registry.gauge("kernel.lip.hosted_threads").get(), 0);
    let sessions = pids
        .iter()
        .map(|&pid| {
            let rec = kernel.record(pid).expect("record kept until reaped");
            (rec.output.clone(), rec.status.clone())
        })
        .collect();
    Trace {
        events: kernel.telemetry_events().to_vec(),
        sessions,
    }
}

#[test]
fn inline_and_hosted_runs_are_indistinguishable() {
    let presets = [
        ExecMode::Static(BatchPolicy::Immediate),
        ExecMode::Continuous(ContinuousConfig::default()),
    ];
    for exec in presets {
        for cost_us in [0, 2] {
            let mut cfg = KernelConfig::for_tests();
            cfg.telemetry = true;
            cfg.exec = exec;
            cfg.syscall_cost = SimDuration::from_micros(cost_us);
            let inline = mixed_run(cfg.clone(), Way::Inline);
            assert!(
                inline
                    .sessions
                    .iter()
                    .all(|(out, status)| status.is_ok() && !out.is_empty()),
                "{exec:?}, syscall cost {cost_us} us: {:?}",
                inline.sessions
            );
            for way in [Way::Hosted, Way::Exec] {
                let other = mixed_run(cfg.clone(), way);
                let what = format!("{way:?}, {exec:?}, syscall cost {cost_us} us");
                assert_eq!(inline.sessions, other.sessions, "{what}");
                assert_eq!(inline.events.len(), other.events.len(), "{what}");
                for (i, (a, b)) in inline.events.iter().zip(&other.events).enumerate() {
                    assert_eq!(a, b, "{what}: event {i}");
                }
            }
        }
    }
}

/// Two sessions stepped from one shared image, interleaved with two from
/// parses of their own, against the same four all from parses of their
/// own: what the door's image cache does to a run is nothing anybody can
/// see — the same events, outputs and usage.
#[test]
fn sessions_sharing_one_image_are_indistinguishable_from_private_parses() {
    let run = |share: bool| {
        let mut cfg = KernelConfig::for_tests();
        cfg.telemetry = true;
        cfg.exec = ExecMode::Continuous(ContinuousConfig::default());
        cfg.syscall_cost = SimDuration::from_micros(2);
        let mut kernel = serving_kernel(cfg);
        let limits = InterpLimits::default();
        let agent = agent_source(3, 8);
        let image = Image::shared(&parse(&agent).expect("parses"));
        let jobs = [
            ("agent-1", "what is a lip?", agent.clone(), true),
            ("rag-1", "1|how do kv files fork?", rag_source(10), false),
            ("agent-2", "serve programs, not prompts", agent, true),
            ("parallel", "", PARALLEL.to_string(), false),
        ];
        let pids: Vec<Pid> = jobs
            .iter()
            .map(|(name, args, src, shareable)| {
                let body = if share && *shareable {
                    LipBody::from_image(Arc::clone(&image), limits)
                } else {
                    LipBody::new(Arc::new(parse(src).expect("parses")), limits)
                };
                kernel.admit(
                    name,
                    args,
                    SpawnOpts::default(),
                    Body::Inline(Box::new(body)),
                )
            })
            .collect();
        assert_eq!(kernel.run(), jobs.len());
        // The two sharers are done with the image; only this test holds it.
        assert_eq!(Arc::strong_count(&image), 1);
        let sessions: Vec<_> = pids
            .iter()
            .map(|&pid| {
                let rec = kernel.record(pid).expect("record kept until reaped");
                assert!(rec.status.is_ok() && !rec.output.is_empty(), "{rec:?}");
                (rec.output.clone(), rec.status.clone(), rec.usage)
            })
            .collect();
        (kernel.telemetry_events().to_vec(), sessions)
    };
    let (shared, private) = (run(true), run(false));
    assert_eq!(shared.1, private.1);
    assert_eq!(shared.0.len(), private.0.len());
    for (i, (a, b)) in shared.0.iter().zip(&private.0).enumerate() {
        assert_eq!(a, b, "event {i}");
    }
}

/// One failing program, admitted with `opts`, run every way, with `meddle`
/// called between admission and the run.
fn failing_run(
    opts: SpawnOpts,
    src: &str,
    limits: InterpLimits,
    meddle: impl Fn(&mut Kernel, Pid),
) -> ExitStatus {
    let run = |way| {
        let mut kernel = serving_kernel(KernelConfig::for_tests());
        let pid = admit(&mut kernel, way, "doomed", "a few words", src, limits, opts);
        meddle(&mut kernel, pid);
        kernel.run();
        // A program parked for good is cancelled, as the door would.
        if kernel.live_threads() > 0 {
            assert!(kernel.cancel_process(pid));
            kernel.run();
        }
        assert_eq!(kernel.live_threads(), 0);
        let rec = kernel.record(pid).expect("record");
        (rec.status.clone(), rec.output.clone(), rec.usage)
    };
    let [inline, others @ ..] = WAYS.map(run);
    for (way, other) in WAYS[1..].iter().zip(others) {
        assert_eq!(inline, other, "{way:?}: {src}");
    }
    assert!(!inline.0.is_ok(), "{src} did not fail");
    inline.0
}

#[test]
fn failing_sessions_exit_with_the_same_status_either_way() {
    let now = SpawnOpts::default();
    let roomy = InterpLimits::default();
    let failed_with = |status: ExitStatus, what: &str| match status {
        ExitStatus::Error(SysError::ToolFailed(msg)) => {
            assert!(msg.contains(what), "{msg:?} does not mention {what:?}");
        }
        other => panic!("expected a failed program, got {other:?}"),
    };

    // A runtime error, some output already streamed.
    let src = "emit(\"so far so good\");\nlet xs = [1, 2];\nreturn xs[2];";
    failed_with(
        failing_run(now, src, roomy, |_, _| {}),
        "index 2 out of bounds (len 2) at 3:10",
    );

    // Out of fuel, in the middle of an expression, between system calls.
    let tight = InterpLimits { fuel: 500, ..roomy };
    let src = "let kv = kv_create();\nlet n = 0;\nwhile (true) { n = n + kv_len(kv) + 1; }";
    failed_with(failing_run(now, src, tight, |_, _| {}), "out of fuel");

    // Cancelled before its first system call is answered. The program
    // reports the refused call as a tool failure; the kernel, which
    // cancelled it, records the verdict.
    let cancelled = ExitStatus::Error(SysError::Cancelled);
    let generating = agent_source(4, 16);
    let status = failing_run(now, &generating, roomy, |kernel, pid| {
        assert!(kernel.cancel_process(pid));
    });
    assert_eq!(status, cancelled);

    // Cancelled while parked in a system call (`failing_run` cancels what
    // is left parked), and failing again in the `pred` that follows.
    let src = "let kv = kv_create();\nlet m = recv();\npred(kv, tokenize(m[1]), 0);";
    assert_eq!(failing_run(now, src, roomy, |_, _| {}), cancelled);

    // The deadline passes while the program is inside `pred`; its next
    // system call is refused.
    let deadline = Some(SimDuration::from_micros(300));
    let hurried = SpawnOpts {
        limits: Limits {
            deadline,
            ..Limits::default()
        },
        ..now
    };
    let status = failing_run(hurried, &generating, roomy, |_, _| {});
    failed_with(status, "syscall failed: process deadline exceeded");
}

/// What the served workloads write is one fingerprint chain a page: the
/// preloaded prompt and documents, agents' prefills and decodes, RAG
/// readers' forks of a document and the publisher's prefill all continue
/// their file's chain, so no page needs the side table's exact positions
/// and fingerprints (docs/KVFS.md "Page storage").
#[test]
fn served_programs_and_preloads_write_only_chain_pages() {
    let mut kernel = serving_kernel(KernelConfig::for_tests());
    assert!(kernel.store().live_pages() > 0);
    assert_eq!(kernel.store().irregular_pages_peak(), 0, "preload_kv");
    let jobs = [
        ("agent-1", "what is a lip?".to_string(), agent_source(3, 8)),
        ("agent-2", "serve programs".to_string(), agent_source(2, 12)),
        (
            "rag-0",
            "0|how do kv files fork?".to_string(),
            rag_source(10),
        ),
        ("rag-3", "3|who schedules?".to_string(), rag_source(6)),
        ("pub-1", "16|12345|900".to_string(), PUBLISHER.to_string()),
    ];
    for (name, args, src) in &jobs {
        let opts = SpawnOpts::default();
        admit(
            &mut kernel,
            Way::Inline,
            name,
            args,
            src,
            InterpLimits::default(),
            opts,
        );
    }
    assert_eq!(kernel.run(), jobs.len());
    assert!(kernel.store().stats().cow_copies > 0, "the readers forked");
    assert_eq!(kernel.store().irregular_pages_peak(), 0);
}
