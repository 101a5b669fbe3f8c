//! A served program has no OS thread, and nobody can tell.
//!
//! The server hands the kernel a `LipBody` — the interpreter as a value the
//! kernel steps on its own thread — where it used to hand it a closure for
//! a pool worker. These tests run the same programs both ways, inline and
//! hosted (`spawn_process(|ctx| run_lip(..))`), and demand the same typed
//! event stream, the same output and the same exit status. (That a
//! serving run really does no hand-offs is checked over the wire, in
//! `e2e_serve.rs`.)

use std::sync::Arc;

use symphony::{
    BatchPolicy, ContinuousConfig, ExecMode, ExitStatus, Kernel, KernelConfig, Pid, SimDuration,
    SysError, TimedEvent, ToolOutcome, ToolSpec,
};
use symphony_lipscript::{parse::parse, run_lip, Image, InterpLimits, LipBody};
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
}

fn admit(
    kernel: &mut Kernel,
    way: Way,
    name: &str,
    args: &str,
    src: &str,
    limits: InterpLimits,
) -> Pid {
    match way {
        Way::Inline => {
            let program = Arc::new(parse(src).expect("test programs parse"));
            kernel.admit_inline(name, args, None, Box::new(LipBody::new(program, limits)))
        }
        Way::Hosted => {
            let src = src.to_string();
            kernel.spawn_process(name, args, move |ctx| {
                run_lip(&src, ctx, limits)
                    .map(drop)
                    .map_err(|e| SysError::ToolFailed(e.to_string()))
            })
        }
    }
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
        .map(|(name, args, src)| admit(&mut kernel, way, name, args, src, limits))
        .collect();
    assert_eq!(kernel.run(), jobs.len());
    assert_eq!(kernel.live_threads(), 0);
    let hosted = kernel
        .metrics_registry()
        .counter_value("kernel.lip.hosted_handoffs");
    if way == Way::Inline {
        assert_eq!(hosted, Some(0), "an inline run handed off to an OS thread");
    } else {
        assert!(hosted > Some(0), "the hosted run was not hosted");
    }
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
            let hosted = mixed_run(cfg, Way::Hosted);
            let what = format!("{exec:?}, syscall cost {cost_us} us");
            assert!(
                inline
                    .sessions
                    .iter()
                    .all(|(out, status)| status.is_ok() && !out.is_empty()),
                "{what}: {:?}",
                inline.sessions
            );
            assert_eq!(inline.sessions, hosted.sessions, "{what}");
            assert_eq!(inline.events.len(), hosted.events.len(), "{what}");
            for (i, (a, b)) in inline.events.iter().zip(&hosted.events).enumerate() {
                assert_eq!(a, b, "{what}: event {i}");
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
                kernel.admit_inline(name, args, None, Box::new(body))
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

/// One failing program, run both ways on kernels built by `cfg`, with
/// `meddle` called between admission and the run.
fn failing_run(
    cfg: &KernelConfig,
    src: &str,
    limits: InterpLimits,
    meddle: impl Fn(&mut Kernel, Pid),
) -> ExitStatus {
    let run = |way| {
        let mut kernel = serving_kernel(cfg.clone());
        let pid = admit(&mut kernel, way, "doomed", "a few words", src, limits);
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
    let (inline, hosted) = (run(Way::Inline), run(Way::Hosted));
    assert_eq!(inline, hosted, "{src}");
    assert!(!inline.0.is_ok(), "{src} did not fail");
    inline.0
}

#[test]
fn failing_sessions_exit_with_the_same_status_either_way() {
    let cfg = KernelConfig::for_tests();
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
        failing_run(&cfg, src, roomy, |_, _| {}),
        "index 2 out of bounds (len 2) at 3:10",
    );

    // Out of fuel, in the middle of an expression, between system calls.
    let tight = InterpLimits { fuel: 500, ..roomy };
    let src = "let kv = kv_create();\nlet n = 0;\nwhile (true) { n = n + kv_len(kv) + 1; }";
    failed_with(failing_run(&cfg, src, tight, |_, _| {}), "out of fuel");

    // Cancelled before its first system call is answered.
    let generating = agent_source(4, 16);
    let status = failing_run(&cfg, &generating, roomy, |kernel, pid| {
        assert!(kernel.cancel_process(pid));
    });
    failed_with(status, "syscall failed: cancelled");

    // Cancelled while parked in a system call (`failing_run` cancels what
    // is left parked), and failing again in the `pred` that follows.
    let src = "let kv = kv_create();\nlet m = recv();\npred(kv, tokenize(m[1]), 0);";
    failed_with(
        failing_run(&cfg, src, roomy, |_, _| {}),
        "syscall failed: cancelled at 2:9",
    );

    // The deadline passes while the program is inside `pred`; its next
    // system call is refused.
    let mut hurried = KernelConfig::for_tests();
    hurried.default_limits.deadline = Some(SimDuration::from_micros(300));
    let status = failing_run(&hurried, &generating, roomy, |_, _| {});
    failed_with(status, "syscall failed: process deadline exceeded");
}
