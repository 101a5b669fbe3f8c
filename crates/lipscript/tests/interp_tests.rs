//! Interpreter semantics, sandboxing, and kernel integration tests.

use symphony_lipscript::host::MockHost;
use symphony_lipscript::{parse::parse, InterpLimits, Interpreter, LipError, RuntimeError, Value};

mod harness;

/// Parses `src` and runs it on `host` under `limits`.
fn run_on(src: &str, host: &mut MockHost, limits: InterpLimits) -> Result<Value, LipError> {
    let program = std::sync::Arc::new(parse(src)?);
    Ok(Interpreter::new(program, limits).run(host)?)
}

fn run(src: &str) -> Result<(Value, MockHost), LipError> {
    let mut host = MockHost::new("the args");
    let v = run_on(src, &mut host, InterpLimits::default())?;
    Ok((v, host))
}

fn run_value(src: &str) -> Value {
    run(src).unwrap().0
}

fn runtime_err(src: &str) -> RuntimeError {
    match run(src).unwrap_err() {
        LipError::Runtime(e) => e,
        other => panic!("expected runtime error, got {other:?}"),
    }
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(run_value("return 1 + 2 * 3;"), Value::Int(7));
    assert_eq!(run_value("return (1 + 2) * 3;"), Value::Int(9));
    assert_eq!(run_value("return 7 % 3;"), Value::Int(1));
    assert_eq!(run_value("return 7 / 2;"), Value::Int(3));
    assert_eq!(run_value("return 7.0 / 2;"), Value::Float(3.5));
    assert_eq!(run_value("return 1 + 2.5;"), Value::Float(3.5));
    assert_eq!(run_value("return -5;"), Value::Int(-5));
}

#[test]
fn comparisons_and_logic() {
    assert_eq!(run_value("return 1 < 2 && 3 >= 3;"), Value::Bool(true));
    assert_eq!(run_value("return 1 == 2 || false;"), Value::Bool(false));
    assert_eq!(run_value("return !0;"), Value::Bool(true));
    assert_eq!(run_value(r#"return "a" < "b";"#), Value::Bool(true));
    assert_eq!(run_value(r#"return "x" == "x";"#), Value::Bool(true));
}

#[test]
fn short_circuit_does_not_eval_rhs() {
    // The rhs would be a division by zero if evaluated.
    assert_eq!(
        run_value("let x = 0; return x != 0 && 1 / x > 0;"),
        Value::Bool(false)
    );
    assert_eq!(
        run_value("let x = 0; return x == 0 || 1 / x > 0;"),
        Value::Bool(true)
    );
}

#[test]
fn strings_and_lists() {
    assert_eq!(
        run_value(r#"return "a" + "b" + str(3);"#),
        Value::Str("ab3".into())
    );
    assert_eq!(
        run_value("return [1, 2] + [3];"),
        Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
    );
    assert_eq!(run_value("return len([1, 2, 3]);"), Value::Int(3));
    assert_eq!(run_value("let xs = push([1], 2); return xs[1];"), Value::Int(2));
    assert_eq!(run_value("return slice([1,2,3,4], 1, 3);"),
        Value::List(vec![Value::Int(2), Value::Int(3)]));
    assert_eq!(run_value("return contains([1,2], 2);"), Value::Bool(true));
    assert_eq!(run_value("return range(2, 5);"),
        Value::List(vec![Value::Int(2), Value::Int(3), Value::Int(4)]));
    assert_eq!(run_value(r#"return split("a,b", ",");"#),
        Value::List(vec![Value::Str("a".into()), Value::Str("b".into())]));
    assert_eq!(run_value(r#"return join_str([1, 2], "-");"#), Value::Str("1-2".into()));
}

#[test]
fn index_assignment_mutates() {
    assert_eq!(
        run_value("let xs = [1, 2, 3]; xs[1] = 9; return xs[1];"),
        Value::Int(9)
    );
}

#[test]
fn control_flow() {
    assert_eq!(
        run_value(
            "let n = 0; let i = 0;
             while (i < 10) { i = i + 1; if (i % 2 == 0) { continue; } n = n + i; }
             return n;"
        ),
        Value::Int(25)
    );
    assert_eq!(
        run_value("let n = 0; for x in [1, 2, 3, 4] { if (x == 3) { break; } n = n + x; } return n;"),
        Value::Int(3)
    );
    assert_eq!(
        run_value("if (1 < 2) { return 10; } else { return 20; }"),
        Value::Int(10)
    );
}

#[test]
fn functions_and_recursion() {
    assert_eq!(
        run_value("fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } return fib(12);"),
        Value::Int(144)
    );
    assert_eq!(
        run_value("fn add(a, b) { return a + b; } return add(40, 2);"),
        Value::Int(42)
    );
    // Functions see only their own scope.
    let e = runtime_err("let g = 1; fn f() { return g; } return f();");
    assert!(e.to_string().contains("undefined name `g`"));
}

#[test]
fn scoping() {
    // Block scopes shadow and disappear.
    assert_eq!(
        run_value("let x = 1; if (true) { let x = 2; } return x;"),
        Value::Int(1)
    );
    // Assignment reaches outer scopes.
    assert_eq!(
        run_value("let x = 1; if (true) { x = 2; } return x;"),
        Value::Int(2)
    );
}

#[test]
fn runtime_errors_have_kinds() {
    assert!(runtime_err("return 1 / 0;").to_string().contains("division by zero"));
    assert!(runtime_err("return [1][5];").to_string().contains("out of bounds"));
    assert!(runtime_err("return y;").to_string().contains("undefined"));
    assert!(runtime_err("return 1 + [];").to_string().contains("type error"));
    assert!(runtime_err("f(1);").to_string().contains("undefined"));
    assert!(runtime_err("fn f(a) { return a; } return f();").to_string().contains("arity"));
    assert!(runtime_err("break;").to_string().contains("outside a loop"));
}

#[test]
fn fuel_exhaustion_stops_infinite_loops() {
    let mut host = MockHost::new("");
    let limits = InterpLimits {
        fuel: 10_000,
        ..Default::default()
    };
    let err = run_on("while (true) { let x = 1; }", &mut host, limits).unwrap_err();
    assert!(err.to_string().contains("out of fuel"), "{err}");
}

#[test]
fn memory_exhaustion_stops_allocation_bombs() {
    let mut host = MockHost::new("");
    let limits = InterpLimits {
        memory_cells: 10_000,
        ..Default::default()
    };
    let err = run_on(
        "let xs = [0]; while (true) { xs = xs + xs; }",
        &mut host,
        limits,
    )
    .unwrap_err();
    assert!(err.to_string().contains("out of memory"), "{err}");
}

#[test]
fn depth_limit_stops_runaway_recursion() {
    let mut host = MockHost::new("");
    let limits = InterpLimits {
        max_depth: 16,
        ..Default::default()
    };
    let err = run_on(
        "fn f(n) { return f(n + 1); } return f(0);",
        &mut host,
        limits,
    )
    .unwrap_err();
    assert!(err.to_string().contains("call depth"), "{err}");
}

#[test]
fn host_args_emit_and_tools() {
    let (_, host) = run(r#"emit(args()); emit("!");"#).unwrap();
    assert_eq!(host.emitted, "the args!");

    let mut host = MockHost::new("");
    host.tools.insert("weather".into(), "sunny in {args}".into());
    let v = run_on(
        r#"return call_tool("weather", "banff");"#,
        &mut host,
        InterpLimits::default(),
    )
    .unwrap();
    assert_eq!(v, Value::Str("sunny in banff".into()));

    // Unknown tool is a runtime error, not a crash.
    let err = run_on(
        r#"call_tool("nope", "");"#,
        &mut host,
        InterpLimits::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("syscall failed"));
}

#[test]
fn generation_loop_against_mock_model() {
    let src = r#"
        let kv = kv_create();
        let prompt = tokenize(args());
        let dists = pred(kv, prompt, 0);
        let d = dists[len(dists) - 1];
        let pos = len(prompt);
        let out = [];
        while (len(out) < 32) {
            let t = argmax(d);
            if (t == eos()) { break; }
            out = push(out, t);
            d = pred(kv, [t], pos)[0];
            pos = pos + 1;
        }
        emit_tokens(out);
        return len(out);
    "#;
    let (v, host) = run(src).unwrap();
    let Value::Int(n) = v else { panic!("{v:?}") };
    assert!(n > 0, "should generate something");
    assert!(!host.emitted.is_empty());
    // The mock's EOS gate fires every 13th entry, so the loop ended early.
    assert!(n < 32, "mock model should have emitted EOS, got {n}");
}

#[test]
fn kv_operations_roundtrip() {
    let src = r#"
        let a = kv_create();
        pred(a, [1, 2, 3, 4], 0);
        let b = kv_fork(a);
        pred(b, [5], 4);
        kv_link(a, "shared.kv");
        let c = kv_open("shared.kv");
        let lens = [kv_len(a), kv_len(b), kv_len(c)];
        kv_truncate(b, 2);
        lens = push(lens, kv_len(b));
        let d = kv_extract(a, 1, 3);
        lens = push(lens, kv_len(d));
        let m = kv_merge([a, d]);
        lens = push(lens, kv_len(m));
        return lens;
    "#;
    let (v, _) = run(src).unwrap();
    assert_eq!(
        v,
        Value::List(vec![
            Value::Int(4),
            Value::Int(5),
            Value::Int(4),
            Value::Int(2),
            Value::Int(2),
            Value::Int(6)
        ])
    );
}

#[test]
fn dist_operations() {
    let src = r#"
        let kv = kv_create();
        let d = pred(kv, [7], 0)[0];
        let t = argmax(d);
        let p = prob(d, t);
        let k = top_k(d, 1);
        let c = constrain(d, [t, t + 1]);
        return [p > 0.0, argmax(k) == t, argmax(c) == t, entropy(d) > 0.0, sample(top_k(d,1)) == t];
    "#;
    let (v, _) = run(src).unwrap();
    assert_eq!(v, Value::List(vec![Value::Bool(true); 5]));
}

#[test]
fn spawn_and_join_inline() {
    let src = r#"
        fn worker(n) { emit("w" + str(n)); return n; }
        let t1 = spawn("worker", [1]);
        let t2 = spawn("worker", [2]);
        return [join(t1), join(t2)];
    "#;
    let ran = harness::run_src(src);
    let v = ran.result.expect("it ends").unwrap();
    assert_eq!(v, Value::List(vec![Value::Bool(true), Value::Bool(true)]));
    assert_eq!(ran.output, "w1w2");
    // Spawning an unknown function is an error.
    let ran = harness::run_src(r#"spawn("nope", []);"#);
    let e = ran.result.expect("it ends").unwrap_err();
    assert!(e.to_string().contains("undefined"));
}

#[test]
fn sleep_and_now() {
    let ran = harness::run_src("sleep_ms(250); return now_ms();");
    assert_eq!(ran.result.expect("it ends").unwrap(), Value::Float(250.0));
}

/// Runs `src` as a process on a test kernel, admitted as the inline body a
/// served program is: its exit status and output.
fn on_kernel(src: &str) -> (symphony::ExitStatus, String) {
    use symphony::{Body, Kernel, KernelConfig, SpawnOpts};
    use symphony_lipscript::LipBody;

    let body = LipBody::parse(src, InterpLimits::default()).expect("parses");
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let opts = SpawnOpts::default();
    let pid = kernel.admit("lipscript", "", opts, Body::Inline(Box::new(body)));
    kernel.run();
    let rec = kernel.record(pid).unwrap();
    (rec.status.clone(), rec.output.clone())
}

#[test]
fn a_float_is_unequal_to_a_non_number() {
    // `nucleus != nil` used to fail "cannot apply Ne to float and nil".
    let src = r#"let p = 0.9;
        emit(str(p != nil) + " " + str(p == nil) + " " + str(p == "0.9") + " " + str([p] != p));"#;
    let (status, output) = on_kernel(src);
    assert!(status.is_ok(), "{status:?}");
    assert_eq!(output, "true false false true");
    let e = runtime_err("return 0.9 < nil;");
    assert!(e.to_string().contains("cannot apply Lt"), "{e}");
}

#[test]
fn pred_positions_past_u32_fail_at_the_call() {
    // Position 2^32 used to wrap to 0 (in a debug build, crash the thread).
    let src = "let kv = kv_create(); pred(kv, [1], 4294967296); emit(str(kv_next_pos(kv)));";
    let e = runtime_err(src);
    assert!(e.to_string().contains("position 4294967296 out of range"), "{e}");
    let (status, output) = on_kernel(src);
    let status = format!("{status:?}");
    assert!(status.contains("position 4294967296 out of range"), "{status}");
    assert_eq!(output, "");
    // The second token's position would be 2^32.
    let e = runtime_err("pred(kv_create(), [1, 2], 4294967295);");
    assert!(e.to_string().contains("out of range"), "{e}");
}

#[test]
fn a_file_ending_at_u32_max_has_no_next_position() {
    // `u32::MAX` is a position a program may write, but nothing follows
    // it: `kv_next_pos` used to answer `position + 1`, which wrapped to 0
    // (in a debug build, panicked the kernel thread).
    let next_after = |pos: u32| {
        format!("let kv = kv_create(); pred_at(kv, [7], [{pos}]); emit(str(kv_next_pos(kv)));")
    };
    const BAD_RANGE: &str = "kv: index or range out of bounds";
    let last = next_after(u32::MAX);
    let ran = harness::run_src(&last);
    let e = ran.result.expect("it ends").unwrap_err();
    assert!(e.to_string().contains(BAD_RANGE), "{e}");
    let (status, output) = on_kernel(&last);
    let status = format!("{status:?}");
    assert!(status.contains(BAD_RANGE), "{status}");
    assert_eq!(output, "");
    let below = next_after(u32::MAX - 1);
    let ran = harness::run_src(&below);
    assert!(matches!(ran.result, Some(Ok(_))), "{ran:?}");
    assert_eq!(ran.output, "4294967295");
    let (status, output) = on_kernel(&below);
    assert!(status.is_ok(), "{status:?}");
    assert_eq!(output, "4294967295");
}

#[test]
fn a_sleep_past_the_end_of_time_saturates() {
    // 18446744073710 ms is past u64 nanoseconds; it used to wrap to 0.448 ms.
    let src = "sleep_ms(18446744073710); emit(str(now_ms()));";
    let ran = harness::run_src(src);
    assert!(matches!(ran.result, Some(Ok(_))), "{ran:?}");
    let (status, output) = on_kernel(src);
    assert!(status.is_ok(), "{status:?}");
    for now_ms in [ran.output, output] {
        let now_ms: f64 = now_ms.parse().unwrap();
        assert!(now_ms > 1.8e13, "{now_ms}");
    }
}

#[test]
fn builtin_names_cannot_be_called_as_user_fns() {
    // A user function shadowing a builtin is simply never reached; builtins
    // win. Document via behaviour: `len` still works on lists.
    let v = run_value("fn len(x) { return 99; } return len([1, 2]);");
    assert_eq!(v, Value::Int(2));
}

#[test]
fn kernel_integration_end_to_end() {
    use symphony::{Kernel, KernelConfig};

    let src = r#"
        // Parallel branch generation with a shared forked prefix (Fig. 2).
        fn branch(kv, seed) {
            let d = pred(kv, [seed], kv_next_pos(kv))[0];
            let n = 0;
            while (n < 6) {
                let t = argmax(d);
                if (t == eos()) { break; }
                d = pred(kv, [t], kv_next_pos(kv))[0];
                n = n + 1;
            }
            emit("[done " + str(seed) + "]");
            return n;
        }
        let prefix = kv_create();
        pred(prefix, tokenize(args()), 0);
        let t1 = spawn("branch", [kv_fork(prefix), 11]);
        let t2 = spawn("branch", [kv_fork(prefix), 12]);
        let ok1 = join(t1);
        let ok2 = join(t2);
        if (ok1 && ok2) { emit("all ok"); }
    "#
    .to_string();

    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let pid = kernel.spawn_process("lipscript", "the shared prefix", move |ctx| {
        symphony_lipscript::run_lip(&src, ctx, InterpLimits::default())
            .map(|_| ())
            .map_err(|e| symphony::SysError::ToolFailed(e.to_string()))
    });
    kernel.run();
    let rec = kernel.record(pid).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    assert!(rec.output.contains("[done 11]"));
    assert!(rec.output.contains("[done 12]"));
    assert!(rec.output.contains("all ok"));
    kernel.store().verify().unwrap();
}

/// A failed system call ends the thread that made it, so a LipScript
/// program retries a tool by making each attempt in a thread of its own:
/// `join` says whether it succeeded, and the program sleeps a jittered
/// backoff before the next one (docs/RESILIENCE.md, "A failed tool call").
#[test]
fn a_program_retries_a_failed_tool_call_in_a_thread() {
    use symphony::{Kernel, KernelConfig, SimDuration, ToolOutcome, ToolSpec};

    let src = r##"
        fn attempt(q, n) { emit(call_tool("api", q + "#" + str(n))); }

        let tries = 1;
        let backoff = 5;
        while (!join(spawn("attempt", [args(), tries]))) {
            if (tries == 4) { break; }
            sleep_ms(int(backoff * (0.9 + 0.2 * rand())));
            backoff = backoff * 2;
            tries = tries + 1;
        }
        emit(" after " + str(tries));
    "##
    .to_string();
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    // The first two attempts fail: decided by the args, not a counter.
    kernel.register_tool(
        "api",
        ToolSpec::fixed(SimDuration::from_millis(1), |args| {
            match args.rsplit_once('#') {
                Some((q, n)) if n.parse::<u32>().is_ok_and(|n| n > 2) => {
                    ToolOutcome::Ok(format!("page({q})"))
                }
                _ => ToolOutcome::Failed("503".into()),
            }
        }),
    );
    let pid = kernel.spawn_process("lipscript", "q", move |ctx| {
        symphony_lipscript::run_lip(&src, ctx, InterpLimits::default())
            .map(drop)
            .map_err(|e| symphony::SysError::ToolFailed(e.to_string()))
    });
    kernel.run();
    let rec = kernel.record(pid).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    assert_eq!(rec.output, "page(q) after 3");
    assert_eq!(kernel.tool_invocations(), 3, "one call per attempt");
    // Three 1 ms attempts and two backoffs of about 5 and 10 ms.
    let took = rec.latency().unwrap();
    assert!(
        (SimDuration::from_millis(16)..=SimDuration::from_millis(20)).contains(&took),
        "{took}"
    );
}

#[test]
fn kernel_sandbox_kills_hostile_program_not_server() {
    use symphony::{Kernel, KernelConfig};

    let hostile = "while (true) { let x = [1, 2, 3]; }".to_string();
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let evil = kernel.spawn_process("evil", "", move |ctx| {
        symphony_lipscript::run_lip(
            &hostile,
            ctx,
            InterpLimits {
                fuel: 50_000,
                ..Default::default()
            },
        )
        .map(|_| ())
        .map_err(|e| symphony::SysError::ToolFailed(e.to_string()))
    });
    // An innocent program runs alongside.
    let good = kernel.spawn_process("good", "", |ctx| ctx.emit("fine"));
    kernel.run();
    let evil_rec = kernel.record(evil).unwrap();
    assert!(!evil_rec.status.is_ok());
    assert!(format!("{:?}", evil_rec.status).contains("out of fuel"));
    assert!(kernel.record(good).unwrap().status.is_ok());
    assert_eq!(kernel.live_threads(), 0);
}

/// A durable LipScript program that draws from its RNG stream: it decodes
/// with `sample`, reads `rand()`, spawns a sibling that does both, consults
/// a tool, and reports.
const DURABLE_AGENT: &str = r#"fn aside(n) {
    let kv = kv_create();
    let p = tokenize("aside " + str(n));
    let t = sample(pred(kv, p, 0)[len(p) - 1]);
    emit("[aside " + str(t) + " " + str(rand()) + "]");
    kv_remove(kv);
    return t;
}
let prompt = tokenize("investigate " + args());
let kv = kv_create();
let d = pred(kv, prompt, 0)[len(prompt) - 1];
let pos = len(prompt);
let out = [];
while (len(out) < 5) {
    let t = sample(d);
    out = push(out, t);
    d = pred(kv, [t], pos)[0];
    pos = pos + 1;
}
join(spawn("aside", [len(out)]));
let doc = call_tool("search", args());
emit(detokenize(out) + "|" + str(rand()) + "|" + doc);
kv_remove(kv);
"#;

/// A durable program that decodes by `sample`, so every token it keeps is
/// a draw from its main thread's RNG stream.
const DURABLE_SAMPLER: &str = r#"let kv = kv_create();
let prompt = tokenize("sample " + args());
let d = pred(kv, prompt, 0)[len(prompt) - 1];
let pos = len(prompt);
let out = [];
while (len(out) < 6) {
    let t = sample(d);
    out = push(out, t);
    d = pred(kv, [t], pos)[0];
    pos = pos + 1;
}
emit(detokenize(out));
kv_remove(kv);
"#;

/// A durable program whose main thread spawns three helpers, then joins
/// them; each helper prefills, samples and reports.
const DURABLE_SPAWNER: &str = r#"fn helper(n) {
    let kv = kv_create();
    let p = tokenize("helper " + str(n) + " " + args());
    let t = sample(pred(kv, p, 0)[len(p) - 1]);
    emit("<" + str(n) + ":" + str(t) + ">");
    kv_remove(kv);
}
let tids = [];
let i = 0;
while (i < 3) {
    tids = push(tids, spawn("helper", [i]));
    i = i + 1;
}
let joined = 0;
for tid in tids {
    if (join(tid)) { joined = joined + 1; }
}
emit(" joined " + str(joined));
"#;

/// A durable program that fails at run time after its tool call: its
/// status carries the error and the line:col it was raised at, which a
/// re-print of the program (no comment, one statement a line) would move.
const DURABLE_FAILER: &str = r#"// Reads past the end of a one-element list.
let doc = call_tool("search", args());
emit(doc);
let parts = [doc];  emit(parts[len(parts) + 2]);
"#;

/// The durable sweep's programs by name: three agents, then one of each
/// of the other shapes.
const DURABLE_FLEET: [(&str, &str); 6] = [
    ("agent0", DURABLE_AGENT),
    ("agent1", DURABLE_AGENT),
    ("agent2", DURABLE_AGENT),
    ("sampler", DURABLE_SAMPLER),
    ("spawner", DURABLE_SPAWNER),
    ("failer", DURABLE_FAILER),
];

/// `run_lip` as a durable image: parse, then exec. Recovery finds it by
/// name and re-invokes it, and it execs again.
fn durable_lip_image(src: &'static str) -> symphony::ProgramImage {
    std::sync::Arc::new(move |ctx| {
        symphony_lipscript::run_lip(src, ctx, InterpLimits::default())
            .map(drop)
            .map_err(|e| symphony::SysError::ToolFailed(e.to_string()))
    })
}

/// Kills the kernel at every syscall boundary of a fleet of durable
/// LipScript programs, recovers, and demands what an uninterrupted run
/// gives: equal outputs and statuses, error text included, and every tool
/// effect exactly once. It runs twice. First as `run_lip` images, the
/// path the benchmark's durable workload takes, recovered by name. Then
/// admitted inline as `LipBody`s whose admission frames carry their text,
/// recovered from the log alone by a resolver that ignores the name — and
/// never handed to a pool worker.
#[test]
fn durable_run_lip_recovers_equivalently_at_every_boundary() {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use symphony::{
        Body, ExitStatus, FaultPlan, Kernel, KernelConfig, SimDuration, SimTime, SpawnOpts,
        SysError, ToolOutcome, ToolSpec, WalConfig,
    };
    use symphony_lipscript::{rebuild, LipBody};

    let tool_calls = DURABLE_FLEET.len() as u64 - 2;
    // An image is the limits, then the text: bytes short of the limits,
    // a text that is not UTF-8 or one that does not parse rebuild nothing.
    let limits = [0u8; 20];
    assert!(rebuild(&limits[..19]).is_none());
    assert!(rebuild(&[&limits[..], &[0xff]].concat()).is_none());
    assert!(rebuild(&[&limits[..], b"let = ;"].concat()).is_none());
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!(
            "symphony-lip-durable-{}-{name}",
            std::process::id()
        ))
    };
    let config = |wal: &std::path::Path, crash_at: Option<u64>| {
        let mut cfg = KernelConfig::for_tests();
        cfg.wal = Some(WalConfig::new(wal).with_checkpoint_every(SimDuration::from_millis(3)));
        cfg.faults = FaultPlan {
            crash_at_boundary: crash_at,
            ..FaultPlan::default()
        };
        cfg
    };
    let with_tool = |k: &mut Kernel, fired: &Arc<AtomicU64>| {
        let fired = Arc::clone(fired);
        k.register_tool(
            "search",
            ToolSpec::fixed(SimDuration::from_millis(4), move |args| {
                fired.fetch_add(1, Ordering::SeqCst);
                ToolOutcome::Ok(format!("doc({args})"))
            }),
        );
    };
    let admit = |k: &mut Kernel, inline: bool| {
        for (i, (name, src)) in DURABLE_FLEET.into_iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_millis(2 * i as u64);
            let body = if inline {
                let body = LipBody::parse(src, InterpLimits::default()).expect("parses");
                Body::Inline(Box::new(body))
            } else {
                Body::from(durable_lip_image(src))
            };
            let opts = SpawnOpts {
                durable: true,
                ..SpawnOpts::at(at)
            };
            k.admit(name, &format!("topic {i}"), opts, body);
        }
    };
    let by_name = |name: &str, _: Option<&[u8]>| {
        let (_, src) = DURABLE_FLEET.into_iter().find(|(n, _)| *n == name)?;
        Some(Body::from(durable_lip_image(src)))
    };
    let from_the_log = |_: &str, image: Option<&[u8]>| image.and_then(rebuild);
    let outcomes = |k: &Kernel| -> BTreeMap<String, (String, ExitStatus)> {
        k.records()
            .filter(|r| r.exited_at.is_some())
            .map(|r| (r.name.clone(), (r.output.clone(), r.status.clone())))
            .collect()
    };
    let handoffs = |k: &Kernel| {
        k.metrics_registry()
            .counter_value("kernel.lip.hosted_handoffs")
    };

    let base_path = tmp("base.wal");
    let fired = Arc::new(AtomicU64::new(0));
    let mut k = Kernel::new(config(&base_path, None));
    with_tool(&mut k, &fired);
    admit(&mut k, false);
    assert_eq!(k.run(), DURABLE_FLEET.len());
    let baseline = outcomes(&k);
    let agents = baseline
        .iter()
        .filter(|(name, _)| name.starts_with("agent"));
    assert!(
        agents.clone().count() == 3
            && agents.into_iter().all(|(_, (out, status))| status.is_ok()
                && out.contains("[aside ")
                && out.contains("|doc(topic")),
        "{baseline:?}"
    );
    assert!(baseline["sampler"].1.is_ok(), "{baseline:?}");
    assert_eq!(
        baseline["spawner"].0.matches('<').count(),
        3,
        "{baseline:?}"
    );
    assert!(baseline["spawner"].0.ends_with(" joined 3"), "{baseline:?}");
    let (out, status) = &baseline["failer"];
    assert_eq!(out, "doc(topic 5)");
    // Where the error was raised is in its text: recovery must run the
    // text that was admitted, not a re-print of it.
    let raised = "runtime error: index 3 out of bounds (len 1) at 4:31";
    assert_eq!(
        status,
        &ExitStatus::Error(SysError::ToolFailed(raised.into()))
    );
    let (boundaries, invocations) = (k.syscall_boundaries(), k.tool_invocations());
    assert_eq!(invocations, tool_calls);
    // Each program's closure got its start and exec'd; no worker is kept.
    assert_eq!(handoffs(&k), Some(DURABLE_FLEET.len() as u64));
    assert_eq!(
        k.metrics_registry()
            .gauge("kernel.lip.hosted_threads")
            .get(),
        0
    );
    drop(k);
    assert!(boundaries > 20, "a real kill-point space: {boundaries}");

    // Admitted inline, the same programs cross the same boundaries and
    // give the same outcomes, with no hand-off.
    let inline_path = tmp("inline.wal");
    let mut k = Kernel::new(config(&inline_path, None));
    with_tool(&mut k, &Arc::new(AtomicU64::new(0)));
    admit(&mut k, true);
    assert_eq!(k.run(), DURABLE_FLEET.len());
    assert_eq!(outcomes(&k), baseline);
    assert_eq!(
        (k.syscall_boundaries(), k.tool_invocations()),
        (boundaries, invocations)
    );
    assert_eq!(handoffs(&k), Some(0));
    drop(k);
    std::fs::remove_file(&inline_path).ok();

    for inline in [false, true] {
        for b in 1..=boundaries {
            let path = tmp(&format!("{b}.wal"));
            let fired = Arc::new(AtomicU64::new(0));
            let crashed_invocations = {
                let mut k = Kernel::new(config(&path, Some(b)));
                with_tool(&mut k, &fired);
                admit(&mut k, inline);
                k.run();
                assert_eq!(k.crashed(), Some(b), "kill-point {b} fires");
                if inline {
                    assert_eq!(handoffs(&k), Some(0), "boundary {b}: first run");
                }
                k.tool_invocations()
            };
            let recovered = if inline {
                Kernel::recover(config(&path, None), from_the_log)
            } else {
                Kernel::recover(config(&path, None), by_name)
            };
            let (mut k, report) = recovered.expect("recoverable WAL");
            with_tool(&mut k, &fired);
            assert_eq!(
                report.lost, 0,
                "inline {inline}, boundary {b}: every program is rebuilt"
            );
            k.run();
            assert!(k.crashed().is_none());
            assert_eq!(
                outcomes(&k),
                baseline,
                "inline {inline}, boundary {b}: outputs and statuses"
            );
            assert_eq!(
                crashed_invocations + k.tool_invocations(),
                invocations,
                "inline {inline}, boundary {b}: exactly-once tool invocations"
            );
            assert_eq!(
                fired.load(Ordering::SeqCst),
                tool_calls,
                "inline {inline}, boundary {b}: a tool fired twice"
            );
            if inline {
                assert_eq!(handoffs(&k), Some(0), "boundary {b}: recovery");
            }
            std::fs::remove_file(&path).ok();
        }
    }
    std::fs::remove_file(&base_path).ok();
}

/// A `pred` reply builds a distribution only where the program reads it,
/// but it is metered as if all were built: the fuel and memory cells of a
/// program that reads, samples and stores `pred` results are pinned to the
/// counts it had when every distribution was built eagerly.
#[test]
fn a_lazy_pred_reply_meters_as_an_eager_one() {
    use std::sync::Arc;
    use symphony::{Kernel, KernelConfig, SysError};
    use symphony_lipscript::{parse::parse, Interpreter};

    const SRC: &str = r#"
        let kv = kv_create();
        let toks = tokenize("a prompt whose reply is read at a few places");
        let ds = pred(kv, toks, 0);
        let last = ds[len(ds) - 1];
        let kept = [last, ds[0], top_k(last, 3)];
        let t = sample(last);
        let more = pred(kv, [t], len(toks));
        emit(str(argmax(kept[1])) + " " + str(len(ds)) + " " + str(prob(more[0], t) > 0.0));
    "#;
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let pid = kernel.spawn_process("metered", "", |ctx| {
        let program = Arc::new(parse(SRC).map_err(|e| SysError::ToolFailed(e.to_string()))?);
        let mut interp = Interpreter::new(program, InterpLimits::default());
        interp
            .run(ctx)
            .map_err(|e| SysError::ToolFailed(e.to_string()))?;
        let (fuel, cells) = (interp.fuel_used(), interp.mem_used());
        ctx.emit(&format!(" fuel={fuel} cells={cells}"))
    });
    kernel.run();
    let rec = kernel.record(pid).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    assert_eq!(rec.output, "447 20 true fuel=60 cells=591");
    // `top_k`, `sample`, `argmax` and `prob`: one build each, of the 21
    // distributions the two replies hold.
    let built = kernel.metrics_snapshot().counter("gpu.dists_built");
    assert_eq!(built, Some(4));
}

#[test]
fn a_nan_or_negative_sleep_is_refused() {
    for src in ["sleep_ms(0.0 / 0.0);", "sleep_ms(-0.5);", "sleep_ms(-1);"] {
        let ran = harness::run_src(src);
        let e = ran.result.expect("it ends").unwrap_err();
        let refused = e.to_string().contains("sleep duration must be >= 0");
        assert!(refused, "{src}: {e}");
    }
}

/// A full KV pool, on the kernel: the program sees the refused prefill as
/// an error value, frees its own pages and sends the same `pred` again.
#[test]
fn a_program_retries_a_pred_the_pool_refused() {
    use symphony::{Body, Kernel, KernelConfig, SpawnOpts};
    use symphony_lipscript::LipBody;

    let src = r#"
        let held = kv_create();
        pred(held, range(1, 401), 0);
        let kv = kv_create();
        let doc = range(1, 3001);
        let first = try pred(kv, doc, 0);
        emit(str(is_err(first)) + " " + err_kind(first) + " " + str(first) + "; ");
        kv_remove(held);
        let second = try pred(kv, doc, 0);
        emit(str(is_err(second)) + " " + str(len(second)) + " " + str(kv_len(kv)));
        if (first) { emit(" an error is truthy"); }
    "#;
    let mut cfg = KernelConfig::for_tests();
    // 800 pages of 4 tokens: the 750-page prefill fits only once the
    // 100-page file is gone.
    cfg.gpu_kv_bytes_override = Some(800 * 4 * cfg.model.kv_bytes_per_token());
    let mut kernel = Kernel::new(cfg);
    let body = LipBody::parse(src, InterpLimits::default()).expect("parses");
    let body = Body::Inline(Box::new(body));
    let pid = kernel.admit("retry", "", SpawnOpts::default(), body);
    kernel.run();
    let rec = kernel.record(pid).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    let want = "true NoGpuMemory <err:NoGpuMemory>; false 3000 3000";
    assert_eq!(rec.output, want);
    // The refused prefill counts nothing.
    assert_eq!(rec.usage.pred_tokens, 3_400);
}

/// `kv_chmod`, `kv_swap_out` and `kv_swap_in` are the kernel's calls:
/// another process may open a file shared for reading, and the kernel
/// refuses it a write, which its `try` reads.
#[test]
fn modes_and_swaps_are_system_calls() {
    use symphony::{Body, Kernel, KernelConfig, SimDuration, SimTime, SpawnOpts};
    use symphony_lipscript::LipBody;

    let writer = r#"
        let kv = kv_create();
        pred(kv, [1, 2, 3], 0);
        kv_link(kv, "shared.kv");
        kv_chmod(kv, "r");
        kv_swap_out(kv);
        kv_swap_in(kv);
        sleep_ms(1000);
    "#;
    let reader = r#"
        let f = kv_open("shared.kv");
        emit(str(kv_len(f)) + " " + err_kind(try kv_truncate(f, 1)));
    "#;
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let mut admit = |name, src, at| {
        let body = LipBody::parse(src, InterpLimits::default()).expect("parses");
        let opts = SpawnOpts::at(SimTime::ZERO + SimDuration::from_millis(at));
        kernel.admit(name, "", opts, Body::Inline(Box::new(body)))
    };
    let w = admit("writer", writer, 0);
    let r = admit("reader", reader, 500);
    kernel.run();
    for pid in [w, r] {
        let rec = kernel.record(pid).unwrap();
        assert!(rec.status.is_ok(), "{:?}", rec.status);
    }
    assert_eq!(kernel.record(r).unwrap().output, "3 PermissionDenied");
    assert!(kernel.kv_stats().swapped_out_tokens >= 3);
}

/// `rand_int(n)` is the thread's next 64 random bits modulo `n`, the draw
/// a native LIP makes with `Ctx::rng_u64() % n`.
#[test]
fn rand_int_draws_as_a_native_thread_does() {
    use symphony::{Kernel, KernelConfig};

    let (status, output) = on_kernel("emit(str([rand_int(1000), rand_int(7), rand()]));");
    assert!(status.is_ok(), "{status:?}");
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let pid = kernel.spawn_process("native", "", |ctx| {
        let (a, b, c) = (ctx.rng_u64() % 1000, ctx.rng_u64() % 7, ctx.rng_f64());
        ctx.emit(&format!("[{a}, {b}, {c}]"))
    });
    kernel.run();
    assert_eq!(output, kernel.record(pid).unwrap().output);
    let e = runtime_err("return rand_int(0);");
    assert!(e.to_string().contains("bound must be >= 1"), "{e}");
}

#[test]
fn try_wraps_a_call_that_asks_the_host() {
    use symphony_lipscript::ast::{ExprKind, StmtKind};

    let p = parse("let f = try kv_open(\"doc.kv\"); let n = (try kv_len(f))[0];").unwrap();
    let StmtKind::Let(_, e) = &p.top[0].kind else {
        panic!()
    };
    let ExprKind::Try(call) = &e.kind else {
        panic!("expected try: {e:?}")
    };
    assert!(matches!(&call.kind, ExprKind::Call(name, _) if name == "kv_open"));
    // A pure builtin, a function and a bare name have no host to refuse
    // them.
    for src in [
        "let n = try len(xs);",
        "fn f() { } let x = try f();",
        "let x = try kv;",
    ] {
        let e = parse(src).unwrap_err();
        assert!(e.to_string().contains("`try` takes a call"), "{src}: {e}");
    }
}
