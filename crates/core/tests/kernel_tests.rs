//! End-to-end kernel tests: LIPs exercising the full syscall surface on the
//! virtual clock.

#[path = "decode/mod.rs"]
mod decode;

use decode::{Constraint, GenOpts, JsonGrammar, TrieConstraint};
use symphony::{
    BatchPolicy, Body, Ctx, Dist, EventKind, ExecMode, ExitStatus, FaultPlan, InlineBody, Kernel,
    KernelConfig, KvError, Limits, Mode, Next, SimDuration, SimTime, SpawnOpts, SysError, SysReply,
    Syscall, ThreadEnv, ToolOutcome, ToolSpec,
};

fn kernel() -> Kernel {
    Kernel::new(KernelConfig::for_tests())
}

/// Issues a system call that has no `Ctx` wrapper and expects a unit reply.
fn sys_unit(ctx: &Ctx, call: Syscall) -> Result<(), SysError> {
    match ctx.syscall(call) {
        SysReply::Unit => Ok(()),
        SysReply::Err(e) => Err(e),
        _ => panic!("a unit call answered with another shape"),
    }
}

#[test]
fn basic_completion_lip() {
    let mut k = kernel();
    let pid = k.spawn_process("basic", "hello world", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let out = decode::generate(ctx, kv, &prompt, &GenOpts::default())?;
        assert!(out.tokens.len() <= 256);
        ctx.kv_remove(kv)?;
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok());
    assert!(rec.exited_at.is_some());
    assert!(rec.usage.pred_calls > 0);
    assert!(rec.usage.emitted_tokens > 0);
    assert!(!rec.output.is_empty());
    // All process-local files were reclaimed.
    assert_eq!(k.store().gpu_pages_used(), 0);
    k.store().verify().unwrap();
}

#[test]
fn generation_advances_virtual_time() {
    let mut k = kernel();
    let pid = k.spawn_process("timed", "a b c", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        decode::generate(ctx, kv, &prompt, &GenOpts { max_tokens: 10, ..Default::default() })?;
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    let latency = rec.latency().unwrap();
    assert!(
        latency.as_nanos() > 0,
        "pred batches must consume virtual time"
    );
    assert!(k.gpu_metrics().batches > 0);
}

#[test]
fn deterministic_across_runs() {
    fn run_once(seed: u64, telemetry: bool) -> (Kernel, String) {
        let mut cfg = KernelConfig::for_tests();
        cfg.seed = seed;
        cfg.telemetry = telemetry;
        let mut k = Kernel::new(cfg);
        let mut pids = Vec::new();
        for i in 0..4 {
            let args = format!("request number {i}");
            pids.push(k.spawn_process(&format!("p{i}"), &args, |ctx| {
                let prompt = ctx.tokenize(&ctx.args())?;
                let kv = ctx.kv_create()?;
                decode::generate(
                    ctx,
                    kv,
                    &prompt,
                    &GenOpts {
                        temperature: 0.8,
                        max_tokens: 20,
                        ..Default::default()
                    },
                )?;
                Ok(())
            }));
        }
        k.run();
        let outputs: String = pids
            .iter()
            .map(|&p| k.record(p).unwrap().output.clone())
            .collect();
        (k, outputs)
    }
    let (a, out_a) = run_once(42, true);
    let (b, out_b) = run_once(42, true);
    assert!(!a.telemetry_events().is_empty());
    assert_eq!(
        a.telemetry_events(),
        b.telemetry_events(),
        "same seed must replay the same typed event stream"
    );
    assert_eq!(out_a, out_b);
    let (c, _) = run_once(43, true);
    assert_ne!(
        a.telemetry_events(),
        c.telemetry_events(),
        "the event stream must be sensitive to the seed"
    );
    // With telemetry off nothing per-syscall is retained, or even built.
    let (off, out_off) = run_once(42, false);
    assert!(off.telemetry_events().is_empty());
    assert_eq!(off.telemetry_constructed(), 0);
    assert_eq!(out_off, out_a);
}

/// The typed stream is the only record of a run, so every kernel decision
/// a determinism comparison relies on must put an event on the path that
/// takes it: spawn, pred, iteration launch/done, tool outcomes, IPC drops,
/// offload/restore (and a faulted restore), deadlines, thread and process
/// exit.
#[test]
fn every_decision_path_emits_a_typed_event() {
    fn run(restore_faults: bool) -> (Vec<symphony::TimedEvent>, u64) {
        let mut cfg = KernelConfig::for_tests();
        cfg.telemetry = true;
        cfg.offload_on_io_wait = true;
        cfg.faults = FaultPlan {
            ipc_drop_rate: 1.0,
            swap_in_fault_rate: if restore_faults { 1.0 } else { 0.0 },
            ..FaultPlan::none()
        };
        let mut k = Kernel::new(cfg);
        k.register_tool(
            "slow",
            ToolSpec::fixed(SimDuration::from_millis(50), |_| {
                ToolOutcome::Ok("ok".into())
            }),
        );
        k.register_tool(
            "down",
            ToolSpec::fixed(SimDuration::from_millis(1), |_| {
                ToolOutcome::Failed("503".into())
            }),
        );
        let limits = Limits {
            deadline: Some(SimDuration::from_millis(10)),
            ..Default::default()
        };
        let sink = k.admit(
            "sink",
            "",
            SpawnOpts {
                limits,
                ..Default::default()
            },
            Body::hosted(|ctx| {
                assert_eq!(ctx.recv_msg().unwrap_err(), SysError::DeadlineExceeded);
                Ok(())
            }),
        );
        k.spawn_process("agent", "", move |ctx| {
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &[1, 2, 3, 4, 5], 0)?;
            ctx.send_msg(sink, "lost in flight")?;
            ctx.call_tool("slow", "")?; // KV offloaded while waiting, restored after
            assert!(matches!(
                ctx.call_tool("down", ""),
                Err(SysError::ToolFailed(_))
            ));
            Ok(())
        });
        k.run();
        assert_eq!(k.live_threads(), 0);
        assert!(
            k.records().all(|r| r.status.is_ok()),
            "a LIP-side assert failed"
        );
        (k.telemetry_events().to_vec(), sink.0)
    }
    let (events, sink) = run(false);
    let has = |what: &str, f: &dyn Fn(&EventKind) -> bool| {
        assert!(events.iter().any(|e| f(&e.kind)), "no {what} event");
    };
    has(
        "spawn",
        &|k| matches!(k, EventKind::ProcessSpawn { name, .. } if name == "agent"),
    );
    has("thread spawn", &|k| {
        matches!(k, EventKind::ThreadSpawn { .. })
    });
    has("pred", &|k| {
        matches!(k, EventKind::PredEnqueue { tokens: 5, .. })
    });
    has("iteration launch", &|k| {
        matches!(k, EventKind::BatchBegin { new_tokens: 5, .. })
    });
    has("iteration done", &|k| {
        matches!(k, EventKind::BatchEnd { .. })
    });
    has(
        "tool outcome",
        &|k| matches!(k, EventKind::ToolInvoke { tool, .. } if tool == "slow"),
    );
    has("ipc drop", &|k| matches!(k, EventKind::IpcDrop { .. }));
    has("offload", &|k| matches!(k, EventKind::KvOffload { .. }));
    has("restore", &|k| {
        matches!(k, EventKind::KvRestore { tokens: 5, .. })
    });
    has(
        "deadline",
        &|k| matches!(k, EventKind::DeadlineHit { pid } if *pid == sink),
    );
    has("thread exit", &|k| {
        matches!(k, EventKind::ThreadExit { ok: true, .. })
    });
    has("process exit", &|k| {
        matches!(k, EventKind::ProcessExit { ok: true, .. })
    });

    let (events, _) = run(true);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::FaultInjected { site: "kv.restore" })),
        "no faulted-restore event"
    );
    assert!(!events
        .iter()
        .any(|e| matches!(e.kind, EventKind::KvRestore { .. })));
}

/// A cancellation has no event of its own: it is visible as the typed
/// exit of every syscall it fails.
#[test]
fn cancel_is_visible_as_the_woken_threads_syscall_exits() {
    let mut cfg = KernelConfig::for_tests();
    cfg.telemetry = true;
    let mut k = Kernel::new(cfg);
    let pid = k.spawn_process("waiter", "", |ctx| {
        assert_eq!(ctx.recv_msg().unwrap_err(), SysError::Cancelled);
        Ok(())
    });
    k.run();
    assert_eq!(k.live_threads(), 1, "parked in recv");
    let parked = k.telemetry_events().len();
    assert!(k.cancel_process(pid));
    k.run();
    assert!(
        k.record(pid).unwrap().status.is_ok(),
        "recv did not fail as cancelled"
    );
    assert!(matches!(
        k.telemetry_events()[parked].kind,
        EventKind::SyscallExit { name: "recv", .. }
    ));
}

#[test]
fn shared_prefix_fork_equivalence() {
    // The central KV-reuse property at the system level: generating after a
    // preloaded + forked prefix equals generating after recomputing the
    // prefix from scratch.
    let mut k = kernel();
    let sys_text = "system prompt about the cache design ".repeat(12);
    let sys_tokens = k.tokenizer().encode(&sys_text);
    k.preload_kv("sys.kv", &sys_tokens, Mode::SHARED_READ, true).unwrap();
    let n_sys = sys_tokens.len() as u32;

    let cached = k.spawn_process("cached", "the question", move |ctx| {
        let prefix = ctx.kv_open("sys.kv")?;
        let kv = ctx.kv_fork(prefix)?;
        assert_eq!(ctx.kv_next_pos(kv)?, n_sys);
        let q = ctx.tokenize(&ctx.args())?;
        decode::generate(ctx, kv, &q, &GenOpts { max_tokens: 24, ..Default::default() })?;
        Ok(())
    });
    let scratch = k.spawn_process("scratch", "the question", move |ctx| {
        let kv = ctx.kv_create()?;
        let sys = ctx.tokenize(&"system prompt about the cache design ".repeat(12))?;
        let mut all = sys;
        all.extend(ctx.tokenize(&ctx.args())?);
        decode::generate(ctx, kv, &all, &GenOpts { max_tokens: 24, ..Default::default() })?;
        Ok(())
    });
    k.run();
    let a = &k.record(cached).unwrap().output;
    let b = &k.record(scratch).unwrap().output;
    assert_eq!(a, b, "cache hit must not change model output");
    // The cached process did far less pred work.
    assert!(
        k.record(cached).unwrap().usage.pred_tokens
            < k.record(scratch).unwrap().usage.pred_tokens / 2
    );
}

#[test]
fn parallel_generation_with_threads_and_fork() {
    // Figure 2 of the paper: fork the prefix per suffix, generate in
    // parallel threads, join all.
    let mut k = kernel();
    let prefix_tokens = k.tokenizer().encode("shared context for all branches");
    k.preload_kv("prefix.kv", &prefix_tokens, Mode::SHARED_READ, true).unwrap();

    let pid = k.spawn_process("tot", "", |ctx| {
        let prefix = ctx.kv_open("prefix.kv")?;
        let mut tids = Vec::new();
        for i in 0..3 {
            let branch = ctx.kv_fork(prefix)?;
            tids.push(ctx.spawn(move |tctx| {
                let suffix = tctx.tokenize(&format!("branch {i} query"))?;
                let out = decode::generate(
                    tctx,
                    branch,
                    &suffix,
                    &GenOpts { max_tokens: 12, emit: false, ..Default::default() },
                )?;
                tctx.emit(&format!("[{i}:{}]", out.tokens.len()))?;
                tctx.kv_remove(branch)?;
                Ok(())
            })?);
        }
        for t in tids {
            let status = ctx.join(t)?;
            assert!(status.is_ok());
        }
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok(), "status: {:?}", rec.status);
    assert_eq!(rec.usage.threads_spawned, 4);
    for i in 0..3 {
        assert!(rec.output.contains(&format!("[{i}:")));
    }
    k.store().verify().unwrap();
}

#[test]
fn fork_cow_shares_pages_across_branches() {
    let mut k = kernel();
    let long_prefix = k.tokenizer().encode(
        "a reasonably long shared prefix that occupies multiple kv pages in the store \
         so that copy on write sharing is actually measurable in the page counts",
    );
    let n = long_prefix.len();
    k.preload_kv("p.kv", &long_prefix, Mode::SHARED_READ, true).unwrap();
    let pages_before = k.store().gpu_pages_used();

    let pid = k.spawn_process("forker", "", move |ctx| {
        let prefix = ctx.kv_open("p.kv")?;
        let mut branches = Vec::new();
        for _ in 0..8 {
            branches.push(ctx.kv_fork(prefix)?);
        }
        // Each branch extends by a couple of tokens.
        for (i, &b) in branches.iter().enumerate() {
            ctx.pred(b, &[(i as u32 + 10, n as u32)])?;
        }
        for b in branches {
            ctx.kv_remove(b)?;
        }
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
    // Only the pinned prefix remains.
    assert_eq!(k.store().gpu_pages_used(), pages_before);
    // COW happened (the prefix tail page was partial and got copied).
    assert!(k.kv_stats().cow_copies > 0 || n.is_multiple_of(4));
}

#[test]
fn tool_calls_have_latency_and_results() {
    let mut k = kernel();
    k.register_tool(
        "weather",
        ToolSpec::fixed(SimDuration::from_millis(30), |args| {
            ToolOutcome::Ok(format!("sunny in {args}"))
        }),
    );
    let pid = k.spawn_process("agent", "", |ctx| {
        let before = ctx.now()?;
        let out = ctx.call_tool("weather", "banff")?;
        let after = ctx.now()?;
        assert_eq!(out, "sunny in banff");
        assert!(after.duration_since(before) >= SimDuration::from_millis(30));
        // Unknown tool surfaces a typed error, not a crash.
        assert_eq!(
            ctx.call_tool("nope", ""),
            Err(SysError::NoSuchTool("nope".into()))
        );
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    // The failed lookup is not an invocation.
    assert_eq!(rec.usage.tool_calls, 1);
}

#[test]
fn tool_failure_is_an_error_not_a_crash() {
    let mut k = kernel();
    k.register_tool(
        "flaky",
        ToolSpec::fixed(SimDuration::from_millis(1), |_| {
            ToolOutcome::Failed("upstream 503".into())
        }),
    );
    let pid = k.spawn_process("agent", "", |ctx| {
        match ctx.call_tool("flaky", "") {
            Err(SysError::ToolFailed(msg)) => {
                assert_eq!(msg, "upstream 503");
                Ok(())
            }
            other => panic!("expected ToolFailed, got {other:?}"),
        }
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
}

#[test]
fn kv_offload_during_io_wait() {
    let mut cfg = KernelConfig::for_tests();
    cfg.offload_on_io_wait = true;
    cfg.offload_min_latency = SimDuration::from_millis(5);
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "slow",
        ToolSpec::fixed(SimDuration::from_millis(100), |_| ToolOutcome::Ok("done".into())),
    );
    let pid = k.spawn_process("io", "context tokens here", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        ctx.pred_positions(kv, &prompt, 0)?;
        ctx.call_tool("slow", "")?;
        // After the tool call the file must be GPU-resident again and
        // usable by pred.
        let pos = ctx.kv_next_pos(kv)?;
        ctx.pred(kv, &[(5, pos)])?;
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
    let stats = k.kv_stats();
    assert!(stats.swapped_out_tokens > 0, "offload should have happened");
    assert_eq!(stats.swapped_out_tokens, stats.swapped_in_tokens);
}

#[test]
fn offload_only_when_the_round_trip_fits_the_wait() {
    // A 2 000-token Llama-13B file is 1.6 GB: 65 ms out over PCIe and 65 ms
    // back. Around a 25 ms tool call the copies would outlast the wait and
    // the thread would resume late for pages nobody could have used; around
    // a 3 s call they are what the offload is for.
    const DOC: u32 = 2_000;
    fn run(tool: SimDuration) -> (Kernel, SimDuration) {
        let mut cfg = KernelConfig::paper_setup();
        cfg.telemetry = true;
        let mut k = Kernel::new(cfg);
        k.register_tool(
            "tool",
            ToolSpec::fixed(tool, |_| ToolOutcome::Ok("ok".into())),
        );
        let pid = k.spawn_process("caller", "", |ctx| {
            let kv = ctx.kv_create()?;
            let doc: Vec<u32> = (1..=DOC).collect();
            ctx.pred_positions(kv, &doc, 0)?;
            let before = ctx.now()?;
            ctx.call_tool("tool", "")?;
            let waited = ctx.now()? - before;
            ctx.pred(kv, &[(5, DOC)])?; // the file is usable again
            ctx.emit(&waited.as_nanos().to_string())
        });
        k.run();
        let rec = k.record(pid).unwrap();
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        let waited = SimDuration::from_nanos(rec.output.parse().unwrap());
        (k, waited)
    }
    let offloads = |k: &Kernel| {
        k.telemetry_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::KvOffload { .. }))
            .count()
    };
    let cfg = KernelConfig::paper_setup();
    let syscalls = cfg.syscall_cost * 2;

    let short = SimDuration::from_millis(25);
    assert!(
        short >= cfg.offload_min_latency,
        "the floor alone would offload"
    );
    let (k, waited) = run(short);
    assert_eq!(offloads(&k), 0, "a 130 ms round trip does not fit 25 ms");
    assert_eq!(k.kv_stats().swapped_out_tokens, 0);
    assert!(
        waited <= short + syscalls,
        "the thread resumed {waited} after a {short} tool call"
    );

    let long = SimDuration::from_secs(3);
    let (k, waited) = run(long);
    assert_eq!(offloads(&k), 1, "a 3 s wait is worth 130 ms of copies");
    let stats = k.kv_stats();
    assert_eq!(stats.swapped_out_tokens, u64::from(DOC));
    assert_eq!(stats.swapped_in_tokens, u64::from(DOC));
    let restore = cfg
        .device
        .transfer_time(u64::from(DOC) * cfg.model.kv_bytes_per_token());
    assert!(
        waited >= long + restore,
        "the restore crosses PCIe after the call"
    );
    k.store().verify().unwrap();
}

#[test]
fn ipc_between_processes() {
    let mut k = kernel();
    let consumer = k.spawn_process("consumer", "", |ctx| {
        let m1 = ctx.recv_msg()?;
        let m2 = ctx.recv_msg()?;
        ctx.emit(&format!("got {} then {}", m1.data, m2.data))?;
        ctx.send_msg(m1.from, "ack")?;
        Ok(())
    });
    let _producer = k.spawn_process("producer", "", move |ctx| {
        ctx.send_msg(consumer, "first")?;
        ctx.send_msg(consumer, "second")?;
        let ack = ctx.recv_msg()?;
        assert_eq!(ack.data, "ack");
        assert_eq!(ack.from, consumer);
        Ok(())
    });
    k.run();
    assert_eq!(k.record(consumer).unwrap().output, "got first then second");
    assert_eq!(k.live_threads(), 0);
}

/// The kernel names a cancelled program's verdict, however the program
/// reported the failure the cancel caused.
#[test]
fn a_cancelled_programs_failure_exits_cancelled() {
    let mut k = kernel();
    let pid = k.spawn_process("waiter", "", |ctx| {
        ctx.recv_msg()
            .map_err(|e| SysError::ToolFailed(format!("recv: {e}")))?;
        Ok(())
    });
    k.run();
    assert!(k.cancel_process(pid));
    k.run();
    assert_eq!(
        k.record(pid).unwrap().status,
        ExitStatus::Error(SysError::Cancelled)
    );
}

#[test]
fn ipc_lookup_by_name() {
    let mut k = kernel();
    let server = k.spawn_process("the-server", "", |ctx| {
        let m = ctx.recv_msg()?;
        ctx.send_msg(m.from, &format!("echo:{}", m.data))?;
        Ok(())
    });
    let client = k.spawn_process("client", "", |ctx| {
        let target = ctx.lookup_process("the-server")?.ok_or(SysError::NotFound)?;
        ctx.send_msg(target, "ping")?;
        let r = ctx.recv_msg()?;
        ctx.emit(&r.data)?;
        Ok(())
    });
    let waiter = k.spawn_process("waiter", "", |ctx| {
        let m = ctx.recv_msg()?;
        ctx.emit(&m.data)
    });
    k.run();
    assert!(k.record(server).unwrap().status.is_ok());
    assert_eq!(k.record(client).unwrap().output, "echo:ping");
    assert_eq!(k.live_threads(), 1, "the waiter is parked in recv");
    // A finished process's name no longer resolves; the parked one keeps
    // its record and its name, and still runs.
    k.spawn_process("sender", "", |ctx| {
        assert_eq!(ctx.lookup_process("the-server")?, None);
        let to = ctx.lookup_process("waiter")?.ok_or(SysError::NotFound)?;
        ctx.send_msg(to, "hello")
    });
    k.run();
    assert_eq!(k.live_threads(), 0);
    assert_eq!(k.record(waiter).unwrap().output, "hello");
    assert!(k.records().all(|r| r.status.is_ok()));
}

#[test]
fn crash_cleanup_reclaims_files_and_locks() {
    let mut k = kernel();
    let sys = k.tokenizer().encode("shared file");
    k.preload_kv("shared.kv", &sys, Mode { read_all: true, write_all: true }, false)
        .unwrap();
    let pages_before = k.store().gpu_pages_used();

    let crasher = k.spawn_process("crasher", "", |ctx| {
        let kv = ctx.kv_create()?;
        ctx.pred_positions(kv, &[1, 2, 3, 4, 5, 6, 7, 8], 0)?;
        let shared = ctx.kv_open("shared.kv")?;
        sys_unit(ctx, Syscall::KvLock { kv: shared })?;
        panic!("lip bug");
    });
    k.run();
    let rec = k.record(crasher).unwrap();
    assert_eq!(rec.status, ExitStatus::Crashed);
    // Anonymous file reclaimed; shared file unlocked.
    assert_eq!(k.store().gpu_pages_used(), pages_before);
    let locker = k.spawn_process("locker", "", |ctx| {
        let shared = ctx.kv_open("shared.kv")?;
        sys_unit(ctx, Syscall::KvLock { kv: shared })?;
        sys_unit(ctx, Syscall::KvUnlock { kv: shared })?;
        Ok(())
    });
    k.run();
    assert!(k.record(locker).unwrap().status.is_ok(), "lock must be free");
    k.store().verify().unwrap();
}

#[test]
fn linked_files_persist_after_exit() {
    let mut k = kernel();
    let writer = k.spawn_process("writer", "", |ctx| {
        let kv = ctx.kv_create()?;
        ctx.pred_positions(kv, &[10, 11, 12], 0)?;
        ctx.kv_chmod(kv, Mode::SHARED_READ)?;
        ctx.kv_link(kv, "published.kv")?;
        Ok(())
    });
    k.run();
    assert!(k.record(writer).unwrap().status.is_ok());
    assert!(k.store().lookup("published.kv").is_some());

    let reader = k.spawn_process("reader", "", |ctx| {
        let kv = ctx.kv_open("published.kv")?;
        assert_eq!(ctx.kv_len(kv)?, 3);
        let entries = ctx.kv_read(kv, 0, 3)?;
        assert_eq!(entries[0].token, 10);
        Ok(())
    });
    k.run();
    assert!(k.record(reader).unwrap().status.is_ok());
}

#[test]
fn a_failed_preload_leaves_the_store_as_it_found_it() {
    let mut k = kernel();
    let tokens: Vec<u32> = (0..100).collect();
    let first = k
        .preload_kv("x.kv", &tokens, Mode::SHARED_READ, true)
        .unwrap();
    let store = |k: &Kernel| {
        k.store().verify().unwrap();
        (k.store().gpu_pages_used(), k.store().list_files().len())
    };
    let after_first = store(&k);
    assert_eq!(after_first, (25, 1));
    // The path is taken: refused before a file exists.
    assert_eq!(
        k.preload_kv("x.kv", &tokens, Mode::SHARED_READ, true),
        Err(SysError::Kv(KvError::AlreadyExists))
    );
    assert_eq!(store(&k), after_first);
    // More than the GPU holds: the half-filled file goes again, and so does
    // its name.
    let too_many: Vec<u32> = (0..4 * k.store().gpu_pages_capacity() as u32).collect();
    assert_eq!(
        k.preload_kv("y.kv", &too_many, Mode::SHARED_READ, true),
        Err(SysError::Kv(KvError::NoGpuMemory))
    );
    assert_eq!(store(&k), after_first);
    assert_eq!(k.store().lookup("y.kv"), None);
    assert_eq!(k.store().lookup("x.kv"), Some(first));
}

#[test]
fn pred_positions_refuses_a_run_past_the_last_position() {
    // Built with or without overflow checks, the same answer: the run's
    // second position would be u32::MAX + 1.
    let mut k = kernel();
    let pid = k.spawn_process("edge", "", |ctx| {
        let kv = ctx.kv_create()?;
        let past = ctx.pred_positions(kv, &[5, 6], u32::MAX);
        assert_eq!(past.err(), Some(SysError::BadArgument));
        assert_eq!(ctx.kv_len(kv)?, 0);
        // The last position itself is fine.
        ctx.pred_positions(kv, &[5], u32::MAX - 1)?;
        assert_eq!(ctx.kv_len(kv)?, 1);
        Ok(())
    });
    k.run();
    assert_eq!(k.record(pid).unwrap().status, ExitStatus::Ok);
}

#[test]
fn limits_enforced() {
    let mut k = kernel();
    let limits = Limits {
        max_pred_tokens: Some(5),
        max_threads: Some(2),
        ..Default::default()
    };
    let pid = k.admit(
        "greedy",
        "",
        SpawnOpts {
            limits,
            ..Default::default()
        },
        Body::hosted(|ctx| {
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &[1, 2, 3], 0)?; // 3 tokens: ok
            let err = ctx.pred_positions(kv, &[4, 5, 6], 3).unwrap_err();
            assert_eq!(err, SysError::LimitExceeded("pred_tokens"));
            // Thread limit: main + 1 = 2 allowed, the next must fail.
            let t = ctx.spawn(|c| c.sleep(SimDuration::from_millis(1)))?;
            let err = ctx.spawn(|_| Ok(())).unwrap_err();
            assert_eq!(err, SysError::LimitExceeded("threads"));
            ctx.join(t)?;
            Ok(())
        }),
    );
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok(), "{:?}", k.record(pid).unwrap().status);
}

#[test]
fn kv_quota_limits_pages() {
    let mut k = kernel();
    let limits = Limits {
        kv_quota_pages: Some(2), // 8 tokens at page size 4
        ..Default::default()
    };
    let pid = k.admit(
        "hog",
        "",
        SpawnOpts {
            limits,
            ..Default::default()
        },
        Body::hosted(|ctx| {
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &[1, 2, 3, 4, 5, 6, 7, 8], 0)?;
            let err = ctx.pred(kv, &[(9, 8)]).unwrap_err();
            assert!(matches!(
                err,
                SysError::Kv(symphony_kvfs::KvError::QuotaExceeded)
            ));
            Ok(())
        }),
    );
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
}

#[test]
fn error_exit_is_recorded() {
    let mut k = kernel();
    let pid = k.spawn_process("fails", "", |ctx| {
        ctx.kv_open("does-not-exist.kv")?;
        Ok(())
    });
    k.run();
    assert_eq!(
        k.record(pid).unwrap().status,
        ExitStatus::Error(SysError::Kv(symphony_kvfs::KvError::NotFound))
    );
}

#[test]
fn sleep_advances_clock() {
    let mut k = kernel();
    let pid = k.spawn_process("sleeper", "", |ctx| {
        ctx.sleep(SimDuration::from_secs(3))?;
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.latency().unwrap() >= SimDuration::from_secs(3));
}

#[test]
fn scheduled_arrivals_run_at_their_times() {
    let mut k = kernel();
    let t1 = symphony::SimTime::ZERO + SimDuration::from_millis(100);
    let t2 = symphony::SimTime::ZERO + SimDuration::from_millis(500);
    let p1 = k.admit(
        "r1",
        "",
        SpawnOpts::at(t1),
        Body::hosted(|ctx| ctx.emit("one")),
    );
    let p2 = k.admit(
        "r2",
        "",
        SpawnOpts::at(t2),
        Body::hosted(|ctx| ctx.emit("two")),
    );
    k.run();
    assert_eq!(k.record(p1).unwrap().spawned_at, t1);
    assert_eq!(k.record(p2).unwrap().spawned_at, t2);
    assert!(k.record(p1).unwrap().exited_at.unwrap() < k.record(p2).unwrap().exited_at.unwrap());
}

#[test]
fn fixed_window_batching_aggregates_concurrent_preds() {
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = ExecMode::Static(BatchPolicy::FixedWindow {
        max_wait: SimDuration::from_millis(50),
        max_batch: 8,
    });
    let mut k = Kernel::new(cfg);
    for i in 0..8 {
        k.spawn_process(&format!("p{i}"), "", move |ctx| {
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &[i, i + 1], 0)?;
            Ok(())
        });
    }
    k.run();
    let m = k.gpu_metrics();
    assert_eq!(m.requests_ok, 8);
    assert!(
        m.batches <= 2,
        "window batching should aggregate 8 preds into few batches, got {}",
        m.batches
    );
}

#[test]
fn max_batch_caps_a_static_batch() {
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = ExecMode::Static(BatchPolicy::FixedWindow {
        max_wait: SimDuration::from_millis(50),
        max_batch: 8,
    });
    cfg.max_batch = 2;
    cfg.telemetry = true;
    let mut k = Kernel::new(cfg);
    for i in 0..5 {
        k.spawn_process(&format!("p{i}"), "", move |ctx| {
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &[i, i + 1], 0)?;
            Ok(())
        });
    }
    k.run();
    assert_eq!(k.gpu_metrics().requests_ok, 5);
    let sizes: Vec<u32> = k
        .telemetry_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BatchBegin { requests, .. } => Some(requests),
            _ => None,
        })
        .collect();
    assert_eq!(sizes, [2, 2, 1], "never more than the cap per batch");
}

#[test]
fn adaptive_batching_completes_all_work() {
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = ExecMode::Static(BatchPolicy::Adaptive {
        target_batch: 4,
        max_wait: SimDuration::from_millis(20),
    });
    let mut k = Kernel::new(cfg);
    let mut pids = Vec::new();
    for i in 0..10u64 {
        let at = symphony::SimTime::ZERO + SimDuration::from_millis(i * 3);
        pids.push(k.admit(
            &format!("p{i}"),
            "",
            SpawnOpts::at(at),
            Body::hosted(move |ctx| {
                let kv = ctx.kv_create()?;
                let prompt = [(i as u32 + 1, 0), (i as u32 + 2, 1)];
                ctx.pred(kv, &prompt)?;
                Ok(())
            }),
        ));
    }
    k.run();
    for pid in pids {
        assert!(k.record(pid).unwrap().status.is_ok());
    }
    assert_eq!(k.gpu_metrics().requests_ok, 10);
}

#[test]
fn constrained_generation_emits_valid_json() {
    let mut k = kernel();
    let pid = k.spawn_process("json", "respond with json", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let mut constraint = JsonGrammar::new(
            symphony_tokenizer::Bpe::default_tokenizer().vocab(),
        );
        let opts = GenOpts {
            max_tokens: 64,
            temperature: 0.7,
            emit: true,
            ..Default::default()
        };
        let tokens = decode::generate_constrained(ctx, kv, &prompt, &mut constraint, &opts)?;
        assert!(!tokens.is_empty());
        assert!(constraint.is_complete(), "grammar must complete");
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    // The emitted text must be parseable by the same grammar.
    let out = &rec.output;
    assert!(
        out.starts_with('{')
            || out.starts_with('[')
            || out.starts_with('"')
            || out.starts_with('-')
            || out.starts_with(|c: char| c.is_ascii_digit())
            || out == "true"
            || out == "false"
            || out == "null",
        "output {out:?} should look like JSON"
    );
}

#[test]
fn trie_constrained_choice() {
    let mut k = kernel();
    let pid = k.spawn_process("choice", "pick an option", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let options = vec![ctx.tokenize("yes")?, ctx.tokenize("no")?, ctx.tokenize("maybe")?];
        let kv = ctx.kv_create()?;
        let mut c = TrieConstraint::new(options.clone());
        let got =
            decode::generate_constrained(ctx, kv, &prompt, &mut c, &GenOpts::default())?;
        assert!(options.contains(&got), "{got:?} must be one of the options");
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
    let out = &k.record(pid).unwrap().output;
    assert!(["yes", "no", "maybe"].contains(&out.as_str()), "got {out:?}");
}

#[test]
fn speculative_decoding_with_truncate() {
    // A LIP that drafts k tokens by sampling, verifies them with one
    // multi-token pred, and rolls the file back to the accepted prefix.
    let mut k = kernel();
    let pid = k.spawn_process("spec", "the draft context", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let mut dist = ctx
            .pred_positions(kv, &prompt, 0)?
            .last()
            .ok_or(SysError::BadArgument)?;
        let mut pos = prompt.len() as u32;
        let mut produced = 0usize;
        while produced < 24 {
            // Draft one token greedily from a temperature-sharpened view
            // (stands in for a cheap draft model with identical semantics);
            // the target verifies it below.
            let draft = vec![dist.with_temperature(1.3).argmax()];
            let pairs: Vec<(u32, u32)> = draft
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, pos + i as u32))
                .collect();
            let dists = ctx.pred(kv, &pairs)?;
            let (accepted, next) =
                decode::greedy_accept(&draft, &dist, dists.iter());
            if accepted < draft.len() {
                // Roll back the rejected suffix.
                let keep = ctx.kv_len(kv)? - (draft.len() - accepted);
                ctx.kv_truncate(kv, keep)?;
            }
            let step = accepted.max(1).min(draft.len());
            produced += step;
            pos += step as u32;
            if accepted == draft.len() {
                dist = dists.last().expect("non-empty");
            } else {
                // Feed the correction token.
                if next == ctx.eos() {
                    break;
                }
                dist = ctx
                    .pred(kv, &[(next, pos)])?
                    .last()
                    .ok_or(SysError::BadArgument)?;
                pos += 1;
                produced += 1;
            }
            if next == ctx.eos() {
                break;
            }
        }
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok(), "{:?}", k.record(pid).unwrap().status);
    k.store().verify().unwrap();
}

#[test]
fn extract_prunes_context() {
    let mut k = kernel();
    let pid = k.spawn_process("pruner", "", |ctx| {
        let kv = ctx.kv_create()?;
        let tokens: Vec<u32> = (1..=12).collect();
        ctx.pred_positions(kv, &tokens, 0)?;
        // Keep an attention-sink head plus the recent tail.
        let ranges = vec![0..2, 8..12];
        let SysReply::Handle(pruned) = ctx.syscall(Syscall::KvExtract { kv, ranges }) else {
            panic!("kv_extract answers a file handle");
        };
        assert_eq!(ctx.kv_len(pruned)?, 6);
        let entries = ctx.kv_read(pruned, 0, 6)?;
        assert_eq!(entries[0].position, 0);
        assert_eq!(entries[2].position, 8, "positions preserved");
        // Pruned file continues to serve pred.
        let next = ctx.kv_next_pos(pruned)?;
        ctx.pred(pruned, &[(99, next)])?;
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
}

#[test]
fn gpu_oom_surfaces_to_lip_which_can_evict() {
    let mut cfg = KernelConfig::for_tests();
    // Tiny pool: 16 pages of 4 tokens at 512 B/token.
    cfg.gpu_kv_bytes_override = Some(16 * 4 * 512);
    let mut k = Kernel::new(cfg);
    let pid = k.spawn_process("oom", "", |ctx| {
        let a = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..48).map(|i| (i + 1, i)).collect();
        ctx.pred(a, &tokens)?; // 12 pages
        let b = ctx.kv_create()?;
        let more: Vec<(u32, u32)> = (0..32).map(|i| (i + 1, i)).collect();
        // 8 more pages cannot fit.
        let err = ctx.pred(b, &more).unwrap_err();
        assert!(matches!(err, SysError::Kv(symphony_kvfs::KvError::NoGpuMemory)));
        // The LIP implements its own eviction: drop the old context.
        ctx.kv_remove(a)?;
        ctx.pred(b, &more)?;
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok(), "{:?}", k.record(pid).unwrap().status);
}

#[test]
fn a_rolled_back_pred_counts_none_of_its_tokens() {
    let mut cfg = KernelConfig::for_tests();
    // 800 pages of 4 tokens.
    cfg.gpu_kv_bytes_override = Some(800 * 4 * cfg.model.kv_bytes_per_token());
    let mut k = Kernel::new(cfg);
    // A budget of exactly the work that completes: had the refused
    // prefill used some of it, the retry would be over it.
    let opts = SpawnOpts {
        limits: Limits {
            max_pred_tokens: Some(3_400),
            ..Limits::default()
        },
        ..SpawnOpts::default()
    };
    let body = Body::hosted(|ctx| {
        let held = ctx.kv_create()?;
        ctx.pred_positions(held, &(1..=400).collect::<Vec<_>>(), 0)?;
        let doc: Vec<u32> = (1..=3_000).collect();
        let kv = ctx.kv_create()?;
        // 750 pages, with 700 free.
        let err = ctx.pred_positions(kv, &doc, 0).unwrap_err();
        assert_eq!(err, SysError::Kv(KvError::NoGpuMemory));
        ctx.kv_remove(held)?;
        ctx.pred_positions(kv, &doc, 0)?;
        ctx.kv_remove(kv)
    });
    let pid = k.admit("prefill", "", opts, body);
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    assert_eq!(rec.usage.pred_calls, 3, "a refused call is still a call");
    assert_eq!(rec.usage.pred_tokens, 3_400);
}

#[test]
fn emit_and_args_roundtrip() {
    let mut k = kernel();
    let pid = k.spawn_process("echo", "the argument string", |ctx| {
        let args = ctx.args();
        ctx.emit(&args)?;
        ctx.emit(" / ")?;
        let toks = ctx.tokenize(&args)?;
        let text = ctx.detokenize(&toks)?;
        ctx.emit(&text)?;
        Ok(())
    });
    k.run();
    assert_eq!(
        k.record(pid).unwrap().output,
        "the argument string / the argument string"
    );
}

#[test]
fn deadlocked_receiver_is_detected() {
    let mut k = kernel();
    let pid = k.spawn_process("stuck", "", |ctx| {
        let _ = ctx.recv_msg()?; // Nobody will ever send.
        Ok(())
    });
    k.run();
    assert_eq!(k.live_threads(), 1, "receiver should be reported as live");
    assert!(k.record(pid).unwrap().exited_at.is_none());
    // Dropping the kernel must not hang (threads are unblocked and joined).
}

/// Durability is a property of a process, not a second path through the
/// kernel: the same body admitted with and without `SpawnOpts::durable`
/// makes the same syscalls, gets the same replies at the same virtual
/// times and leaves the same record. Only the log differs.
#[test]
fn durability_changes_what_is_logged_not_what_happens() {
    // One call of every journalled class: pred, tool, lookup, send, recv, now.
    fn body(ctx: &mut symphony::Ctx) -> Result<(), SysError> {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let opts = GenOpts { max_tokens: 6, temperature: 0.0, ..Default::default() };
        let gen = decode::generate(ctx, kv, &prompt, &opts)?;
        let doc = ctx.call_tool("search", "q")?;
        let me = ctx.lookup_process("prog")?.ok_or(SysError::NotFound)?;
        ctx.send_msg(me, &doc)?;
        let echoed = ctx.recv_msg()?.data;
        let t = ctx.now()?;
        ctx.emit(&format!("{echoed} at {t:?} after {} tokens", gen.tokens.len()))
    }
    let run = |durable: bool| {
        let path = std::env::temp_dir().join(format!(
            "symphony-kernel-tests-{}-durable-{durable}.wal",
            std::process::id()
        ));
        let mut cfg = KernelConfig::for_tests();
        cfg.wal = Some(symphony::WalConfig::new(&path));
        cfg.telemetry = true;
        cfg.causal = true;
        let mut k = Kernel::new(cfg);
        let tool = |args: &str| ToolOutcome::Ok(format!("doc({args})"));
        k.register_tool("search", ToolSpec::fixed(SimDuration::from_millis(7), tool));
        let opts = SpawnOpts {
            durable,
            ..SpawnOpts::default()
        };
        k.admit("prog", "what the log is for", opts, Body::hosted(body));
        k.run();
        let records: Vec<String> = k.records().map(|r| format!("{r:?}")).collect();
        // A checkpoint event reports the log's length — what is logged —
        // so only *that* it fired is compared.
        let (checkpoints, events): (Vec<_>, Vec<_>) = k
            .telemetry_events()
            .iter()
            .cloned()
            .partition(|e| matches!(e.kind, EventKind::WalCheckpoint { .. }));
        let frames = symphony::wal::frame_counts(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        (records, events, checkpoints.len(), frames)
    };
    let (plain, durable) = (run(false), run(true));
    assert!(plain.0[0].contains("doc(q) at "), "the body ran: {:?}", plain.0);
    assert_eq!(plain.0, durable.0, "records");
    assert_eq!(plain.1, durable.1, "telemetry events");
    assert_eq!(plain.2, durable.2, "checkpoints fired");
    assert!(plain.2 > 0, "the run crosses a checkpoint");
    assert_eq!(
        plain.3.keys().copied().collect::<Vec<_>>(),
        ["checkpoint"],
        "a kernel with no durable process journals nothing but checkpoints"
    );
    for class in ["proc_spawn", "tool_effect", "lookup", "ipc_send", "now", "proc_exit"] {
        assert_eq!(durable.3.get(class), Some(&1), "{class}: {:?}", durable.3);
    }
    assert!(!durable.3.contains_key("pred_effect"), "a pred is not journalled");
    assert!(!durable.3.contains_key("ipc_recv"), "a message is journalled once, by its send");
}

/// Draws a `sample` from a fixed distribution and a `rand` word, emits them,
/// then — on the main thread — spawns one sibling that does the same and
/// joins it: the inline twin of [`hosted_drawer`].
struct Drawer {
    main: bool,
    step: u32,
}

impl Drawer {
    fn boxed(main: bool) -> Box<Self> {
        Box::new(Drawer { main, step: 0 })
    }
}

fn draw(env: &mut ThreadEnv, dist: &Dist) -> String {
    format!("[{} {}]", env.sample(dist), env.rng_u64())
}

fn fixed_dist() -> Dist {
    Dist::from_weights((1..9).map(|t| (t, f64::from(t))).collect(), 1.0, 64)
}

impl InlineBody for Drawer {
    fn resume(&mut self, env: &mut ThreadEnv, reply: SysReply) -> Next {
        self.step += 1;
        let text = match (self.step, reply) {
            (1, SysReply::Start) => draw(env, &fixed_dist()),
            (2, _) if self.main => {
                let body = Body::Inline(Drawer::boxed(false));
                return Next::Syscall(Syscall::Spawn { body });
            }
            (3, SysReply::NewTid(tid)) => return Next::Syscall(Syscall::Join { tid }),
            (4, SysReply::Joined(_)) => draw(env, &fixed_dist()),
            _ => return Next::Exit(Ok(())),
        };
        Next::Syscall(Syscall::Emit { text })
    }
}

/// Decodes a `pred`'s last distribution with `sample`, reads a `rand` word,
/// and has a sibling do the same from the same distribution.
fn hosted_drawer(ctx: &mut Ctx) -> Result<(), SysError> {
    let kv = ctx.kv_create()?;
    let prompt = ctx.tokenize("a stream of its own")?;
    let dists = ctx.pred_positions(kv, &prompt, 0)?;
    let dist = dists.last().ok_or(SysError::BadArgument)?;
    let first = draw(ctx, &dist);
    ctx.emit(&first)?;
    let sibling = dist.clone();
    let tid = ctx.spawn(move |c| {
        let drawn = draw(c, &sibling);
        c.emit(&drawn)
    })?;
    ctx.join(tid)?;
    let last = draw(ctx, &dist);
    ctx.emit(&last)?;
    ctx.kv_remove(kv)
}

/// A thread's `rand`/`sample` draws are a function of who it is — its
/// process and its start order within it — and not of what the kernel ran
/// before. The program is scheduled first, so its pid is the same in every
/// run; then 0..=8 unrelated programs are admitted and start before it
/// does, each drawing, spawning a thread and calling a tool whose latency
/// the kernel draws from its own stream. The program's main thread and its
/// sibling draw the same values however many there were, hosted or inline.
#[test]
fn draws_do_not_depend_on_the_programs_admitted_before() {
    let run = |seed: u64, inline: bool, unrelated: usize| {
        let mut cfg = KernelConfig::for_tests();
        cfg.seed = seed;
        let mut k = Kernel::new(cfg);
        k.register_tool(
            "jitter",
            ToolSpec::new(SimDuration::from_millis(3), |args| {
                ToolOutcome::Ok(args.to_string())
            }),
        );
        let at = SimTime::ZERO + SimDuration::from_millis(2);
        let pid = if inline {
            k.admit(
                "drawer",
                "",
                SpawnOpts::at(at),
                Body::Inline(Drawer::boxed(true)),
            )
        } else {
            k.admit("drawer", "", SpawnOpts::at(at), Body::hosted(hosted_drawer))
        };
        for i in 0..unrelated {
            let name = format!("unrelated{i}");
            if i % 2 == 0 {
                k.spawn_process(&name, "", |ctx| {
                    let u = ctx.rng_u64().to_string();
                    let tid = ctx.spawn(move |c| c.call_tool("jitter", &u).map(drop))?;
                    let v = ctx.rng_u64();
                    ctx.call_tool("jitter", &v.to_string())?;
                    ctx.join(tid).map(drop)
                });
            } else {
                k.admit(
                    &name,
                    "",
                    SpawnOpts::default(),
                    Body::Inline(Drawer::boxed(true)),
                );
            }
        }
        k.run();
        let rec = k.record(pid).expect("record");
        assert_eq!(rec.status, ExitStatus::Ok, "{rec:?}");
        rec.output.clone()
    };
    for seed in [1, 42, 7_777] {
        for inline in [false, true] {
            let alone = run(seed, inline, 0);
            // Main, sibling, main.
            assert_eq!(alone.matches('[').count(), 3, "{alone}");
            for unrelated in 1..=8 {
                assert_eq!(
                    run(seed, inline, unrelated),
                    alone,
                    "seed {seed}, inline {inline}, {unrelated} unrelated programs"
                );
            }
        }
    }
}

/// A `pred` reply builds only the distributions its program reads: a
/// 1 000-token prefill read at its last position builds one
/// (`gpu.dists_built`, in the kernel's registry).
#[test]
fn a_prefill_read_at_its_last_position_builds_one_distribution() {
    let mut k = kernel();
    k.spawn_process("prefill", "", |ctx| {
        let kv = ctx.kv_create()?;
        let prompt: Vec<u32> = (0..1_000).map(|i| i % 500).collect();
        let preds = ctx.pred_positions(kv, &prompt, 0)?;
        assert_eq!(preds.len(), 1_000);
        let last = preds.last().ok_or(SysError::BadArgument)?;
        ctx.emit_tokens(&[last.argmax()])
    });
    k.run();
    assert_eq!(k.metrics_snapshot().counter("gpu.dists_built"), Some(1));
}
