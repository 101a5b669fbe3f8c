//! Failure injection and resource-limit edge cases: the kernel must contain
//! every failure to the offending process.

use symphony::{
    Body, ExitStatus, Kernel, KernelConfig, KvError, Limits, SimDuration, SpawnOpts, SysError,
    ToolOutcome, ToolSpec,
};

fn kernel() -> Kernel {
    Kernel::new(KernelConfig::for_tests())
}

#[test]
fn syscall_limit_cuts_off_runaway_process() {
    let mut k = kernel();
    let limits = Limits {
        max_syscalls: Some(10),
        ..Default::default()
    };
    let pid = k.admit(
        "runaway",
        "",
        SpawnOpts {
            limits,
            ..Default::default()
        },
        Body::hosted(|ctx| {
            for i in 0..100 {
                ctx.emit(&format!("{i}"))?;
            }
            Ok(())
        }),
    );
    k.run();
    let rec = k.record(pid).unwrap();
    assert_eq!(
        rec.status,
        ExitStatus::Error(SysError::LimitExceeded("syscalls"))
    );
    // The first 10 syscalls went through.
    assert_eq!(rec.output, "0123456789");
}

#[test]
fn a_kv_read_whose_range_overflows_fails_the_call_not_the_kernel() {
    let mut k = kernel();
    let pid = k.spawn_process("reader", "", |ctx| {
        let kv = ctx.kv_create()?;
        ctx.pred_positions(kv, &[10, 11, 12], 0)?;
        let err = ctx.kv_read(kv, 1, usize::MAX).unwrap_err();
        assert_eq!(err, SysError::Kv(KvError::BadRange));
        assert_eq!(ctx.kv_read(kv, 1, 2)?.len(), 2);
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
}

#[test]
fn tool_call_limit() {
    let mut k = kernel();
    k.register_tool(
        "t",
        ToolSpec::fixed(SimDuration::from_millis(1), |_| ToolOutcome::Ok("ok".into())),
    );
    let limits = Limits {
        max_tool_calls: Some(2),
        ..Default::default()
    };
    let pid = k.admit(
        "tools",
        "",
        SpawnOpts {
            limits,
            ..Default::default()
        },
        Body::hosted(|ctx| {
            ctx.call_tool("t", "")?;
            ctx.call_tool("t", "")?;
            let err = ctx.call_tool("t", "").unwrap_err();
            assert_eq!(err, SysError::LimitExceeded("tool_calls"));
            Ok(())
        }),
    );
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
}

#[test]
fn send_to_finished_process_errors() {
    let mut k = kernel();
    let dead = k.spawn_process("dies-first", "", |_| Ok(()));
    k.run();
    assert!(k.record(dead).unwrap().exited_at.is_some());
    let sender = k.spawn_process("sender", "", move |ctx| {
        assert_eq!(ctx.send_msg(dead, "hello?"), Err(SysError::NotFound));
        // Lookup by name also reports it gone.
        assert_eq!(ctx.lookup_process("dies-first")?, None);
        Ok(())
    });
    k.run();
    assert!(k.record(sender).unwrap().status.is_ok());
}

#[test]
fn crashed_child_surfaces_through_join() {
    let mut k = kernel();
    let pid = k.spawn_process("parent", "", |ctx| {
        let t = ctx.spawn(|_| panic!("child bug"))?;
        let status = ctx.join(t)?;
        assert_eq!(status, ExitStatus::Crashed);
        // The parent carries on fine.
        ctx.emit("survived")?;
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok());
    assert_eq!(rec.output, "survived");
}

#[test]
fn process_lives_until_last_thread_exits() {
    let mut k = kernel();
    let pid = k.spawn_process("main-exits-early", "", |ctx| {
        ctx.spawn(|tctx| {
            tctx.sleep(SimDuration::from_secs(2))?;
            tctx.emit("late child output")?;
            Ok(())
        })?;
        Ok(()) // Main returns immediately; the child still runs.
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok(), "main thread status is the process status");
    assert_eq!(rec.output, "late child output");
    assert!(
        rec.exited_at.unwrap() >= symphony::SimTime::ZERO + SimDuration::from_secs(2),
        "exit time is the LAST thread's exit"
    );
    // Anonymous files of the late child are reclaimed at process end.
    assert_eq!(k.store().gpu_pages_used(), 0);
}

#[test]
fn error_in_one_thread_does_not_kill_siblings() {
    let mut k = kernel();
    let pid = k.spawn_process("mixed", "", |ctx| {
        let bad = ctx.spawn(|c| c.kv_open("missing.kv").map(|_| ()))?;
        let good = ctx.spawn(|c| c.emit("good ran"))?;
        assert!(matches!(ctx.join(bad)?, ExitStatus::Error(_)));
        assert!(ctx.join(good)?.is_ok());
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok());
    assert!(rec.output.contains("good ran"));
}

#[test]
fn join_on_unknown_tid_is_not_found() {
    let mut k = kernel();
    let pid = k.spawn_process("joiner", "", |ctx| {
        assert_eq!(ctx.join(symphony::Tid(9999)).unwrap_err(), SysError::NotFound);
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
}

#[test]
fn double_join_returns_same_status() {
    let mut k = kernel();
    let pid = k.spawn_process("double-join", "", |ctx| {
        let t = ctx.spawn(|_| Ok(()))?;
        let s1 = ctx.join(t)?;
        let s2 = ctx.join(t)?;
        assert_eq!(s1, s2);
        assert!(s1.is_ok());
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
}

#[test]
fn preload_duplicate_path_fails_cleanly() {
    let mut k = kernel();
    let toks = k.tokenizer().encode("x");
    k.preload_kv("dup.kv", &toks, symphony::Mode::SHARED_READ, false)
        .unwrap();
    let err = k
        .preload_kv("dup.kv", &toks, symphony::Mode::SHARED_READ, false)
        .unwrap_err();
    assert!(matches!(err, SysError::Kv(symphony_kvfs::KvError::AlreadyExists)));
}

#[test]
fn run_returns_number_of_exited_processes() {
    let mut k = kernel();
    k.spawn_process("a", "", |_| Ok(()));
    k.spawn_process("b", "", |_| Ok(()));
    assert_eq!(k.run(), 2);
    k.spawn_process("c", "", |_| Ok(()));
    assert_eq!(k.run(), 1);
}

#[test]
fn tool_failure_mid_parallel_search_is_contained() {
    // A ToT-style LIP where one branch's tool fails: the LIP inspects join
    // results and completes with the surviving branches.
    let mut k = kernel();
    let n = std::cell::Cell::new(0u32);
    k.register_tool(
        "flaky",
        ToolSpec::fixed(SimDuration::from_millis(5), move |_| {
            // Fails on every second invocation (stateful via closure).
            n.set(n.get() + 1);
            if n.get().is_multiple_of(2) {
                ToolOutcome::Failed("transient".into())
            } else {
                ToolOutcome::Ok("data".into())
            }
        }),
    );
    let pid = k.spawn_process("search", "", |ctx| {
        let mut tids = Vec::new();
        for i in 0..4 {
            tids.push(ctx.spawn(move |c| {
                let data = c.call_tool("flaky", &i.to_string())?;
                c.emit(&format!("[{i}:{data}]"))?;
                Ok(())
            })?);
        }
        let ok = tids
            .into_iter()
            .filter(|&t| ctx.join(t).map(|s| s.is_ok()).unwrap_or(false))
            .count();
        ctx.emit(&format!(" ok={ok}"))?;
        Ok(())
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok());
    assert!(rec.output.contains("ok=2"), "half the branches survive: {}", rec.output);
}
