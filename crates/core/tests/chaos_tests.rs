//! Chaos suite for fault injection, timeouts and deadlines.
//!
//! Three properties are asserted throughout:
//!
//! 1. **Containment** — injected faults fail the offending operation (or
//!    process) with a *typed* [`SysError`]; siblings keep running and no
//!    panic escapes a LIP. What to do about a failure — retry, back off,
//!    give up — is the program's policy, and the LIPs here write it.
//! 2. **Determinism** — two kernels with identical seeds and fault plans
//!    produce byte-identical outputs, typed event streams and stats.
//! 3. **Exact accounting** — a tool call is one attempt, and a timeout
//!    charges exactly the timeout on the virtual clock.

use symphony::{
    Body, EventKind, ExitStatus, FaultPlan, Kernel, KernelConfig, Limits, SimDuration, SpawnOpts,
    SysError, TimedEvent, ToolOutcome, ToolSpec,
};

/// One registry counter by name (`resilience.*`, `faults.*`).
fn counter(k: &Kernel, name: &str) -> u64 {
    k.metrics_registry().counter_value(name).unwrap_or(0)
}

// ---- exact virtual-time accounting -----------------------------------------

#[test]
fn tool_timeout_clamps_each_attempt() {
    let mut k = Kernel::new(KernelConfig::for_tests());
    k.register_tool(
        "slow",
        ToolSpec::fixed(SimDuration::from_millis(500), |_| ToolOutcome::Ok("late".into())),
    );
    let limits = Limits {
        tool_timeout: Some(SimDuration::from_millis(20)),
        ..Default::default()
    };
    let pid = k.admit(
        "impatient",
        "",
        SpawnOpts {
            limits,
            ..Default::default()
        },
        Body::hosted(|ctx| {
            let before = ctx.now()?;
            assert_eq!(ctx.call_tool("slow", "").unwrap_err(), SysError::Timeout);
            // Charged the timeout, not the full 500 ms latency.
            assert_eq!(
                ctx.now()?.duration_since(before),
                SimDuration::from_millis(20)
            );
            Ok(())
        }),
    );
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
    assert_eq!(counter(&k, "resilience.tool_timeouts"), 1);
}

// ---- deadlines --------------------------------------------------------------

#[test]
fn deadline_wakes_blocked_receiver_with_typed_error() {
    let mut k = Kernel::new(KernelConfig::for_tests());
    let limits = Limits {
        deadline: Some(SimDuration::from_millis(10)),
        ..Default::default()
    };
    // Nobody ever sends to this process: without a deadline it would be a
    // deadlock the kernel merely reports; with one it is woken and killed.
    let doomed = k.admit(
        "doomed",
        "",
        SpawnOpts {
            limits,
            ..Default::default()
        },
        Body::hosted(|ctx| {
            ctx.recv_msg()?;
            Ok(())
        }),
    );
    let healthy = k.spawn_process("healthy", "", |ctx| {
        ctx.sleep(SimDuration::from_millis(50))?;
        ctx.emit("fine")?;
        Ok(())
    });
    k.run();
    let rec = k.record(doomed).unwrap();
    assert_eq!(rec.status, ExitStatus::Error(SysError::DeadlineExceeded));
    assert_eq!(
        rec.exited_at.unwrap().duration_since(rec.spawned_at),
        SimDuration::from_millis(10)
    );
    assert!(k.record(healthy).unwrap().status.is_ok());
    assert_eq!(counter(&k, "resilience.deadline_kills"), 1);
    assert_eq!(k.live_threads(), 0, "no thread left behind");
}

#[test]
fn deadline_fails_syscalls_after_expiry() {
    let mut k = Kernel::new(KernelConfig::for_tests());
    let limits = Limits {
        deadline: Some(SimDuration::from_millis(5)),
        ..Default::default()
    };
    let pid = k.admit(
        "slowpoke",
        "",
        SpawnOpts {
            limits,
            ..Default::default()
        },
        Body::hosted(|ctx| {
            ctx.emit("started;")?;
            ctx.sleep(SimDuration::from_millis(20))?;
            // Past the deadline: every further syscall fails.
            assert_eq!(
                ctx.emit("too late").unwrap_err(),
                SysError::DeadlineExceeded
            );
            Err(SysError::DeadlineExceeded)
        }),
    );
    k.run();
    let rec = k.record(pid).unwrap();
    assert_eq!(rec.status, ExitStatus::Error(SysError::DeadlineExceeded));
    assert_eq!(rec.output, "started;");
}

// ---- fault containment -------------------------------------------------------

#[test]
fn pred_faults_are_contained_and_retryable() {
    let mut cfg = KernelConfig::for_tests();
    cfg.faults = FaultPlan {
        pred_fault_rate: 0.05,
        ..FaultPlan::default()
    };
    let mut k = Kernel::new(cfg);
    // A defensive LIP retries transient pred faults; with 60 preds at 5%
    // and 5 tries each, it survives with overwhelming probability (and the
    // run is seeded, so "overwhelming" means "always, for this seed").
    let tough = k.spawn_process("tough", "", |ctx| {
        let kv = ctx.kv_create()?;
        for pos in 0..60u32 {
            let tok = (pos % 50) + 1;
            let mut tries = 0;
            loop {
                match ctx.pred(kv, &[(tok, pos)]) {
                    Ok(_) => break,
                    Err(SysError::Fault(site)) if tries < 5 => {
                        assert_eq!(site, "gpu.pred");
                        tries += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        assert_eq!(ctx.kv_len(kv)?, 60, "every token eventually landed");
        Ok(())
    });
    k.run();
    let rec = k.record(tough).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    let pred_faults = counter(&k, "faults.pred_faults");
    assert!(pred_faults > 0, "faults must actually fire");
    assert_eq!(
        k.gpu_metrics().requests_faulted,
        pred_faults,
        "injector and GPU agree"
    );
    // Faulted work left no partial KV state behind.
    k.store().verify().unwrap();
}

#[test]
fn swap_in_faults_surface_typed_and_are_retryable() {
    let mut cfg = KernelConfig::for_tests();
    cfg.faults = FaultPlan {
        swap_in_fault_rate: 0.5,
        ..FaultPlan::default()
    };
    let mut k = Kernel::new(cfg);
    let pid = k.spawn_process("swapper", "", |ctx| {
        let kv = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..12).map(|i| (i + 1, i)).collect();
        ctx.pred(kv, &tokens)?;
        for _ in 0..10 {
            ctx.kv_swap_out(kv)?;
            let mut tries = 0;
            loop {
                match ctx.kv_swap_in(kv) {
                    Ok(()) => break,
                    Err(SysError::Fault("kv.swap_in")) if tries < 20 => tries += 1,
                    Err(e) => return Err(e),
                }
            }
            // Swapped back in: pred works again.
            ctx.pred(kv, &[(99, ctx.kv_next_pos(kv)?)])?;
        }
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok(), "{:?}", k.record(pid).unwrap().status);
    assert!(counter(&k, "faults.swap_in_failures") > 0);
    k.store().verify().unwrap();
}

#[test]
fn unprotected_process_fails_typed_while_siblings_survive() {
    let mut cfg = KernelConfig::for_tests();
    cfg.faults = FaultPlan {
        tool_fault_rate: 1.0, // every tool attempt faults
        tool_stall_factor: 10.0,
        ..FaultPlan::default()
    };
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "api",
        ToolSpec::fixed(SimDuration::from_millis(1), |_| ToolOutcome::Ok("ok".into())),
    );
    // No retry loop: the very first injected fault kills this call.
    let naive = k.spawn_process("naive", "", |ctx| {
        ctx.call_tool("api", "")?;
        Ok(())
    });
    let sibling = k.spawn_process("sibling", "", |ctx| {
        let kv = ctx.kv_create()?;
        ctx.pred(kv, &[(1, 0), (2, 1), (3, 2)])?;
        ctx.emit("untouched")?;
        Ok(())
    });
    k.run();
    assert_eq!(
        k.record(naive).unwrap().status,
        ExitStatus::Error(SysError::Fault("tool"))
    );
    let rec = k.record(sibling).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    assert_eq!(rec.output, "untouched");
    // The failed process's resources were reclaimed.
    assert_eq!(k.store().gpu_pages_used(), 0);
}

// ---- determinism -------------------------------------------------------------

/// A mixed workload exercising preds, tool calls the program retries,
/// swaps and IPC under an aggressive fault plan. Returns everything
/// observable.
fn chaos_run(seed: u64) -> (Vec<TimedEvent>, Vec<(String, String, bool)>, String) {
    let mut cfg = KernelConfig::for_tests();
    cfg.seed = seed;
    cfg.telemetry = true;
    cfg.faults = FaultPlan {
        tool_fault_rate: 0.15,
        tool_hang_fraction: 0.3,
        tool_stall_factor: 20.0,
        pred_fault_rate: 0.02,
        swap_in_fault_rate: 0.1,
        ipc_drop_rate: 0.2,
        ..FaultPlan::default()
    };
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "search",
        ToolSpec::new(SimDuration::from_millis(20), |args| {
            ToolOutcome::Ok(format!("results:{args}"))
        }),
    );
    let opts = SpawnOpts {
        limits: Limits {
            tool_timeout: Some(SimDuration::from_millis(200)),
            deadline: Some(SimDuration::from_secs(30)),
            ..Default::default()
        },
        ..Default::default()
    };
    for i in 0..10u64 {
        let name = format!("worker-{i}");
        let body = Body::hosted(|ctx| {
            let kv = ctx.kv_create()?;
            let mut pos = 0u32;
            for round in 0..8u32 {
                // Generation with LIP-level fault retry.
                let tok = (round % 40) + 1;
                let mut tries = 0;
                loop {
                    match ctx.pred(kv, &[(tok, pos)]) {
                        Ok(_) => break,
                        Err(SysError::Fault(_)) if tries < 8 => tries += 1,
                        Err(e) => return Err(e),
                    }
                }
                pos += 1;
                // Server-side tool call with LIP-level retry and a jittered
                // exponential backoff; the round goes on without it once
                // the tries run out.
                let mut tries = 0;
                loop {
                    match ctx.call_tool("search", "q") {
                        Ok(_) => break,
                        Err(SysError::Fault(_) | SysError::Timeout | SysError::ToolFailed(_)) => {
                            if tries == 3 {
                                break;
                            }
                            let jitter = 0.9 + 0.2 * ctx.rng_f64();
                            ctx.sleep(SimDuration::from_millis(5 << tries) * jitter)?;
                            tries += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            ctx.emit(&format!("done pos={pos}"))?;
            Ok(())
        });
        k.admit(&name, &i.to_string(), opts, body);
    }
    k.run();
    let procs: Vec<(String, String, bool)> = k
        .records()
        .map(|r| (r.name.clone(), r.output.clone(), r.status.is_ok()))
        .collect();
    let summary = format!(
        "{:?} gpu_faulted={} tools={}",
        k.metrics_snapshot()
            .entries
            .into_iter()
            .filter(|(name, _)| name.starts_with("faults.") || name.starts_with("resilience."))
            .collect::<Vec<_>>(),
        k.gpu_metrics().requests_faulted,
        k.gpu_metrics().requests_ok,
    );
    (k.telemetry_events().to_vec(), procs, summary)
}

#[test]
fn chaos_same_seed_runs_are_byte_identical() {
    let (events1, procs1, stats1) = chaos_run(0xC4A05);
    let (events2, procs2, stats2) = chaos_run(0xC4A05);
    assert!(events1 == events2, "event streams diverged");
    assert_eq!(procs1, procs2, "per-process outputs diverged");
    assert_eq!(stats1, stats2, "stats diverged");
    // The chaos actually happened (tool faults fired) and was recorded.
    assert!(stats1.contains(r#"("faults.tool_failures", Counter("#), "{stats1}");
    assert!(!stats1.contains(r#"("faults.tool_failures", Counter(0))"#), "{stats1}");
    // The workers retried: ten of them make eight calls each.
    let attempts = events1
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ToolInvoke { .. }))
        .count();
    assert!(attempts > 80, "{attempts} attempts");
}

#[test]
fn chaos_run_contains_all_failures() {
    let (_, procs, summary) = chaos_run(7);
    assert_eq!(procs.len(), 10);
    let survivors = procs.iter().filter(|(_, _, ok)| *ok).count();
    assert!(
        survivors >= 8,
        "defensive LIPs should mostly survive: {survivors}/10 ({summary})"
    );
}

#[test]
fn different_seeds_diverge() {
    let (events1, ..) = chaos_run(1);
    let (events2, ..) = chaos_run(2);
    assert!(events1 != events2, "fault schedule must depend on the seed");
}
