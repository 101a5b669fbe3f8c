//! Trace regression tests for the GPU loop's presets: same seed ⇒
//! byte-identical Chrome trace, and checked-in golden fixtures so neither
//! the continuous preset's `chunk`/`preempt` instrumentation nor the static
//! preset's launch gate (timers, a retried `pred`, `NoGpuMemory`,
//! `NotResident`) can drift silently.

use symphony::{
    BatchPolicy, ContinuousConfig, Ctx, ExecMode, Kernel, KernelConfig,
    KvError, MlfqConfig, QueueDiscipline, SimDuration, SysError,
};

/// A miniature exp_sched point: three programs racing chunked prefills and
/// decode on a GPU pool too small for all of them, under MLFQ — the run
/// exercises admission, chunking, and preemption in one trace.
fn sched_kernel(seed: u64) -> (Kernel, Vec<symphony::Pid>) {
    let mut cfg = KernelConfig::for_tests();
    cfg.seed = seed;
    cfg.telemetry = true;
    cfg.exec = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(8),
        discipline: QueueDiscipline::Mlfq(MlfqConfig {
            levels: 3,
            quantum_tokens: 16,
        }),
    });
    // 14 pages of 4 tokens: the three programs cannot all stay resident.
    cfg.gpu_kv_bytes_override = Some(14 * 4 * 512);
    let mut k = Kernel::new(cfg);
    let mut pids = Vec::new();
    for p in 0..3usize {
        pids.push(k.spawn_process(&format!("prog{p}"), "", move |ctx: &mut Ctx| {
            let kv = ctx.kv_create()?;
            let prompt: Vec<(u32, u32)> =
                (0..24).map(|j| (1 + ((p * 31 + j * 7) % 300) as u32, j as u32)).collect();
            let mut dist = ctx
                .pred(kv, &prompt)?
                .last()
                .ok_or(SysError::BadArgument)?;
            for i in 0..6u32 {
                dist = ctx
                    .pred(kv, &[(dist.argmax(), 24 + i)])?
                    .last()
                    .ok_or(SysError::BadArgument)?;
            }
            ctx.kv_remove(kv)?;
            Ok(())
        }));
    }
    (k, pids)
}

fn run_traced(seed: u64) -> (Kernel, Vec<symphony::Pid>, String) {
    let (mut k, pids) = sched_kernel(seed);
    k.run();
    let trace = k.export_chrome_trace();
    (k, pids, trace)
}

#[test]
fn same_seed_continuous_run_exports_byte_identical_trace() {
    let (ka, pids, a) = run_traced(42);
    let (_, _, b) = run_traced(42);
    assert_eq!(a, b, "same seed must export byte-identical traces");
    for &pid in &pids {
        let rec = ka.record(pid).unwrap();
        assert!(rec.status.is_ok(), "{:?}", rec.status);
    }
    // The continuous executor's instrumentation is present: chunked
    // prefill instants on the GPU track, preemptions on the scheduler
    // track, and swaps from the recovery path.
    assert!(ka.prefill_chunks() > 0, "run should chunk prefills");
    assert!(ka.preemptions() > 0, "pool is too small; run should preempt");
    for needle in ["\"chunk\"", "\"preempt\"", "kv_swap", "gpu_batch"] {
        assert!(a.contains(needle), "trace missing {needle}");
    }
}

/// Compares `trace` with the checked-in fixture `tests/golden/<name>`, or
/// rewrites the fixture under `UPDATE_GOLDEN=1`.
fn assert_matches_golden(name: &str, trace: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden/");
        std::fs::write(&path, trace).expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()));
    assert_eq!(
        trace,
        golden,
        "{name} drifted from the golden fixture; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// A tiny fixed-seed continuous-mode run whose exported trace is checked
/// into the repo. Regenerate after intentional format/instrumentation
/// changes with:
/// `UPDATE_GOLDEN=1 cargo test -p symphony-bench --test sched_tests golden`
#[test]
fn golden_sched_trace_matches() {
    let (_, _, trace) = run_traced(0x5C_4E_D0);
    assert_matches_golden("tiny_sched_trace.json", &trace);
}

/// The static preset under KV pressure, traced: a hog fills 14 of the 16
/// GPU pages, a victim's 16-token `pred` gets `Kv(NoGpuMemory)` at once
/// and the victim's own policy (Figure 3's: back off, retry) re-pools it
/// 2 ms later, three times, before giving up; a third program `pred`s a
/// file it swapped out itself and gets `NotResident` (the kernel never
/// moves a static program's KV). Staggered arrivals make the windowed
/// policies arm, and re-arm earlier, their `WaitUntil` timers.
fn static_gate_trace(policy: BatchPolicy) -> String {
    let mut cfg = KernelConfig::for_tests();
    cfg.seed = 0x0057_A71C;
    cfg.telemetry = true;
    cfg.exec = ExecMode::Static(policy);
    cfg.gpu_kv_bytes_override = Some(16 * 4 * cfg.model.kv_bytes_per_token());
    let mut k = Kernel::new(cfg);
    let hog = k.spawn_process("hog", "", |ctx: &mut Ctx| {
        let kv = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..56).map(|i| (i + 1, i)).collect();
        ctx.pred(kv, &tokens)?;
        ctx.sleep(SimDuration::from_millis(40))?;
        Ok(())
    });
    let swapper = k.spawn_process("swapper", "", |ctx: &mut Ctx| {
        ctx.sleep(SimDuration::from_micros(500))?;
        let kv = ctx.kv_create()?;
        let mut dist = ctx
            .pred(kv, &[(7, 0), (8, 1)])?
            .last()
            .ok_or(SysError::BadArgument)?;
        for i in 0..3u32 {
            dist = ctx
                .pred(kv, &[(dist.argmax(), 2 + i)])?
                .last()
                .ok_or(SysError::BadArgument)?;
        }
        ctx.kv_swap_out(kv)?;
        assert_eq!(
            ctx.pred(kv, &[(dist.argmax(), 5)]).unwrap_err(),
            SysError::Kv(KvError::NotResident)
        );
        Ok(())
    });
    let victim = k.spawn_process("victim", "", |ctx: &mut Ctx| {
        ctx.sleep(SimDuration::from_millis(1))?;
        let kv = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..16).map(|i| (i + 1, i)).collect();
        let mut attempts = 0;
        loop {
            attempts += 1;
            let err = ctx.pred(kv, &tokens).unwrap_err();
            assert_eq!(err, SysError::Kv(KvError::NoGpuMemory));
            if attempts > 3 {
                break;
            }
            ctx.sleep(SimDuration::from_millis(2))?;
        }
        ctx.emit(&format!("attempts={attempts}"))?;
        Ok(())
    });
    k.run();
    for pid in [hog, swapper, victim] {
        let rec = k.record(pid).unwrap();
        assert!(rec.status.is_ok(), "{:?}", rec.status);
    }
    // One answer per attempt, all of them `NoGpuMemory`: the first call
    // and three retries.
    assert_eq!(k.record(victim).unwrap().output, "attempts=4");
    k.export_chrome_trace()
}

/// The static gate's fixture: one run per windowed policy, in one JSON
/// document. Regenerate as for `golden_sched_trace_matches`.
#[test]
fn golden_static_gate_trace_matches() {
    let adaptive = static_gate_trace(BatchPolicy::Adaptive {
        target_batch: 4,
        max_wait: SimDuration::from_millis(5),
    });
    let fixed_window = static_gate_trace(BatchPolicy::FixedWindow {
        max_wait: SimDuration::from_millis(3),
        max_batch: 3,
    });
    // The victim's four `pred`s pool at four instants, 2 ms apart after
    // the first.
    let victim_pools = adaptive
        .lines()
        .filter(|l| l.contains("\"pred_enqueue\"") && l.contains("\"tokens\":16"))
        .count();
    assert_eq!(victim_pools, 4, "{adaptive}");
    let both = format!("{{\"adaptive\":{adaptive},\n\"fixed_window\":{fixed_window}}}\n");
    assert_matches_golden("static_gate_trace.json", &both);
}
