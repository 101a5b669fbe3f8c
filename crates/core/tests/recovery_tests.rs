//! Kernel crash/recovery chaos tests.
//!
//! The centrepiece kills the kernel at *every* syscall boundary of a small
//! agent workload (pred loops, deterministic tools — one of which the odd
//! agents retry after a failed first attempt — IPC to a collector,
//! `now`/`lookup` effects), recovers from the WAL, and asserts the union of
//! crashed + recovered execution is indistinguishable from an uninterrupted
//! run: byte-equal per-program outputs, equal exit statuses, and — via a
//! shared side-effect counter inside the tool handler — **zero duplicated
//! tool effects** (exactly-once).
//!
//! Workload constraints these tests respect (documented in
//! `docs/RESILIENCE.md`): args-deterministic tool handlers, no admission
//! shedding, and the collector sorts received
//! messages so live-tail delivery order (which may legally differ during
//! replay, when journalled tool calls complete instantly) cannot leak into
//! outputs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[path = "decode/mod.rs"]
mod decode;

use decode::GenOpts;
use symphony::{
    Body, ContinuousConfig, Dist, EventKind, ExecMode, ExitStatus, FaultPlan, Kernel, KernelConfig,
    Preds, ProgramImage, QueueDiscipline, SimDuration, SimTime, SpawnOpts, SysError, ToolOutcome,
    ToolSpec, WalConfig,
};

/// How a durable program here is admitted: now, with the default limits.
fn durable() -> SpawnOpts {
    SpawnOpts {
        durable: true,
        ..SpawnOpts::default()
    }
}

/// Unique-per-process temp path so parallel test runs don't collide.
fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("symphony-recovery-{}-{}", std::process::id(), name))
}

const AGENTS: usize = 3;

/// The fleet's two deterministic tools: output depends only on args;
/// latency is fixed. The shared counter observes real handler firings
/// (replayed calls must not re-fire it). `fetch` takes `<agent>#<attempt>`
/// and fails the first attempt of an odd-numbered agent — decided by the
/// args, not by a counter, so a re-executed call gets the outcome the first
/// execution got.
fn register_tools(k: &mut Kernel, fired: Arc<AtomicU64>) {
    let search = fired.clone();
    k.register_tool(
        "search",
        ToolSpec::fixed(SimDuration::from_millis(4), move |args| {
            search.fetch_add(1, Ordering::SeqCst);
            ToolOutcome::Ok(format!("doc({args})"))
        }),
    );
    k.register_tool(
        "fetch",
        ToolSpec::fixed(SimDuration::from_millis(2), move |args| {
            fired.fetch_add(1, Ordering::SeqCst);
            let (agent, attempt) = args.split_once('#').unwrap_or((args, ""));
            let odd = agent.parse::<u32>().is_ok_and(|a| a % 2 == 1);
            if odd && attempt == "0" {
                ToolOutcome::Failed("503".into())
            } else {
                ToolOutcome::Ok(format!("page({agent})"))
            }
        }),
    );
}

/// Research-agent LIP: sample a few tokens, consult the tools, stamp the
/// virtual clock, and report to the collector.
fn agent_image() -> ProgramImage {
    Arc::new(|ctx| {
        let args = ctx.args();
        let prompt = ctx.tokenize(&format!("investigate topic {args} thoroughly"))?;
        let kv = ctx.kv_create()?;
        let gen = decode::generate(
            ctx,
            kv,
            &prompt,
            &GenOpts { max_tokens: 5, temperature: 0.8, ..Default::default() },
        )?;
        let answer = ctx.detokenize(&gen.tokens)?;
        let doc = ctx.call_tool("search", &args)?;
        // The program's own retry policy: a failed fetch is tried again
        // after a pause.
        let mut attempt = 0;
        let page = loop {
            match ctx.call_tool("fetch", &format!("{args}#{attempt}")) {
                Err(SysError::ToolFailed(_)) if attempt < 2 => {
                    ctx.sleep(SimDuration::from_millis(3))?;
                    attempt += 1;
                }
                result => break result?,
            }
        };
        // Exercise the `now` effect class, but keep the observed value out
        // of the output: virtual timing is NOT part of the equivalence
        // contract (a live tail runs on a clock that skipped replayed
        // latencies), only control flow and data are.
        let t = ctx.now()?;
        assert!(t >= SimTime::ZERO);
        ctx.emit(&format!("{args}:{answer}|{doc}|{page}"))?;
        let sink = ctx.lookup_process("sink")?.ok_or(SysError::NotFound)?;
        ctx.send_msg(sink, &format!("done-{args}"))?;
        ctx.kv_remove(kv)?;
        Ok(())
    })
}

/// Collector LIP: receives one report per agent, sorts (delivery order is
/// not part of the equivalence contract), and emits the digest.
fn sink_image() -> ProgramImage {
    Arc::new(|ctx| {
        let mut got = Vec::new();
        for _ in 0..AGENTS {
            got.push(ctx.recv_msg()?.data);
        }
        got.sort();
        ctx.emit(&got.join(","))?;
        Ok(())
    })
}

/// Late-arriving LIP used by the scheduled-durability tests. It samples, so
/// a crash before its arrival must not move its RNG stream.
fn late_image() -> ProgramImage {
    Arc::new(|ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let gen = decode::generate(
            ctx,
            kv,
            &prompt,
            &GenOpts { max_tokens: 4, temperature: 0.8, ..Default::default() },
        )?;
        ctx.emit(&format!("late:{}", ctx.detokenize(&gen.tokens)?))?;
        ctx.kv_remove(kv)?;
        Ok(())
    })
}

/// A native program has no image in the log: it is found by its name.
fn resolver(name: &str, _image: Option<&[u8]>) -> Option<Body> {
    let image = match name {
        "sink" => sink_image(),
        "late" => late_image(),
        n if n.starts_with("agent") => agent_image(),
        _ => return None,
    };
    Some(Body::from(image))
}

fn config(wal: &std::path::Path, crash_at: Option<u64>) -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(wal).with_checkpoint_every(SimDuration::from_millis(3)));
    cfg.faults = FaultPlan { crash_at_boundary: crash_at, ..FaultPlan::default() };
    cfg
}

/// Spawns the fleet: the collector first (agents look it up by name), then
/// the agents, then a scheduled program that arrives late in the run.
fn spawn_fleet(k: &mut Kernel) {
    k.admit("sink", "", durable(), Body::from(sink_image()));
    for i in 0..AGENTS {
        k.admit(
            &format!("agent{i}"),
            &format!("{i}"),
            durable(),
            Body::from(agent_image()),
        );
    }
    k.admit(
        "late",
        "a question that arrives later",
        SpawnOpts {
            durable: true,
            ..SpawnOpts::at(SimTime::ZERO + SimDuration::from_millis(20))
        },
        Body::from(late_image()),
    );
}

/// (name → (output, ok)) for every finished program.
fn outcomes(k: &Kernel) -> BTreeMap<String, (String, bool)> {
    k.records()
        .filter(|r| r.exited_at.is_some())
        .map(|r| (r.name.clone(), (r.output.clone(), r.status.is_ok())))
        .collect()
}

struct Baseline {
    outcomes: BTreeMap<String, (String, bool)>,
    boundaries: u64,
    invocations: u64,
    fired: u64,
}

fn run_baseline(path: &std::path::Path) -> Baseline {
    let fired = Arc::new(AtomicU64::new(0));
    let mut k = Kernel::new(config(path, None));
    register_tools(&mut k, fired.clone());
    spawn_fleet(&mut k);
    k.run();
    assert!(k.crashed().is_none());
    let b = Baseline {
        outcomes: outcomes(&k),
        boundaries: k.syscall_boundaries(),
        invocations: k.tool_invocations(),
        fired: fired.load(Ordering::SeqCst),
    };
    assert_eq!(b.outcomes.len(), AGENTS + 2, "fleet + sink + late all finish");
    assert_eq!(
        b.invocations,
        (2 * AGENTS + AGENTS / 2) as u64,
        "a search and a fetch per agent, and a second fetch per odd agent"
    );
    assert!(b.outcomes.values().all(|(_, ok)| *ok));
    b
}

/// The tentpole chaos sweep: for every syscall boundary `b`, crash there,
/// recover, and demand full equivalence with the uninterrupted run.
#[test]
fn kill_at_every_syscall_boundary_recovers_equivalently() {
    let base_path = tmp("sweep-base.wal");
    let baseline = run_baseline(&base_path);
    assert!(baseline.boundaries > 20, "workload exercises a real kill-point space");

    for b in 1..=baseline.boundaries {
        let path = tmp(&format!("sweep-{b}.wal"));
        let fired = Arc::new(AtomicU64::new(0));

        // Run until the injected crash.
        let crashed_invocations = {
            let mut k = Kernel::new(config(&path, Some(b)));
            register_tools(&mut k, fired.clone());
            spawn_fleet(&mut k);
            k.run();
            assert_eq!(k.crashed(), Some(b), "kill-point {b} fires");
            k.tool_invocations()
        };

        // Recover: journalled effects replay, the tail re-executes live.
        let (mut k, report) =
            Kernel::recover(config(&path, None), resolver).expect("recoverable WAL");
        register_tools(&mut k, fired.clone());
        assert_eq!(report.lost, 0, "boundary {b}: every image resolves");
        k.run();
        assert!(k.crashed().is_none());

        assert_eq!(
            outcomes(&k),
            baseline.outcomes,
            "boundary {b}: outputs and statuses match the uninterrupted run"
        );
        assert_eq!(
            crashed_invocations + k.tool_invocations(),
            baseline.invocations,
            "boundary {b}: exactly-once tool invocations across crash + recovery"
        );
        assert_eq!(
            fired.load(Ordering::SeqCst),
            baseline.fired,
            "boundary {b}: no tool handler fired twice"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&base_path).ok();
}

/// Recovery is itself crash-tolerant: kill the kernel, recover, kill the
/// *recovered* run (early, midway and at its last boundary but one),
/// recover again from the same log, and the three runs together are still
/// indistinguishable from an uninterrupted one — same outputs, and every
/// tool handler fired exactly once across both crashes.
#[test]
fn a_crash_during_recovery_recovers_equivalently() {
    let base_path = tmp("double-base.wal");
    let baseline = run_baseline(&base_path);
    std::fs::remove_file(&base_path).ok();

    // Crashes a fresh fleet at `b1`, then recovers it with the next
    // kill-point armed at `b2` of the recovered run (`None`: run it out).
    let crash_then_recover = |path: &std::path::Path, b1: u64, b2: Option<u64>| {
        let fired = Arc::new(AtomicU64::new(0));
        {
            let mut k = Kernel::new(config(path, Some(b1)));
            register_tools(&mut k, fired.clone());
            spawn_fleet(&mut k);
            k.run();
            assert_eq!(k.crashed(), Some(b1));
        }
        let recover = |crash_at: Option<u64>| {
            let (mut k, report) =
                Kernel::recover(config(path, crash_at), resolver).expect("recoverable WAL");
            register_tools(&mut k, fired.clone());
            assert_eq!(report.lost, 0);
            k.run();
            assert_eq!(k.crashed(), crash_at);
            k
        };
        let k = recover(b2);
        (b2.map_or(k, |_| recover(None)), fired.load(Ordering::SeqCst))
    };

    for b1 in (5..=baseline.boundaries).step_by(5) {
        let path = tmp(&format!("double-{b1}.wal"));
        // The recovered run's own kill-point space.
        let (recovered, _) = crash_then_recover(&path, b1, None);
        let last = recovered.syscall_boundaries();
        drop(recovered);
        let second: std::collections::BTreeSet<u64> = [1, last / 2, last.saturating_sub(1)]
            .into_iter()
            .filter(|b2| (1..=last).contains(b2))
            .collect();
        for b2 in second {
            let (k, fired) = crash_then_recover(&path, b1, Some(b2));
            assert_eq!(
                outcomes(&k),
                baseline.outcomes,
                "crash at {b1}, then at {b2} of the recovered run"
            );
            assert_eq!(
                fired, baseline.fired,
                "crash at {b1}, then at {b2}: a tool handler fired twice or never"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Two independent crash+recover sequences with identical configs are
/// byte-identical — recovery itself is deterministic.
#[test]
fn recovery_is_deterministic() {
    let run = |tag: &str| {
        let path = tmp(&format!("det-{tag}.wal"));
        let traced = |crash_at| {
            let mut cfg = config(&path, crash_at);
            cfg.telemetry = true;
            cfg
        };
        {
            let mut k = Kernel::new(traced(Some(17)));
            register_tools(&mut k, Arc::new(AtomicU64::new(0)));
            spawn_fleet(&mut k);
            k.run();
            assert_eq!(k.crashed(), Some(17));
            assert!(matches!(
                k.telemetry_events().last().map(|e| &e.kind),
                Some(EventKind::KernelCrash { boundary: 17 })
            ));
        }
        let (mut k, report) = Kernel::recover(traced(None), resolver).unwrap();
        register_tools(&mut k, Arc::new(AtomicU64::new(0)));
        let resumed = report.resumed as u64;
        k.run();
        assert!(k.telemetry_events().iter().any(
            |e| matches!(e.kind, EventKind::KernelRecovery { resumed: r, .. } if r == resumed)
        ));
        let out = (outcomes(&k), k.telemetry_events().to_vec());
        std::fs::remove_file(&path).ok();
        out
    };
    assert_eq!(run("a"), run("b"));
}

/// A replayed `pred` is answered from the checkpoint's completion record,
/// not a stored reply:
/// the distributions are re-derived along the file's fingerprint chain and
/// must equal the ones the GPU produced before the crash bit for bit —
/// for a prefill that spanned several chunks as much as for single-token
/// decodes.
#[test]
fn replayed_pred_replies_equal_the_live_ones() {
    type Replies = Arc<Mutex<Vec<Vec<Dist>>>>;
    fn image(seen: Replies) -> ProgramImage {
        Arc::new(move |ctx| {
            let record = |d: &Preds| seen.lock().unwrap().push(d.iter().collect());
            let prompt = ctx.tokenize("a prompt long enough to be prefilled in several chunks")?;
            let kv = ctx.kv_create()?;
            let mut dists = ctx.pred_positions(kv, &prompt, 0)?;
            record(&dists);
            for pos in prompt.len() as u32..prompt.len() as u32 + 12 {
                let t = ctx.sample(&dists.last().ok_or(SysError::BadArgument)?);
                dists = ctx.pred(kv, &[(t, pos)])?;
                record(&dists);
            }
            ctx.emit("done")?;
            Ok(())
        })
    }
    let path = tmp("pred-replay.wal");
    let cfg = |crash_at| {
        let mut cfg = config(&path, crash_at);
        cfg.exec = ExecMode::Continuous(ContinuousConfig {
            chunk_tokens: Some(4),
            discipline: QueueDiscipline::Fifo,
        });
        cfg.wal = Some(WalConfig::new(&path).with_checkpoint_every(SimDuration::from_micros(100)));
        cfg.telemetry = true;
        cfg.causal = true;
        cfg
    };
    let boundaries = {
        let mut k = Kernel::new(cfg(None));
        k.admit(
            "decoder",
            "",
            durable(),
            Body::from(image(Replies::default())),
        );
        k.run();
        k.syscall_boundaries()
    };

    let live = Replies::default();
    let mut k = Kernel::new(cfg(Some(boundaries)));
    k.admit("decoder", "", durable(), Body::from(image(live.clone())));
    k.run();
    assert_eq!(k.crashed(), Some(boundaries));
    assert!(k.prefill_chunks() > 1, "the prompt was prefilled in chunks");
    drop(k);

    let replayed = Replies::default();
    let resolve = replayed.clone();
    let (mut k, _) = Kernel::recover(cfg(None), move |_, _| {
        Some(Body::from(image(resolve.clone())))
    })
    .unwrap();
    k.run();
    let from_markers = k
        .telemetry_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ReplayAnswered { sys: "pred", .. }))
        .count();
    let live = live.lock().unwrap();
    assert_eq!(live.len(), 13);
    assert!(
        from_markers > live.len() / 2,
        "only {from_markers} of {} preds were answered from the log",
        live.len()
    );
    assert!(
        *replayed.lock().unwrap() == *live,
        "a replayed reply differs"
    );
    assert_eq!(outcomes(&k)["decoder"], ("done".to_string(), true));
    std::fs::remove_file(&path).ok();
}

/// `(gpu.tokens, gpu.busy_ns)`: the GPU work a kernel charged.
fn gpu_work(k: &Kernel) -> (u64, u64) {
    let r = k.metrics_registry();
    let [tokens, busy] = ["gpu.tokens", "gpu.busy_ns"].map(|m| r.counter_value(m).unwrap_or(0));
    (tokens, busy)
}

/// `pred`s a recovered kernel answered from the log (causal telemetry).
fn preds_from_log(k: &Kernel) -> usize {
    k.telemetry_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ReplayAnswered { sys: "pred", .. }))
        .count()
}

/// Continuous batching in 4-token chunks, checkpoints every `every`, causal
/// telemetry on.
fn chunked_config(
    path: &std::path::Path,
    every: SimDuration,
    crash_at: Option<u64>,
) -> KernelConfig {
    let mut cfg = config(path, crash_at);
    cfg.exec = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(4),
        discipline: QueueDiscipline::Fifo,
    });
    cfg.wal = Some(WalConfig::new(path).with_checkpoint_every(every));
    cfg.telemetry = true;
    cfg.causal = true;
    cfg
}

/// Runs `image` durably as `p`, crashed at syscall boundary `crash_at`
/// (`None`: its last one), then recovers and runs `resumed` in its place:
/// the recovered kernel, run out.
fn crash_and_recover(
    cfg: impl Fn(Option<u64>) -> KernelConfig,
    crash_at: Option<u64>,
    image: ProgramImage,
    resumed: ProgramImage,
) -> Kernel {
    let crash_at = crash_at.unwrap_or_else(|| {
        let mut k = Kernel::new(cfg(None));
        k.admit("p", "", durable(), Body::from(image.clone()));
        k.run();
        k.syscall_boundaries()
    });
    let mut k = Kernel::new(cfg(Some(crash_at)));
    k.admit("p", "", durable(), Body::from(image));
    k.run();
    assert_eq!(k.crashed(), Some(crash_at));
    drop(k);
    let (mut k, _) =
        Kernel::recover(cfg(None), move |_, _| Some(Body::from(resumed.clone()))).unwrap();
    assert_eq!(gpu_work(&k), (0, 0));
    k.run();
    k
}

/// A `pred` the last checkpoint before the crash lists as completed is
/// answered from the log: the recovered kernel charges the GPU nothing for
/// it. With no checkpoint in between, the same call runs live.
#[test]
fn a_pred_the_checkpoint_lists_charges_no_gpu_time() {
    fn image() -> ProgramImage {
        Arc::new(|ctx| {
            let prompt = ctx.tokenize("a prompt the log vouches for")?;
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &prompt, 0)?;
            ctx.sleep(SimDuration::from_millis(1))?;
            ctx.emit("done")
        })
    }
    let path = tmp("pred-gpu.wal");
    // The crash lands at the `emit`: checkpoints every 100 µs have listed
    // the call during the sleep; at 1 s none has.
    for (every_us, listed) in [(100, true), (1_000_000, false)] {
        let every = SimDuration::from_micros(every_us);
        let k = crash_and_recover(|c| chunked_config(&path, every, c), None, image(), image());
        assert_eq!(outcomes(&k)["p"], ("done".to_string(), true));
        let (tokens, busy) = gpu_work(&k);
        if listed {
            assert_eq!(preds_from_log(&k), 1);
            assert_eq!((tokens, busy), (0, 0), "a listed pred charges no GPU time");
        } else {
            assert_eq!(preds_from_log(&k), 0);
            assert!(tokens > 0 && busy > 0, "an unlisted pred runs live");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The completion record's guard: a re-execution whose second `pred` is
/// longer than the one the log recorded (4 tokens where 3 completed) gets
/// no answer from the log for it. The first call still adds up and is
/// answered; the second runs live and charges exactly its own tokens.
#[test]
fn a_replayed_pred_the_record_does_not_vouch_for_runs_live() {
    fn image(cut: [usize; 2]) -> ProgramImage {
        Arc::new(move |ctx| {
            let prompt = ctx.tokenize("a prompt long enough to be cut in two different ways")?;
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &prompt[..cut[0]], 0)?;
            ctx.pred_positions(kv, &prompt[cut[0]..cut[0] + cut[1]], cut[0] as u32)?;
            ctx.sleep(SimDuration::from_millis(1))?;
            ctx.emit("done")
        })
    }
    let path = tmp("pred-guard.wal");
    let cfg = |c| chunked_config(&path, SimDuration::from_micros(100), c);
    let k = crash_and_recover(cfg, None, image([5, 3]), image([5, 4]));
    assert_eq!(outcomes(&k)["p"], ("done".to_string(), true));
    assert_eq!(
        preds_from_log(&k),
        1,
        "only the call that adds up is answered"
    );
    assert_eq!(gpu_work(&k).0, 4, "the 4-token call ran live");
    // The same image both times: both calls are answered.
    let k = crash_and_recover(cfg, None, image([5, 3]), image([5, 3]));
    assert_eq!((preds_from_log(&k), gpu_work(&k)), (2, (0, 0)));
    std::fs::remove_file(&path).ok();
}

/// Two threads of one process share its `pred` sequence. A sibling's long
/// prefill draws seq 0 and the main thread's short call seq 1, which
/// completes first: until the prefill lands, the record holds seq 1 above a
/// watermark of 0, and a crash then replays the short call from the log
/// and runs the prefill live. Crashed after a checkpoint that lists both,
/// the recovered process answers both from the log.
#[test]
fn siblings_whose_preds_complete_out_of_order_replay_both_from_the_log() {
    type Order = Arc<Mutex<Vec<(&'static str, usize)>>>;
    fn image(order: Order) -> ProgramImage {
        Arc::new(move |ctx| {
            let long = ctx.tokenize(&"a sibling prefills a long document ".repeat(8))?;
            let short = ctx.tokenize("short")?;
            let (kv_long, kv_short) = (ctx.kv_create()?, ctx.kv_create()?);
            let seen = order.clone();
            let sibling = ctx.spawn(move |c| {
                seen.lock().unwrap().push(("long asks", long.len()));
                c.pred_positions(kv_long, &long, 0)?;
                seen.lock().unwrap().push(("long done", long.len()));
                Ok(())
            })?;
            ctx.sleep(SimDuration::from_micros(10))?;
            order.lock().unwrap().push(("short asks", short.len()));
            ctx.pred_positions(kv_short, &short, 0)?;
            order.lock().unwrap().push(("short done", short.len()));
            // Checkpoints list the short call while the prefill runs on.
            ctx.sleep(SimDuration::from_micros(200))?;
            ctx.now()?;
            ctx.join(sibling)?;
            ctx.sleep(SimDuration::from_millis(1))?;
            ctx.emit("done")
        })
    }
    let path = tmp("pred-siblings.wal");
    let cfg = |c| chunked_config(&path, SimDuration::from_micros(100), c);
    let (last, order) = {
        let order = Order::default();
        let mut k = Kernel::new(cfg(None));
        k.admit("p", "", durable(), Body::from(image(order.clone())));
        k.run();
        let steps = order.lock().unwrap().clone();
        (k.syscall_boundaries(), steps)
    };
    let steps: Vec<&str> = order.iter().map(|&(step, _)| step).collect();
    assert_eq!(
        steps,
        ["long asks", "short asks", "short done", "long done"]
    );
    let (long, short) = (order[0].1, order[1].1);
    assert!(long > 4 * short, "the prefill spans many chunks");

    // What each crash point's recovery answered from the log, and the GPU
    // tokens it charged.
    let recovered: Vec<(usize, u64)> = (1..=last)
        .map(|b| {
            let k = crash_and_recover(
                cfg,
                Some(b),
                image(Order::default()),
                image(Order::default()),
            );
            assert_eq!(
                outcomes(&k)["p"],
                ("done".to_string(), true),
                "crash at {b}"
            );
            (preds_from_log(&k), gpu_work(&k).0)
        })
        .collect();
    for (b, &(answered, tokens)) in (1..).zip(&recovered) {
        let expected = match answered {
            0 => (long + short) as u64,
            1 => long as u64,
            _ => 0,
        };
        assert_eq!(
            tokens, expected,
            "crash at {b}: {answered} answered from the log"
        );
    }
    assert!(
        recovered.contains(&(1, long as u64)),
        "some crash lands while the record holds only the out-of-order call: {recovered:?}"
    );
    assert_eq!(recovered.last(), Some(&(2, 0)));
    std::fs::remove_file(&path).ok();
}

/// A clean shutdown leaves a WAL from which recovery restores every record
/// as *finished* — nothing re-executes, and the records survive verbatim.
#[test]
fn clean_run_recovers_as_finished_records() {
    let path = tmp("clean.wal");
    let baseline = run_baseline(&path);

    let (mut k, report) = Kernel::recover(config(&path, None), resolver).unwrap();
    register_tools(&mut k, Arc::new(AtomicU64::new(0)));
    assert_eq!(report.resumed, 0, "nothing was in flight");
    assert_eq!(report.finished, AGENTS + 2);
    assert_eq!(report.lost, 0);
    assert!(!report.torn);
    k.run();
    assert_eq!(outcomes(&k), baseline.outcomes);
    assert_eq!(k.tool_invocations(), 0, "finished programs never re-execute");
    std::fs::remove_file(&path).ok();
}

/// A durable program *scheduled* for a future arrival survives a crash that
/// lands before it starts: its admission frame re-admits it under its pid,
/// from which its threads' RNG streams are derived, at its journalled
/// arrival, so its sampled output matches the crash-free run.
#[test]
fn scheduled_program_survives_crash_before_arrival() {
    let base_path = tmp("sched-base.wal");
    let baseline = run_baseline(&base_path);
    let late_baseline = baseline.outcomes.get("late").cloned().expect("late ran");
    let arrival = SimTime::ZERO + SimDuration::from_millis(20);

    let path = tmp("sched-crash.wal");
    {
        // Boundary 2 lands well before the 20ms arrival of "late".
        let mut k = Kernel::new(config(&path, Some(2)));
        register_tools(&mut k, Arc::new(AtomicU64::new(0)));
        spawn_fleet(&mut k);
        k.run();
        assert_eq!(k.crashed(), Some(2));
        assert!(k.records().all(|r| r.name != "late" || r.exited_at.is_none()));
    }
    let mut cfg = config(&path, None);
    cfg.telemetry = true;
    let (mut k, report) = Kernel::recover(cfg, resolver).unwrap();
    assert!(report.clock < arrival, "the crash came before the arrival");
    register_tools(&mut k, Arc::new(AtomicU64::new(0)));
    k.run();
    assert_eq!(outcomes(&k).get("late"), Some(&late_baseline));
    let late = k.records().find(|r| r.name == "late").expect("late ran").pid;
    let started = k.telemetry_events().iter().find_map(|e| match e.kind {
        EventKind::ProcessSpawn { pid, .. } if pid == late.0 => Some(e.at),
        _ => None,
    });
    assert_eq!(started, Some(arrival), "it starts at its journalled arrival");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&base_path).ok();
}

/// An arrival already past is now. Once the clock has moved, a hosted and
/// a durable admission at `SimTime::ZERO` both start at the current time,
/// and a crash right after admission recovers the durable one at that time.
#[test]
fn an_arrival_in_the_past_starts_and_recovers_now() {
    let (path, crashed) = (tmp("past-arrival.wal"), tmp("past-arrival-crashed.wal"));
    let stamp: ProgramImage = Arc::new(|ctx| {
        let t = ctx.now()?;
        ctx.emit(&format!("{t:?}"))
    });
    let mut k = Kernel::new(config(&path, None));
    k.spawn_process("clock", "", |ctx| ctx.sleep(SimDuration::from_millis(10)));
    k.run();
    let now = k.now();
    assert_eq!(now, SimTime::ZERO + SimDuration::from_millis(10));
    let past = SpawnOpts::at(SimTime::ZERO);
    let hosted = k.admit("hosted", "", past, Body::from(Arc::clone(&stamp)));
    let durable = SpawnOpts {
        durable: true,
        ..past
    };
    let durable = k.admit("durable", "", durable, Body::from(Arc::clone(&stamp)));
    std::fs::copy(&path, &crashed).expect("the log so far");
    k.run();
    for pid in [hosted, durable] {
        let rec = k.record(pid).expect("record");
        assert_eq!(
            (rec.spawned_at, rec.output.clone()),
            (now, format!("{now:?}"))
        );
    }

    let resolve =
        |name: &str, _: Option<&[u8]>| (name == "durable").then(|| Body::from(Arc::clone(&stamp)));
    let (mut k, report) = Kernel::recover(config(&crashed, None), resolve).unwrap();
    assert_eq!((report.resumed, report.lost), (1, 0));
    k.run();
    let rec = k
        .records()
        .find(|r| r.name == "durable")
        .expect("recovered");
    assert_eq!(
        (rec.spawned_at, rec.output.clone()),
        (now, format!("{now:?}"))
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&crashed).ok();
}

/// An unresolvable image cannot be re-executed: recovery records the
/// program as crashed rather than silently dropping it, and everything
/// else still completes.
#[test]
fn unresolvable_image_is_recorded_as_crashed() {
    let path = tmp("lost.wal");
    {
        let mut k = Kernel::new(config(&path, Some(30)));
        register_tools(&mut k, Arc::new(AtomicU64::new(0)));
        spawn_fleet(&mut k);
        k.run();
        assert_eq!(k.crashed(), Some(30));
    }
    let lose_sink = |name: &str, image: Option<&[u8]>| {
        if name == "sink" {
            None
        } else {
            resolver(name, image)
        }
    };
    let (mut k, report) = Kernel::recover(config(&path, None), lose_sink).unwrap();
    register_tools(&mut k, Arc::new(AtomicU64::new(0)));
    assert_eq!(report.lost, 1, "the sink's image is gone");
    let lost = k
        .records()
        .find(|r| r.name == "sink")
        .expect("lost program still has a record");
    assert!(matches!(lost.status, ExitStatus::Crashed));
    std::fs::remove_file(&path).ok();
}

/// An image the resolver cannot rebuild is a lost program, not a panic. The
/// log is written by hand: two admission frames whose bodies were data,
/// one image the resolver reads (`echo:<text>`, a program that emits the
/// text) and one it cannot (bytes that are not UTF-8). The one is run
/// again; the other is recorded as crashed.
#[test]
fn an_image_the_resolver_cannot_rebuild_is_recorded_as_lost() {
    use symphony::wal::{WAL_MAGIC, WAL_VERSION};
    use symphony_sim::frame::{append_frame, push_opt_u64, push_str, push_u32, push_u64};
    use symphony_sim::seglog::{encode_head, Head};

    // Tag 32: at, pid, arrival, name, args, seven absent limits, then the
    // image behind its length.
    let admission = |pid: u64, name: &str, image: &[u8]| {
        let mut payload = Vec::new();
        push_u64(&mut payload, 0);
        push_u64(&mut payload, pid);
        push_u64(&mut payload, 0);
        push_str(&mut payload, name);
        push_str(&mut payload, "");
        for _ in 0..7 {
            push_opt_u64(&mut payload, None);
        }
        push_u32(&mut payload, image.len() as u32);
        payload.extend_from_slice(image);
        payload
    };
    let path = tmp("unbuildable.wal");
    let cfg = config(&path, None);
    let head = Head::<1> {
        magic: WAL_MAGIC,
        version: WAL_VERSION,
    };
    let mut bytes = encode_head(&head, [cfg.seed]);
    append_frame(&mut bytes, 32, &admission(1, "echo", b"echo:kept"));
    let garbled = admission(2, "garbled", &[0xff, 0xfe, 0x00]);
    append_frame(&mut bytes, 32, &garbled);
    std::fs::write(&path, &bytes).expect("write the log");

    let resolve = |_: &str, image: Option<&[u8]>| {
        let text = std::str::from_utf8(image?).ok()?.strip_prefix("echo:")?;
        let text = text.to_string();
        Some(Body::hosted(move |ctx| ctx.emit(&text)))
    };
    let (mut k, report) = Kernel::recover(cfg, resolve).expect("a readable log");
    assert_eq!(
        (report.frames, report.resumed, report.lost, report.torn),
        (2, 1, 1, false)
    );
    k.run();
    let outcome = |name: &str| {
        let rec = k.records().find(|r| r.name == name).expect("a record");
        (rec.output.clone(), rec.status.clone())
    };
    assert_eq!(outcome("echo"), ("kept".to_string(), ExitStatus::Ok));
    assert_eq!(outcome("garbled"), (String::new(), ExitStatus::Crashed));
    std::fs::remove_file(&path).ok();
}

/// Runs a durable program that sleeps `sleep` on a kernel checkpointing
/// every `every`, on its own thread, and fails unless it has finished
/// within 20 s of wall time. Returns the checkpoints it wrote.
fn sleep_durably_within_20_s(tag: &str, sleep: SimDuration, every: SimDuration) -> u64 {
    let path = tmp(&format!("long-sleep-{tag}.wal"));
    let (done, finished) = std::sync::mpsc::channel();
    let wal = path.clone();
    std::thread::spawn(move || {
        let mut cfg = KernelConfig::for_tests();
        cfg.wal = Some(WalConfig::new(&wal).with_checkpoint_every(every));
        let mut k = Kernel::new(cfg);
        let body = Body::hosted(move |ctx| ctx.sleep(sleep));
        let pid = k.admit("sleeper", "", durable(), body);
        k.run();
        assert!(k.record(pid).unwrap().status.is_ok());
        let checkpoints = k.metrics_registry().counter_value("kernel.checkpoints");
        done.send(checkpoints.unwrap_or(0)).ok();
    });
    let checkpoints = finished
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("the run finishes (a checkpoint steps over every boundary it slept past)");
    std::fs::remove_file(&path).ok();
    checkpoints
}

/// A sleep to the end of virtual time: the next checkpoint boundary
/// saturates at `SimTime::MAX` instead of being stepped towards it forever.
#[test]
fn a_sleep_to_the_end_of_time_finishes() {
    let checkpoints = sleep_durably_within_20_s("max", SimDuration::MAX, SimDuration::from_millis(5));
    assert!(checkpoints <= 2, "{checkpoints} checkpoints");
}

/// A day's sleep under a 1 µs interval crosses 8.64e10 boundaries: the
/// checkpoint after it moves past all of them in one step.
#[test]
fn a_day_long_sleep_under_a_microsecond_interval_finishes() {
    let day = SimDuration::from_secs(86_400);
    let checkpoints = sleep_durably_within_20_s("day", day, SimDuration::from_micros(1));
    assert!(checkpoints <= 2, "{checkpoints} checkpoints");
}

/// Recovering without a WAL config, or from a missing file, fails with the
/// typed errors rather than panicking.
#[test]
fn recover_error_paths_are_typed() {
    let cfg = KernelConfig::for_tests();
    assert!(matches!(Kernel::recover(cfg, resolver), Err(symphony::WalError::Disabled)));

    let cfg = config(&tmp("never-created.wal"), None);
    assert!(matches!(Kernel::recover(cfg, resolver), Err(symphony::WalError::Unreadable)));
}

// ---- a peer that has exited, on a kernel with a session sink ---------------

/// A durable program that is done at once.
fn peer_image() -> ProgramImage {
    Arc::new(|ctx| ctx.emit("peer done"))
}

/// Writes to `peer` (its pid is the args) once it has exited, and emits what
/// the send answered. It decodes (and streams) a few tokens first, so a sweep has kill
/// points on both sides of the send, and waits on `lookup_process`, so
/// the peer has gone however a recovery replays the wait.
fn writer_image() -> ProgramImage {
    Arc::new(|ctx| {
        let peer = symphony::Pid(ctx.args().parse().expect("a pid"));
        let prompt = ctx.tokenize("a note for a peer that has gone")?;
        let kv = ctx.kv_create()?;
        let opts = GenOpts {
            max_tokens: 3,
            temperature: 0.0,
            ..Default::default()
        };
        let note = decode::generate(ctx, kv, &prompt, &opts)?;
        while ctx.lookup_process("peer")?.is_some() {
            ctx.sleep(SimDuration::from_millis(1))?;
        }
        let sent = ctx.send_msg(peer, &ctx.detokenize(&note.tokens)?);
        ctx.emit(&format!("{sent:?}"))?;
        ctx.kv_remove(kv)
    })
}

/// What a session sink received: each program's text and whether it
/// exited `Ok`, by pid.
type Received = Arc<Mutex<BTreeMap<u64, (String, Option<bool>)>>>;

fn install_sink(k: &mut Kernel) -> Received {
    let received: Received = Arc::default();
    let sink = Arc::clone(&received);
    k.set_session_sink(Box::new(move |ev| {
        let mut received = sink.lock().unwrap();
        match ev {
            symphony::SessionEvent::Emitted { pid, text, .. } => {
                received.entry(pid.0).or_default().0.push_str(&text);
            }
            symphony::SessionEvent::Exited { pid, status, .. } => {
                received.entry(pid.0).or_default().1 = Some(status.is_ok());
            }
        }
    }));
    received
}

/// The peer, then the writer (durable or not); their pids.
fn spawn_pair(k: &mut Kernel, durable_writer: bool) -> (symphony::Pid, symphony::Pid) {
    let peer = k.admit("peer", "", durable(), Body::from(peer_image()));
    let args = peer.0.to_string();
    let writer = if durable_writer {
        k.admit("writer", &args, durable(), Body::from(writer_image()))
    } else {
        let image = writer_image();
        k.spawn_process("writer", &args, move |ctx| image(ctx))
    };
    (peer, writer)
}

#[test]
fn a_send_to_an_exited_durable_peer_is_not_found_with_or_without_a_sink() {
    for sink in [false, true] {
        for durable_writer in [false, true] {
            let case = format!("sink {sink}, durable writer {durable_writer}");
            let path = tmp(&format!("gone-peer-{sink}-{durable_writer}.wal"));
            let mut k = Kernel::new(config(&path, None));
            let received = sink.then(|| install_sink(&mut k));
            let (peer, writer) = spawn_pair(&mut k, durable_writer);
            assert_eq!(k.run(), 2, "{case}");
            let said = match &received {
                // The sink had each exit, and the kernel kept nothing.
                Some(received) => {
                    assert_eq!(k.records().count(), 0, "{case}");
                    let received = received.lock().unwrap();
                    assert_eq!(
                        received[&peer.0],
                        ("peer done".into(), Some(true)),
                        "{case}"
                    );
                    assert_eq!(received[&writer.0].1, Some(true), "{case}");
                    received[&writer.0].0.clone()
                }
                // The peer was a zombie when the writer wrote to it.
                None => {
                    assert!(k.record(peer).unwrap().status.is_ok(), "{case}");
                    assert!(k.record(writer).unwrap().status.is_ok(), "{case}");
                    k.record(writer).unwrap().output.clone()
                }
            };
            // What it decoded, streamed by `generate`, then the answer.
            let not_found = format!("{:?}", Err::<(), _>(SysError::NotFound));
            assert!(said.ends_with(&not_found), "{case}: {said:?}");
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A kernel with a session sink journals what one without does for its
/// durable programs: killed at every boundary and recovered (with no sink,
/// so finished programs come back as records), a durable writer and its
/// exited peer end as the sink saw them end in the uninterrupted run.
#[test]
fn a_durable_writer_with_a_sink_recovers_equivalently_at_every_boundary() {
    let base_path = tmp("gone-peer-base.wal");
    let (expected, boundaries) = {
        let mut k = Kernel::new(config(&base_path, None));
        let received = install_sink(&mut k);
        let (peer, writer) = spawn_pair(&mut k, true);
        k.run();
        let received = received.lock().unwrap();
        let outcome = |pid: symphony::Pid| {
            let (text, ok) = received[&pid.0].clone();
            (text, ok.expect("exited"))
        };
        let expected = BTreeMap::from([
            ("peer".to_string(), outcome(peer)),
            ("writer".to_string(), outcome(writer)),
        ]);
        (expected, k.syscall_boundaries())
    };
    assert!(expected.values().all(|(_, ok)| *ok));
    assert!(expected["writer"].0.ends_with("Err(NotFound)"));
    assert!(boundaries > 10, "{boundaries} boundaries");
    let resolve = |name: &str, _: Option<&[u8]>| match name {
        "peer" => Some(Body::from(peer_image())),
        "writer" => Some(Body::from(writer_image())),
        _ => None,
    };
    for b in 1..=boundaries {
        let path = tmp(&format!("gone-peer-{b}.wal"));
        {
            let mut k = Kernel::new(config(&path, Some(b)));
            install_sink(&mut k);
            spawn_pair(&mut k, true);
            k.run();
            assert_eq!(k.crashed(), Some(b), "kill-point {b} fires");
        }
        let (mut k, report) =
            Kernel::recover(config(&path, None), resolve).expect("recoverable WAL");
        assert_eq!(report.lost, 0);
        k.run();
        assert!(k.crashed().is_none());
        assert_eq!(outcomes(&k), expected, "boundary {b}");
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&base_path).ok();
}

// ---- messages across a crash -----------------------------------------------

/// Receives `n` messages (args `n,wait_ms`: it first sleeps `wait_ms`) and
/// emits each as `from:data;` in the order it got them.
fn receiver_image() -> ProgramImage {
    Arc::new(|ctx| {
        let args = ctx.args();
        let (n, wait) = args.split_once(',').expect("n,wait_ms");
        ctx.sleep(SimDuration::from_millis(wait.parse().expect("ms")))?;
        for _ in 0..n.parse::<u32>().expect("a count") {
            let msg = ctx.recv_msg()?;
            ctx.emit(&format!("{}:{};", msg.from.0, msg.data))?;
        }
        Ok(())
    })
}

/// Sends `m0`, `m1`, `m2` to the receiver (args `pid,gap_ms`: it sleeps
/// `gap_ms` before each send) and emits what each send answered.
fn sender_image() -> ProgramImage {
    Arc::new(|ctx| {
        let args = ctx.args();
        let (to, gap) = args.split_once(',').expect("pid,gap_ms");
        let to = symphony::Pid(to.parse().expect("a pid"));
        for i in 0..3 {
            ctx.sleep(SimDuration::from_millis(gap.parse().expect("ms")))?;
            let sent = ctx.send_msg(to, &format!("m{i}"));
            ctx.emit(&format!("{sent:?};"))?;
        }
        Ok(())
    })
}

/// Each message is journalled once, by its send frame, and a recovered
/// receiver's `recv` number *k* is answered by the *k*-th delivered send to
/// it. Killed at every syscall boundary and recovered, a durable
/// sender/receiver pair ends as the crash-free run ended — the receiver's
/// output byte for byte, in order — when (a) every message reaches a parked
/// receiver, (b) the messages wait in its mailbox, and (c) the first
/// message was dropped by the fault injector before the crash: it never
/// arrives, though the recovered kernel (no faults) would deliver it if it
/// were sent again. No log holds a receive frame.
#[test]
fn a_message_is_received_once_across_a_crash_at_every_boundary() {
    // (case, receiver args, sender gap, drop rate, expected receiver text).
    let cases = [
        ("parked", "3,0", 1, 0.0, "2:m0;2:m1;2:m2;"),
        ("mailbox", "3,10", 0, 0.0, "2:m0;2:m1;2:m2;"),
        ("dropped", "2,10", 0, DROP_FIRST_OF_THREE, "2:m1;2:m2;"),
    ];
    let resolve = |name: &str, _: Option<&[u8]>| match name {
        "receiver" => Some(Body::from(receiver_image())),
        "sender" => Some(Body::from(sender_image())),
        _ => None,
    };
    let seeded = |path: &std::path::Path, crash_at: Option<u64>, ipc_drop_rate: f64| {
        let mut cfg = config(path, crash_at);
        cfg.seed = DROP_SEED;
        cfg.faults.ipc_drop_rate = ipc_drop_rate;
        cfg
    };
    for (case, receiver_args, gap, ipc_drop_rate, heard) in cases {
        let run = |path: &std::path::Path, crash_at: Option<u64>| {
            let mut k = Kernel::new(seeded(path, crash_at, ipc_drop_rate));
            let receiver = k.admit(
                "receiver",
                receiver_args,
                durable(),
                Body::from(receiver_image()),
            );
            let sender = k.admit(
                "sender",
                &format!("{},{gap}", receiver.0),
                durable(),
                Body::from(sender_image()),
            );
            assert_eq!((receiver.0, sender.0), (1, 2), "{case}: pids");
            k.run();
            k
        };
        let drops = |k: &Kernel| {
            k.metrics_registry()
                .counter_value("faults.ipc_drops")
                .unwrap_or(0)
        };
        let base_path = tmp(&format!("ipc-{case}-base.wal"));
        let base = run(&base_path, None);
        let expected = outcomes(&base);
        assert_eq!(expected["receiver"], (heard.to_string(), true), "{case}");
        assert!(expected["sender"].1, "{case}");
        assert_eq!(
            drops(&base),
            u64::from(ipc_drop_rate > 0.0),
            "{case}: only m0 is dropped"
        );
        let boundaries = base.syscall_boundaries();
        drop(base);
        let mut swept = 0;
        for b in 1..=boundaries {
            let path = tmp(&format!("ipc-{case}-{b}.wal"));
            let crashed = run(&path, Some(b));
            assert_eq!(crashed.crashed(), Some(b), "{case}: kill-point {b} fires");
            // Recovery runs without faults: a crash before the drop would
            // have the recovered run deliver `m0`, unlike the baseline.
            if drops(&crashed) == 0 && ipc_drop_rate > 0.0 {
                std::fs::remove_file(&path).ok();
                continue;
            }
            drop(crashed);
            let (mut k, report) =
                Kernel::recover(seeded(&path, None, 0.0), resolve).expect("recoverable WAL");
            assert_eq!(report.lost, 0, "{case}, boundary {b}");
            k.run();
            assert!(k.crashed().is_none());
            assert_eq!(outcomes(&k), expected, "{case}, boundary {b}");
            let frames = symphony::wal::frame_counts(&std::fs::read(&path).unwrap()).unwrap();
            assert!(
                !frames.contains_key("ipc_recv"),
                "{case}, boundary {b}: {frames:?}"
            );
            assert_eq!(
                frames.get("ipc_send"),
                Some(&3),
                "{case}, boundary {b}: {frames:?}"
            );
            swept += 1;
            std::fs::remove_file(&path).ok();
        }
        assert!(
            swept > 5,
            "{case}: {swept} of {boundaries} boundaries swept"
        );
        std::fs::remove_file(&base_path).ok();
    }
}

/// A kernel seed, and an IPC drop rate at which the fault injector's first
/// draw under that seed drops a message and its next two do not.
const DROP_SEED: u64 = 1;
const DROP_FIRST_OF_THREE: f64 = 0.2;

// ---- published files across a crash -----------------------------------------

/// The text `publisher` prefills into the file it publishes.
const PUBLISHED: &str = "a document worth keeping across a crash";

/// Creates a file, fills it with a prefill of [`PUBLISHED`], links it as
/// `pub.kv`, opens it to every reader and exits: the file outlives it
/// (§4.2).
fn publisher_image() -> ProgramImage {
    Arc::new(|ctx| {
        let doc = ctx.tokenize(PUBLISHED)?;
        let kv = ctx.kv_create()?;
        ctx.pred_positions(kv, &doc, 0)?;
        ctx.kv_link(kv, "pub.kv")?;
        ctx.kv_chmod(kv, symphony::Mode::SHARED_READ)?;
        ctx.emit("published")?;
        Ok(())
    })
}

/// Arrives after the publisher has exited, forks what it published and
/// continues from it.
fn reader_image() -> ProgramImage {
    Arc::new(|ctx| {
        let doc = ctx.kv_open("pub.kv")?;
        let kv = ctx.kv_fork(doc)?;
        let from = ctx.kv_next_pos(kv)?;
        let q = ctx.tokenize(" and a question about it")?;
        let opts = GenOpts {
            max_tokens: 3,
            emit: false,
            ..Default::default()
        };
        let gen = decode::generate(ctx, kv, &q, &opts)?;
        ctx.emit(&format!("from {from}: {}", ctx.detokenize(&gen.tokens)?))?;
        ctx.kv_remove(kv)?;
        Ok(())
    })
}

fn publish_resolver(name: &str, _image: Option<&[u8]>) -> Option<Body> {
    match name {
        "publisher" => Some(Body::from(publisher_image())),
        "reader" => Some(Body::from(reader_image())),
        _ => None,
    }
}

fn spawn_publish(k: &mut Kernel) {
    k.admit("publisher", "", durable(), Body::from(publisher_image()));
    let later = SpawnOpts {
        durable: true,
        ..SpawnOpts::at(SimTime::ZERO + SimDuration::from_millis(40))
    };
    k.admit("reader", "", later, Body::from(reader_image()));
}

/// `pub.kv`'s tokens, if the store names it.
fn published(k: &Kernel) -> Option<Vec<u32>> {
    let f = k.store().lookup("pub.kv")?;
    let entries = k.store().read_all_unchecked(f).unwrap();
    Some(entries.iter().map(|e| e.token).collect())
}

/// Whether the log restored `name` as a finished, successful program.
fn finished_ok(k: &Kernel, name: &str) -> bool {
    k.records()
        .any(|r| r.name == name && r.exited_at.is_some() && r.status.is_ok())
}

/// A published file is as durable as the exit of the program that
/// published it. Killed at every boundary of a run where a durable program
/// publishes `pub.kv` and exits and a later one reads it, recovery
/// restores `pub.kv` with its tokens whenever it restores the publisher's
/// `Ok` exit; a publisher that had not exited runs again and links the
/// path again without `AlreadyExists`; the store verifies; and the run
/// ends as the uninterrupted one did, the reader included.
#[test]
fn a_published_file_survives_a_crash_at_every_boundary() {
    let base_path = tmp("publish-base.wal");
    let (expected, doc, boundaries) = {
        let mut k = Kernel::new(config(&base_path, None));
        spawn_publish(&mut k);
        k.run();
        (
            outcomes(&k),
            published(&k).expect("published"),
            k.syscall_boundaries(),
        )
    };
    assert!(expected.values().all(|(_, ok)| *ok), "{expected:?}");
    assert!(
        expected["reader"]
            .0
            .starts_with(&format!("from {}: ", doc.len())),
        "the reader continues from the whole file: {expected:?}"
    );
    let mut restored_exits = 0;
    for b in 1..=boundaries {
        let path = tmp(&format!("publish-{b}.wal"));
        {
            let mut k = Kernel::new(config(&path, Some(b)));
            spawn_publish(&mut k);
            k.run();
            assert_eq!(k.crashed(), Some(b), "kill-point {b} fires");
        }
        let (mut k, report) =
            Kernel::recover(config(&path, None), publish_resolver).expect("recoverable WAL");
        assert_eq!(report.lost, 0);
        k.store().verify().unwrap();
        if finished_ok(&k, "publisher") {
            restored_exits += 1;
            assert_eq!(
                published(&k).as_ref(),
                Some(&doc),
                "boundary {b}: the exit's file"
            );
        } else {
            assert_eq!(
                published(&k),
                None,
                "boundary {b}: the re-execution links it again"
            );
        }
        k.run();
        k.store().verify().unwrap();
        assert_eq!(
            outcomes(&k),
            expected,
            "boundary {b}: the publisher relinks without AlreadyExists, the reader finds the file"
        );
        assert_eq!(published(&k).as_ref(), Some(&doc), "boundary {b}");
        // What the recovered run published is in the log too.
        drop(k);
        let (k, report) = Kernel::recover(config(&path, None), publish_resolver).unwrap();
        assert_eq!((report.resumed, report.finished), (0, 2), "boundary {b}");
        k.store().verify().unwrap();
        assert_eq!(
            published(&k).as_ref(),
            Some(&doc),
            "boundary {b}, recovered twice"
        );
        std::fs::remove_file(&path).ok();
    }
    assert!(
        restored_exits > 0,
        "some kill-point falls after the publisher's exit"
    );
    assert!(restored_exits < boundaries, "and some before it");
    std::fs::remove_file(&base_path).ok();
}

/// The byte range of the first KV batch in a kernel log: from its first
/// frame to the end of the pool state that closes it.
fn first_kv_batch(bytes: &[u8]) -> (usize, usize) {
    use symphony_sim::frame::{next_frame, Cursor};
    const HEADER_LEN: usize = 20;
    let mut c = Cursor::new(&bytes[HEADER_LEN..]);
    let mut start = None;
    loop {
        let at = HEADER_LEN + c.pos();
        let (tag, _) = next_frame(&mut c).expect("the log holds a whole batch");
        if symphony_kvfs::journal::tag_name(tag).is_some() {
            start.get_or_insert(at);
        }
        if symphony::wal::tag_name(tag) == "pool_state" {
            return (start.unwrap(), HEADER_LEN + c.pos());
        }
    }
}

/// Arrives after the reader and publishes a file of its own.
fn late_publisher_image() -> ProgramImage {
    Arc::new(|ctx| {
        let kv = ctx.kv_create()?;
        ctx.pred_positions(kv, &ctx.tokenize("written after the first recovery")?, 0)?;
        ctx.kv_link(kv, "late.kv")?;
        Ok(())
    })
}

/// Every path the store names, with its tokens.
fn namespace(k: &Kernel) -> BTreeMap<String, Vec<u32>> {
    ["pub.kv", "late.kv"]
        .into_iter()
        .filter_map(|path| {
            let f = k.store().lookup(path)?;
            let entries = k.store().read_all_unchecked(f).unwrap();
            Some((path.to_string(), entries.iter().map(|e| e.token).collect()))
        })
        .collect()
}

/// A crash that tears the batch the publisher writes before its exit
/// drops the batch's leading frames with the tail: recovery reopens the
/// log where the batch began, so the publisher's second run writes its
/// batch on a clean boundary, and a second recovery restores `pub.kv`
/// once and the file a later program published after it. Cut at every
/// byte inside the batch.
#[test]
fn a_published_file_survives_a_torn_kv_batch_and_two_recoveries() {
    let spawn = |k: &mut Kernel| {
        spawn_publish(k);
        let later = SpawnOpts {
            durable: true,
            ..SpawnOpts::at(SimTime::ZERO + SimDuration::from_millis(80))
        };
        k.admit("late", "", later, Body::from(late_publisher_image()));
    };
    let resolve = |name: &str, image: Option<&[u8]>| match name {
        "late" => Some(Body::from(late_publisher_image())),
        _ => publish_resolver(name, image),
    };
    let base_path = tmp("torn-batch-base.wal");
    let (expected, files, bytes) = {
        let mut k = Kernel::new(config(&base_path, None));
        spawn(&mut k);
        k.run();
        let bytes = std::fs::read(&base_path).unwrap();
        (outcomes(&k), namespace(&k), bytes)
    };
    assert_eq!(files.len(), 2, "{files:?}");
    let (start, end) = first_kv_batch(&bytes);
    for cut in start + 1..end {
        let path = tmp(&format!("torn-batch-{cut}.wal"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (mut k, report) = Kernel::recover(config(&path, None), resolve).unwrap();
        assert!(report.torn, "cut {cut}");
        assert_eq!(report.wal_bytes, start as u64, "cut {cut}: the batch is dropped whole");
        assert!(!finished_ok(&k, "publisher"), "cut {cut}");
        assert_eq!(published(&k), None, "cut {cut}");
        k.run();
        assert_eq!(outcomes(&k), expected, "cut {cut}");
        drop(k);
        let (k, report) = Kernel::recover(config(&path, None), resolve).unwrap();
        assert!(!report.torn, "cut {cut}");
        assert_eq!((report.resumed, report.finished), (0, 3), "cut {cut}");
        k.store().verify().unwrap();
        assert_eq!(k.restored().and_then(|r| r.torn), None, "cut {cut}");
        assert_eq!(namespace(&k), files, "cut {cut}, recovered twice");
        assert_eq!(k.store().list_files().len(), 2, "cut {cut}: the published files alone");
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&base_path).ok();
}

/// A log's KV batches describe the linked files and the admin's: recovery
/// keeps the published file of a program that finished and the admin's
/// files, and nothing a re-executed program or a finished one left
/// unnamed.
#[test]
fn recovery_keeps_published_and_admin_files_only() {
    let path = tmp("publish-settle.wal");
    {
        let mut k = Kernel::new(config(&path, None));
        let tokens = k.tokenizer().encode(PUBLISHED);
        k.preload_kv("sys.kv", &tokens, symphony::Mode::SHARED_READ, true)
            .unwrap();
        // A scratch file the admin keeps unnamed survives too.
        let scratch = k.store_mut().create(symphony::OwnerId::ADMIN).unwrap();
        assert!(k.store().stat(scratch).is_ok());
        k.admit("publisher", "", durable(), Body::from(publisher_image()));
        // A durable program that holds an unnamed file when the kernel
        // dies, and is re-executed.
        k.admit(
            "holder",
            "",
            durable(),
            Body::from(Arc::new(|ctx: &mut symphony::Ctx| {
                let kv = ctx.kv_create()?;
                ctx.pred_positions(kv, &ctx.tokenize("held")?, 0)?;
                ctx.sleep(SimDuration::from_secs(3600))?;
                Ok(())
            }) as ProgramImage),
        );
        k.run_for(SimDuration::from_millis(50));
        assert!(finished_ok(&k, "publisher"));
        assert_eq!(
            k.store().list_files().len(),
            4,
            "sys, scratch, pub and held"
        );
    }
    // The publisher's exit logged sys, scratch and pub: the holder's
    // unnamed file is in no batch.
    let frames = symphony::wal::frame_counts(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(frames["file_meta"], 3, "{frames:?}");
    let resolve = |name: &str, image: Option<&[u8]>| match name {
        "holder" => Some(Body::hosted(|ctx| {
            ctx.sleep(SimDuration::from_secs(3600))?;
            Ok(())
        })),
        _ => publish_resolver(name, image),
    };
    let (k, report) = Kernel::recover(config(&path, None), resolve).unwrap();
    assert_eq!((report.resumed, report.finished), (1, 1));
    k.store().verify().unwrap();
    let owners: Vec<u64> = k.store().list_files().iter().map(|f| f.owner.0).collect();
    assert_eq!(
        owners.iter().filter(|&&o| o == 0).count(),
        2,
        "the admin's two files"
    );
    assert!(published(&k).is_some(), "the finished publisher's file");
    assert_eq!(
        owners.len(),
        3,
        "and not the re-executed holder's: {owners:?}"
    );
    assert_eq!(k.restored().map(|r| r.files), Some(3));
    std::fs::remove_file(&path).ok();
}
