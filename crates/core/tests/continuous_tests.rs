//! Continuous (iteration-level) batching end-to-end: the executor may
//! change *when* tokens are computed — chunked prefill, preemption, MLFQ
//! ordering — but never *what* any program observes. The last section
//! holds the launch rule both presets share (one decision per virtual
//! instant) and the differential test that pins where they coincide.

use symphony::sampling::{self, GenOpts};
use symphony::{
    BatchPolicy, ContinuousConfig, EventKind, ExecMode, ExitStatus, Kernel, KernelConfig,
    KvError, MlfqConfig, Pid, QueueDiscipline, SimDuration, SysError,
};

fn continuous(chunk: Option<usize>, discipline: QueueDiscipline) -> ExecMode {
    ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: chunk,
        discipline,
    })
}

/// A small mixed workload: staggered arrivals, longish prompts, greedy
/// decode, `cost_us` of CPU charge per syscall. Returns the per-process
/// outputs in spawn order.
fn run_workload(mut cfg: KernelConfig, cost_us: u64) -> (Kernel, Vec<Pid>) {
    cfg.syscall_cost = SimDuration::from_micros(cost_us);
    let mut k = Kernel::new(cfg);
    let mut pids = Vec::new();
    for i in 0..6u64 {
        let at = symphony::SimTime::ZERO + SimDuration::from_millis(i * 2);
        let args = format!(
            "request {i}: the quick brown fox jumps over the lazy dog and \
             keeps going for a while to make the prefill worth chunking"
        );
        pids.push(k.schedule_process(at, &format!("p{i}"), &args, |ctx| {
            let prompt = ctx.tokenize(&ctx.args())?;
            let kv = ctx.kv_create()?;
            sampling::generate(
                ctx,
                kv,
                &prompt,
                &GenOpts {
                    max_tokens: 10,
                    ..Default::default()
                },
            )?;
            ctx.kv_remove(kv)?;
            Ok(())
        }));
    }
    k.run();
    (k, pids)
}

/// `(launches the gate held for runnable threads, of those forced by the bound)`.
fn gate_holds(k: &Kernel) -> (u64, u64) {
    let snap = k.metrics_snapshot();
    let held = match snap.get("sched.gate_hold_ns") {
        Some(symphony::telemetry::MetricValue::Histogram { count, .. }) => *count,
        other => panic!("sched.gate_hold_ns missing: {other:?}"),
    };
    (held, snap.counter("sched.gate_hold_timeouts").unwrap())
}

fn outputs(k: &Kernel, pids: &[Pid]) -> Vec<String> {
    pids.iter()
        .map(|&p| {
            let rec = k.record(p).unwrap();
            assert!(rec.status.is_ok(), "{:?}", rec.status);
            rec.output.clone()
        })
        .collect()
}

#[test]
fn continuous_modes_agree_with_static_outputs() {
    // Same seed, same programs: run-to-completion, unchunked continuous,
    // and chunked continuous must produce identical generations.
    let (ks, pids) = run_workload(KernelConfig::for_tests(), 1);

    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(None, QueueDiscipline::Fifo);
    let (kc, pidc) = run_workload(cfg, 1);

    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(Some(8), QueueDiscipline::Fifo);
    let (kk, pidk) = run_workload(cfg, 1);

    let want = outputs(&ks, &pids);
    assert_eq!(outputs(&kc, &pidc), want, "continuous changed outputs");
    assert_eq!(outputs(&kk, &pidk), want, "chunking changed outputs");
    // With whole-request slices on a pool that fits, the two presets differ
    // only in their launch gate. At 1 µs per syscall `Immediate` leaves at
    // the end of the instant with whoever is queued; the continuous gate
    // also waits for the threads the last iteration woke, so it never needs
    // more batches for the same tokens.
    assert!(
        kc.gpu_metrics().batches <= ks.gpu_metrics().batches,
        "unchunked continuous formed more batches ({}) than static ({})",
        kc.gpu_metrics().batches,
        ks.gpu_metrics().batches
    );
    // At zero syscall cost no thread is runnable once the instant has
    // drained: the gate never holds a launch, which is the rule the
    // zero-cost goldens were recorded under.
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(None, QueueDiscipline::Fifo);
    let (kc0, pidc0) = run_workload(cfg, 0);
    assert_eq!(outputs(&kc0, &pidc0), want, "syscall cost changed outputs");
    assert_eq!(gate_holds(&kc0), (0, 0), "a launch was held at zero cost");
    assert!(gate_holds(&kc).0 > 0, "no launch was held at 1 us per syscall");
    // The chunked run actually split prefills.
    assert!(kk.prefill_chunks() > 0, "expected chunked prefill iterations");
    assert_eq!(ks.prefill_chunks(), 0, "static mode never chunks");
    kk.store().verify().unwrap();

    // On `paper_setup()` the iteration budget (78 tokens) binds long before
    // `chunk_tokens` does: 200-token prompts are cut at the ridge and at the
    // page floor, in shortest-first order. Same tokens out, and the same KV
    // entries left behind, as run-to-completion batches.
    fn kept(exec: ExecMode) -> (Kernel, Vec<String>, Vec<Vec<symphony::KvEntry>>) {
        let mut cfg = KernelConfig::paper_setup();
        cfg.exec = exec;
        let mut k = Kernel::new(cfg);
        let mut pids = Vec::new();
        for i in 0..5u32 {
            let at = symphony::SimTime::ZERO + SimDuration::from_millis(u64::from(i) * 3);
            pids.push(k.schedule_process(at, &format!("p{i}"), "", move |ctx| {
                let kv = ctx.kv_create()?;
                let prompt = doc_tokens(200 - 30 * i as usize, i);
                let opts = GenOpts {
                    max_tokens: 6,
                    ..Default::default()
                };
                sampling::generate(ctx, kv, &prompt, &opts)?;
                ctx.kv_link(kv, &format!("out{i}.kv"))
            }));
        }
        k.run();
        let outs = outputs(&k, &pids);
        let files = (0..5)
            .map(|i| {
                let file = k.store().lookup(&format!("out{i}.kv")).unwrap();
                k.store().read_all_unchecked(file).unwrap()
            })
            .collect();
        (k, outs, files)
    }
    let (_, want, want_kv) = kept(KernelConfig::paper_setup().exec);
    let (kb, got, got_kv) = kept(continuous(Some(512), QueueDiscipline::Fifo));
    assert_eq!(got, want, "the iteration budget changed outputs");
    assert!(
        got_kv == want_kv,
        "the iteration budget changed KV contents"
    );
    assert!(
        kb.prefill_chunks() > 0,
        "no prompt was cut: the budget never bound"
    );
    kb.store().verify().unwrap();
}

#[test]
fn continuous_mode_is_deterministic() {
    fn once(
        chunk: Option<usize>,
        discipline: QueueDiscipline,
        cost_us: u64,
    ) -> (Vec<symphony::TimedEvent>, Vec<String>) {
        let mut cfg = KernelConfig::for_tests();
        cfg.exec = continuous(chunk, discipline);
        cfg.telemetry = true;
        let (k, pids) = run_workload(cfg, cost_us);
        let out = outputs(&k, &pids);
        (k.telemetry_events().to_vec(), out)
    }
    for discipline in [
        QueueDiscipline::Fifo,
        QueueDiscipline::Mlfq(MlfqConfig::default()),
    ] {
        // Zero cost (one-instant cascades) and the paper's 2 µs, where the
        // launch gate holds for runnable threads.
        for cost_us in [0, 2] {
            let (events1, out1) = once(Some(8), discipline, cost_us);
            let (events2, out2) = once(Some(8), discipline, cost_us);
            assert!(
                events1 == events2,
                "event streams differ ({discipline:?}, {cost_us} us)"
            );
            assert_eq!(out1, out2);
        }
    }
}

#[test]
fn iteration_interleaves_decode_with_chunked_prefill() {
    // A decoder that is already running must keep producing tokens while a
    // late long prefill is being chunked: more batches than either program
    // alone needs, and both finish.
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(Some(4), QueueDiscipline::Fifo);
    cfg.syscall_cost = SimDuration::from_micros(1);
    let mut k = Kernel::new(cfg);
    let early = k.spawn_process("decoder", "short start", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        sampling::generate(
            ctx,
            kv,
            &prompt,
            &GenOpts { max_tokens: 24, ..Default::default() },
        )?;
        Ok(())
    });
    let late_at = symphony::SimTime::ZERO + SimDuration::from_millis(1);
    let late = k.schedule_process(late_at, "prefiller", "", |ctx| {
        let kv = ctx.kv_create()?;
        let long: Vec<u32> = (1..=40).collect();
        ctx.pred_positions(kv, &long, 0)?;
        Ok(())
    });
    k.run();
    assert!(k.record(early).unwrap().status.is_ok());
    assert!(k.record(late).unwrap().status.is_ok());
    // 40 tokens at chunk 4 is ten prefill iterations.
    assert!(
        k.prefill_chunks() >= 10,
        "expected >= 10 chunk iterations, got {}",
        k.prefill_chunks()
    );
    assert!(k.gpu_metrics().batches >= 10);
}

#[test]
fn preemption_under_tiny_pool_completes_everyone() {
    // Four programs whose combined KV exceeds the GPU pool: the executor
    // must preempt (swap KV out) rather than fail anyone, and preemption
    // must not change any output.
    fn cfg(exec: ExecMode) -> KernelConfig {
        let mut c = KernelConfig::for_tests();
        // 18 pages of 4 tokens: about two of the four programs fit at once.
        c.gpu_kv_bytes_override = Some(18 * 4 * 512);
        c.exec = exec;
        c
    }
    fn run(c: KernelConfig) -> (Kernel, Vec<Pid>) {
        let mut k = Kernel::new(c);
        let mut pids = Vec::new();
        for i in 0..4u64 {
            let filler = "the cache fills up with many tokens ".repeat(3);
            let args = format!("program {i}: {filler}");
            pids.push(k.spawn_process(&format!("p{i}"), &args, |ctx| {
                let prompt = ctx.tokenize(&ctx.args())?;
                let kv = ctx.kv_create()?;
                sampling::generate(
                    ctx,
                    kv,
                    &prompt,
                    &GenOpts { max_tokens: 8, ..Default::default() },
                )?;
                Ok(())
            }));
        }
        k.run();
        (k, pids)
    }
    // Baseline outputs from an unconstrained static run.
    let (base, base_pids) = run(KernelConfig::for_tests());
    let want = outputs(&base, &base_pids);

    let (k, pids) = run(cfg(continuous(Some(8), QueueDiscipline::Fifo)));
    assert_eq!(outputs(&k, &pids), want, "preemption changed outputs");
    assert!(
        k.preemptions() > 0,
        "pool is too small for all four programs; expected preemptions"
    );
    let stats = k.kv_stats();
    assert!(stats.swapped_out_tokens > 0);
    k.store().verify().unwrap();

    // The static preset on the same pool never moves a program's KV on its
    // own: what does not fit fails, nothing is preempted or swapped.
    let mut c = cfg(ExecMode::Static(BatchPolicy::Immediate));
    c.telemetry = true;
    let (ks, spids) = run(c);
    assert!(
        spids.iter().any(|&p| ks.record(p).unwrap().status
            == ExitStatus::Error(SysError::Kv(KvError::NoGpuMemory))),
        "pool is too small for all four programs; expected a failed pred"
    );
    assert_eq!(ks.preemptions(), 0);
    assert_eq!(ks.kv_stats().swapped_out_tokens, 0);
    assert!(!ks
        .telemetry_events()
        .iter()
        .any(|e| matches!(e.kind, EventKind::KvSwap { .. })));
    ks.store().verify().unwrap();
}

#[test]
fn mlfq_serves_fresh_programs_ahead_of_long_runners() {
    // Program-aware scheduling: a program that has already consumed lots
    // of critical-path service drops to a lower MLFQ level, so a fresh
    // program whose pred arrives *after* the long-runner's next pred still
    // goes first (non-clairvoyant shortest-remaining-first). A coordinator
    // releases both contenders at the same virtual instant; with zero
    // syscall cost the long program's pred lands in the queue first, so
    // FIFO and MLFQ genuinely disagree on the order.
    fn finish_order(discipline: QueueDiscipline) -> (symphony::SimTime, symphony::SimTime) {
        let mut cfg = KernelConfig::for_tests();
        cfg.exec = continuous(Some(4), discipline);
        cfg.max_batch = 1; // one admission slot: queue order decides
        let mut k = Kernel::new(cfg);
        let coord = k.spawn_process("coord", "", |ctx| {
            let ready = ctx.recv_msg()?;
            let short = ctx
                .lookup_process("short")?
                .ok_or(symphony::SysError::NotFound)?;
            ctx.send_msg(ready.from, "go")?;
            ctx.send_msg(short, "go")?;
            Ok(())
        });
        let long = k.spawn_process("long", "", move |ctx| {
            let kv = ctx.kv_create()?;
            // Accrue 32 tokens of critical-path service: two quanta.
            let warmup: Vec<u32> = (1..=32).collect();
            ctx.pred_positions(kv, &warmup, 0)?;
            ctx.send_msg(coord, "ready")?;
            ctx.recv_msg()?;
            let more: Vec<(u32, u32)> = (0..16).map(|i| (i + 1, 32 + i)).collect();
            ctx.pred(kv, &more)?;
            Ok(())
        });
        let short = k.spawn_process("short", "", |ctx| {
            ctx.recv_msg()?;
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &[1, 2, 3], 0)?;
            Ok(())
        });
        k.run();
        let l = k.record(long).unwrap();
        let s = k.record(short).unwrap();
        assert!(l.status.is_ok(), "{:?}", l.status);
        assert!(s.status.is_ok(), "{:?}", s.status);
        (s.exited_at.unwrap(), l.exited_at.unwrap())
    }

    let (s, l) = finish_order(QueueDiscipline::Mlfq(MlfqConfig {
        levels: 3,
        quantum_tokens: 16,
    }));
    assert!(
        s < l,
        "MLFQ should serve the fresh program first (short {s:?}, long {l:?})"
    );
    let (s, l) = finish_order(QueueDiscipline::Fifo);
    assert!(
        l < s,
        "FIFO control: the earlier-queued long pred goes first \
         (short {s:?}, long {l:?})"
    );
}

// ---- KV swap traffic rides the copy lanes --------------------------------

/// Token ids for a preloaded document of `len` tokens.
fn doc_tokens(len: usize, salt: u32) -> Vec<u32> {
    (0..len as u32).map(|i| 1 + (i * 7 + salt) % 1500).collect()
}

/// Preloads `doc{d}.kv` for each length; `in_dram` leaves them swapped out
/// so the executor has to bring them back for whoever forks them.
fn preload_docs(k: &mut Kernel, lens: &[usize], in_dram: bool) {
    for (d, &len) in lens.iter().enumerate() {
        let file = k
            .preload_kv(
                &format!("doc{d}.kv"),
                &doc_tokens(len, d as u32),
                symphony::Mode::SHARED_READ,
                false,
            )
            .unwrap();
        if in_dram {
            k.store_mut()
                .swap_out(file, symphony::OwnerId::ADMIN)
                .unwrap();
        }
    }
}

/// Forks `doc{d}.kv`, decodes `tokens` greedy tokens on the fork and emits
/// the virtual time after each one (`t=<ns>` lines) behind the text.
fn reader(
    d: usize,
    tokens: u32,
) -> impl FnOnce(&mut symphony::Ctx) -> Result<(), symphony::SysError> {
    move |ctx| {
        let doc = ctx.kv_open(&format!("doc{d}.kv"))?;
        let kv = ctx.kv_fork(doc)?;
        decode_stamped(ctx, kv, tokens, None)
    }
}

/// Decodes `tokens` greedy tokens on `kv`, one `pred` each, and emits the
/// virtual time after each one (`t=<ns>` lines) behind the text. With
/// `pause_at`, calls the `pause` tool before that token.
fn decode_stamped(
    ctx: &mut symphony::Ctx,
    kv: symphony::FileId,
    tokens: u32,
    pause_at: Option<u32>,
) -> Result<(), symphony::SysError> {
    let start = ctx.kv_next_pos(kv)?;
    let mut tok = 7u32;
    let mut stamps = String::new();
    for pos in start..start + tokens {
        if pause_at == Some(pos - start) {
            ctx.call_tool("pause", "")?;
        }
        let dist = ctx.pred(kv, &[(tok, pos)])?.remove(0);
        tok = dist.argmax();
        ctx.emit_tokens(&[tok])?;
        stamps.push_str(&format!(" t={}", ctx.now()?.as_nanos()));
    }
    ctx.kv_remove(kv)?;
    ctx.emit(&stamps)?;
    Ok(())
}

/// Splits a reader's output into its text and its per-token timestamps.
fn text_and_stamps(out: &str) -> (String, Vec<u64>) {
    let mut parts = out.split(" t=");
    let text = parts.next().unwrap_or_default().to_string();
    (text, parts.map(|p| p.parse().unwrap()).collect())
}

fn fifo_continuous() -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(Some(8), QueueDiscipline::Fifo);
    cfg
}

#[test]
fn lone_swapped_out_sequence_runs_when_its_transfer_lands() {
    // Nothing else is runnable while the only sequence's KV crosses PCIe:
    // the executor must come back for it on its own, and the first token
    // costs exactly transfer + compute.
    fn first_token_at(in_dram: bool) -> (Kernel, u64) {
        let mut k = Kernel::new(fifo_continuous());
        preload_docs(&mut k, &[400], in_dram);
        let pid = k.spawn_process("reader", "", reader(0, 1));
        k.run();
        assert_eq!(k.live_threads(), 0, "run must not strand the waiter");
        let rec = k.record(pid).unwrap();
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        let at = text_and_stamps(&rec.output).1[0];
        (k, at)
    }
    let (_, compute) = first_token_at(false);
    let (k, swapped) = first_token_at(true);
    let cfg = KernelConfig::for_tests();
    let transfer = cfg
        .device
        .transfer_time(400 * cfg.model.kv_bytes_per_token());
    assert_eq!(swapped, compute + transfer.as_nanos());
    assert_eq!(k.kv_stats().swapped_in_tokens, 400);
    k.store().verify().unwrap();
}

#[test]
fn swap_placement_changes_timing_never_outputs() {
    // The same readers over {documents resident, documents in DRAM, a pool
    // too small for everyone}: identical text every time, and two runs of
    // one configuration are identical to the nanosecond.
    fn run(in_dram: bool, gpu_pages: Option<u64>) -> (Kernel, Vec<String>) {
        let mut cfg = fifo_continuous();
        cfg.gpu_kv_bytes_override = gpu_pages.map(|p| p * 4 * 512);
        cfg.telemetry = true;
        let mut k = Kernel::new(cfg);
        preload_docs(&mut k, &[120, 90, 150], in_dram);
        let mut pids = Vec::new();
        for i in 0..6u64 {
            let at = symphony::SimTime::ZERO + SimDuration::from_millis(i);
            let d = (i % 3) as usize;
            pids.push(k.schedule_process(at, &format!("r{i}"), "", reader(d, 6)));
        }
        k.run();
        assert_eq!(k.live_threads(), 0);
        k.store().verify().unwrap();
        let outs = outputs(&k, &pids);
        (k, outs)
    }
    let texts =
        |outs: &[String]| -> Vec<String> { outs.iter().map(|o| text_and_stamps(o).0).collect() };
    let (_, resident) = run(false, None);
    let (dram, dram_out) = run(true, None);
    // 60 pages: the three documents alone are 90 pages.
    let (tiny, tiny_out) = run(true, Some(60));
    assert_eq!(
        texts(&dram_out),
        texts(&resident),
        "swap-in changed outputs"
    );
    assert_eq!(
        texts(&tiny_out),
        texts(&resident),
        "preemption changed outputs"
    );
    assert!(dram.kv_stats().swapped_in_tokens > 0);
    assert!(tiny.preemptions() > 0, "60 pages cannot hold all readers");
    // Documents came from DRAM unmodified: evicting them again is free.
    assert!(tiny.kv_stats().clean_dropped_tokens > 0);
    let (again, again_out) = run(true, Some(60));
    assert_eq!(again_out, tiny_out, "same configuration, different run");
    assert!(again.telemetry_events() == tiny.telemetry_events());
}

#[test]
fn bystander_decodes_at_full_speed_while_a_peer_swaps_in() {
    // The headline property: a 2k-token swap-in (1 MB, 10 ms on the test
    // link) occupies the H2D lane, not the GPU. A sequence that is already
    // decoding keeps its inter-token gap for the whole transfer.
    const DOC: usize = 2048;
    let arrive = symphony::SimTime::ZERO + SimDuration::from_millis(6);
    let stamps = |with_peer: bool| -> Vec<u64> {
        let mut k = Kernel::new(fifo_continuous());
        preload_docs(&mut k, &[32, DOC], false);
        let doc1 = k.store().lookup("doc1.kv").unwrap();
        k.store_mut()
            .swap_out(doc1, symphony::OwnerId::ADMIN)
            .unwrap();
        let bystander = k.spawn_process("bystander", "", reader(0, 12));
        if with_peer {
            k.schedule_process(arrive, "peer", "", reader(1, 1));
        }
        k.run();
        assert_eq!(k.live_threads(), 0);
        text_and_stamps(&k.record(bystander).unwrap().output).1
    };
    let alone = stamps(false);
    let shared = stamps(true);
    let cfg = KernelConfig::for_tests();
    let transfer = cfg
        .device
        .transfer_time(DOC as u64 * cfg.model.kv_bytes_per_token());
    let window = arrive.as_nanos()..(arrive + transfer).as_nanos();
    let during: Vec<usize> = (0..alone.len())
        .filter(|&i| window.contains(&alone[i]))
        .collect();
    assert!(
        during.len() >= 3,
        "transfer should span several decode steps"
    );
    for i in during {
        assert_eq!(
            shared[i], alone[i],
            "token {i} was delayed by the peer's swap-in"
        );
    }
}

#[test]
fn tiny_pools_never_strand_or_fail_anyone() {
    // Readers forking three shared documents plus fresh prefills, over
    // pools from "barely holds one document" to "almost everything":
    // whatever gets evicted, preempted or left waiting on a copy, every
    // program finishes and `run` leaves no thread behind.
    for pages in (42..100u64).step_by(6) {
        for (chunk, discipline) in [
            (8, QueueDiscipline::Fifo),
            (64, QueueDiscipline::Fifo),
            (
                4,
                QueueDiscipline::Mlfq(MlfqConfig {
                    levels: 3,
                    quantum_tokens: 16,
                }),
            ),
        ] {
            for gap_us in [0u64, 300] {
                let mut cfg = KernelConfig::for_tests();
                cfg.exec = continuous(Some(chunk), discipline);
                cfg.gpu_kv_bytes_override = Some(pages * 4 * 512);
                let mut k = Kernel::new(cfg);
                preload_docs(&mut k, &[120, 90, 150], true);
                let mut pids = Vec::new();
                for i in 0..14u64 {
                    let at = symphony::SimTime::ZERO + SimDuration::from_micros(i * gap_us);
                    let name = format!("p{i}");
                    pids.push(if i % 4 == 3 {
                        k.schedule_process(at, &name, "", move |ctx| {
                            let kv = ctx.kv_create()?;
                            let prompt: Vec<u32> = (1..=30 + i as u32 * 5).collect();
                            ctx.pred_positions(kv, &prompt, 0)?;
                            ctx.kv_remove(kv)
                        })
                    } else {
                        k.schedule_process(
                            at,
                            &name,
                            "",
                            reader((i * 7 % 3) as usize, 4 + (i % 5) as u32),
                        )
                    });
                }
                k.run();
                let at = format!("pages={pages} chunk={chunk} {discipline:?} gap={gap_us}us");
                assert_eq!(k.live_threads(), 0, "stranded a thread: {at}");
                for &pid in &pids {
                    let rec = k.record(pid).unwrap();
                    assert!(rec.status.is_ok(), "{:?}: {at}", rec.status);
                }
                k.store().verify().unwrap();
            }
        }
    }
}

// ---- the launch gate waits for the threads it just woke -------------------

/// FIFO continuous batching at `paper_setup()`'s 2 µs per-syscall CPU
/// charge, with telemetry on so the tests can read each iteration's
/// membership.
fn paper_cost(chunk: Option<usize>) -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(chunk, QueueDiscipline::Fifo);
    cfg.syscall_cost = SimDuration::from_micros(2);
    cfg.telemetry = true;
    cfg
}

/// A greedy decoder on a fresh file: `tokens` stamped tokens.
fn decoder(tokens: u32) -> impl FnOnce(&mut symphony::Ctx) -> Result<(), symphony::SysError> {
    pausing_decoder(tokens, None)
}

/// [`decoder`] that calls the `pause` tool before the token at `pause_at`.
fn pausing_decoder(
    tokens: u32,
    pause_at: Option<u32>,
) -> impl FnOnce(&mut symphony::Ctx) -> Result<(), symphony::SysError> {
    move |ctx| {
        let kv = ctx.kv_create()?;
        decode_stamped(ctx, kv, tokens, pause_at)
    }
}

fn stamps(k: &Kernel, pid: Pid) -> Vec<u64> {
    let rec = k.record(pid).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    text_and_stamps(&rec.output).1
}

fn gaps(stamps: &[u64]) -> Vec<u64> {
    stamps.windows(2).map(|w| w[1] - w[0]).collect()
}

fn median(mut v: Vec<u64>) -> u64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_unstable();
    v[v.len() / 2]
}

/// `(begin ns, end ns, requests)` of every batch, in launch order.
fn batches(k: &Kernel) -> Vec<(u64, u64, u32)> {
    let mut out: Vec<(u64, u64, u32)> = Vec::new();
    for e in k.telemetry_events() {
        match e.kind {
            EventKind::BatchBegin { id, requests, .. } => {
                assert_eq!(id as usize, out.len(), "batch ids count launches");
                out.push((e.at.as_nanos(), u64::MAX, requests));
            }
            EventKind::BatchEnd { id } => out[id as usize].1 = e.at.as_nanos(),
            _ => {}
        }
    }
    assert!(out.iter().all(|b| b.1 != u64::MAX), "every batch ends");
    out
}

/// `(batch id, requests, duration in ns)` of every iteration, in launch order.
fn iterations(k: &Kernel) -> Vec<(u64, u32, u64)> {
    (0u64..)
        .zip(batches(k))
        .map(|(id, (begin, end, requests))| (id, requests, end - begin))
        .collect()
}

/// Every program's median inter-token gap is one batch time, within 10 %.
fn assert_one_batch_per_token(k: &Kernel, pids: &[Pid], batch: u64) {
    for &pid in pids {
        let gap = median(gaps(&stamps(k, pid)));
        assert!(
            gap * 10 <= batch * 11,
            "median inter-token gap {gap} ns is not one batch ({batch} ns)"
        );
    }
}

/// Median iteration time of `n` decoders running in step.
fn iteration_time(n: usize) -> SimDuration {
    let mut k = Kernel::new(paper_cost(None));
    for i in 0..n {
        k.spawn_process(&format!("d{i}"), "", decoder(16));
    }
    k.run();
    let durs = iterations(&k).into_iter().map(|(_, _, d)| d).collect();
    SimDuration::from_nanos(median(durs))
}

#[test]
fn woken_decoders_rejoin_the_next_iteration() {
    // Two cohorts of decoders start half an iteration apart: the second
    // cohort's preds queue while the first is on the GPU. A gate that
    // launches the moment the GPU goes idle leaves with the queued cohort
    // while the other is still sampling, and the two take turns forever —
    // every token costs two iterations. Waiting for the woken threads
    // merges them: one iteration per token.
    const N: usize = 4;
    const TOKENS: u32 = 24;
    let half = SimDuration::from_nanos(iteration_time(N).as_nanos() / 2);
    let mut k = Kernel::new(paper_cost(None));
    let mut pids = Vec::new();
    for i in 0..2 * N {
        let at = if i < N {
            symphony::SimTime::ZERO
        } else {
            symphony::SimTime::ZERO + half
        };
        pids.push(k.schedule_process(at, &format!("d{i}"), "", decoder(TOKENS)));
    }
    k.run();
    assert_eq!(k.live_threads(), 0);
    let iters = iterations(&k);
    // Iteration 0 is the first cohort alone and the last one the second
    // cohort's final token; everything between carries everyone.
    for &(id, requests, _) in &iters[2..TOKENS as usize] {
        assert_eq!(requests as usize, 2 * N, "iteration {id} left someone behind");
    }
    let iter = median(iters.iter().map(|&(_, _, d)| d).collect());
    assert_one_batch_per_token(&k, &pids, iter);
    // The holds are the few syscalls between `Dists` and the next `pred`.
    let (held, timeouts) = gate_holds(&k);
    assert!(held > 0, "the cohorts merged without a hold");
    assert_eq!(timeouts, 0, "no hold should have reached the bound");
}

#[test]
fn decoders_keep_pace_with_a_chunked_prefill() {
    // A 512-token prefill in 32-token chunks stays admitted across sixteen
    // iterations, so at every `BatchDone` the loop has work in hand while
    // the decoders it just woke are still sampling. They must be back for
    // the next chunk's iteration, not the one after.
    const N: usize = 4;
    let start = symphony::SimTime::ZERO + iteration_time(N) * 3;
    let mut k = Kernel::new(paper_cost(Some(32)));
    for i in 0..N {
        k.spawn_process(&format!("d{i}"), "", decoder(40));
    }
    let prefiller = k.schedule_process(start, "prefiller", "", |ctx| {
        let kv = ctx.kv_create()?;
        ctx.pred_positions(kv, &doc_tokens(512, 3), 0)?;
        Ok(())
    });
    k.run();
    assert!(k.record(prefiller).unwrap().status.is_ok());
    let iters = iterations(&k);
    let chunk_batches: Vec<u64> = k
        .telemetry_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ChunkExec { batch, .. } => Some(batch),
            _ => None,
        })
        .collect();
    assert_eq!(chunk_batches.len(), 16);
    for batch in &chunk_batches[2..] {
        let &(_, requests, _) = iters.iter().find(|(id, _, _)| id == batch).unwrap();
        assert_eq!(
            requests as usize,
            N + 1,
            "the decoders missed the chunk in iteration {batch}"
        );
    }
}

#[test]
fn a_spinning_thread_cannot_idle_the_gpu_past_one_iteration() {
    // 50 000 non-blocking syscalls are 100 ms of CPU charge during which a
    // thread is always runnable. The gate holds each launch for it, but
    // only for as long as the last iteration ran: decoders beside it pay
    // at most one extra iteration per token, and the kernel still quiesces.
    const N: usize = 4;
    let iter = iteration_time(N);
    let mut k = Kernel::new(paper_cost(None));
    let spinner = k.spawn_process("spinner", "", |ctx| {
        for _ in 0..50_000 {
            ctx.now()?;
        }
        Ok(())
    });
    let pids: Vec<Pid> = (0..N)
        .map(|i| k.spawn_process(&format!("d{i}"), "", decoder(16)))
        .collect();
    k.run();
    assert_eq!(k.live_threads(), 0, "run must quiesce");
    assert!(k.record(spinner).unwrap().status.is_ok());
    let limit = (iter * 2 + SimDuration::from_millis(1)).as_nanos();
    for &pid in &pids {
        let gaps = gaps(&stamps(&k, pid));
        let worst = *gaps.iter().max().unwrap();
        assert!(
            worst <= limit,
            "a decoder waited {worst} ns for one token (limit {limit} ns)"
        );
        // The control: the spinner really was waited for, up to the bound.
        assert!(median(gaps) > iter.as_nanos() * 3 / 2);
    }
    let (held, timeouts) = gate_holds(&k);
    assert!(timeouts > 0, "no hold reached the bound");
    assert!(held >= timeouts);
}

#[test]
fn blocked_threads_are_not_waited_for() {
    // A thread in `sleep`, in a 150 ms tool call or waiting for its
    // `kv_swap_in` to land is parked on a timer or a device, not runnable:
    // a decoder beside them runs exactly as it does alone.
    let run = |with_peers: bool| -> (Kernel, Vec<u64>) {
        let mut k = Kernel::new(paper_cost(None));
        k.register_tool(
            "slow",
            symphony::ToolSpec::fixed(SimDuration::from_millis(150), |_| {
                symphony::ToolOutcome::Ok("done".into())
            }),
        );
        preload_docs(&mut k, &[2048], true);
        if with_peers {
            k.spawn_process("sleeper", "", |ctx| ctx.sleep(SimDuration::from_millis(50)));
            k.spawn_process("caller", "", |ctx| ctx.call_tool("slow", "").map(|_| ()));
            k.spawn_process("swapper", "", |ctx| {
                let doc = ctx.kv_open("doc0.kv")?;
                let kv = ctx.kv_fork(doc)?;
                ctx.kv_swap_in(kv)
            });
        }
        let at = symphony::SimTime::ZERO + SimDuration::from_millis(1);
        let bystander = k.schedule_process(at, "bystander", "", decoder(32));
        k.run();
        assert_eq!(k.live_threads(), 0);
        let stamps = stamps(&k, bystander);
        (k, stamps)
    };
    let (_, alone) = run(false);
    let (k, beside) = run(true);
    assert_eq!(beside, alone, "a blocked peer delayed the bystander");
    assert!(k.kv_stats().swapped_in_tokens >= 2048, "the swap-in ran");
    let span = *alone.last().unwrap();
    assert!(
        span > 50_000_000,
        "the bystander should still be decoding when the sleeper wakes ({span} ns)"
    );
    assert_eq!(gate_holds(&k), (0, 0), "a launch was held for a blocked thread");
}

// ---- every iteration is sized to the roofline ridge -----------------------

/// `paper_setup()` — Llama-13B on an A100-80G, where one weight stream
/// hides 78 tokens of linear-layer compute — under FIFO continuous batching
/// at `chunk_tokens: Some(512)`, telemetry on.
fn paper_budgeted() -> KernelConfig {
    let mut cfg = KernelConfig::paper_setup();
    cfg.exec = continuous(Some(512), QueueDiscipline::Fifo);
    cfg.telemetry = true;
    cfg
}

/// Prefills `len` fresh tokens in one `pred` and stamps its completion.
fn prefill_stamped(
    len: usize,
    salt: u32,
) -> impl FnOnce(&mut symphony::Ctx) -> Result<(), symphony::SysError> {
    move |ctx| {
        let kv = ctx.kv_create()?;
        ctx.pred_positions(kv, &doc_tokens(len, salt), 0)?;
        ctx.emit(&format!(" t={}", ctx.now()?.as_nanos()))
    }
}

fn ridge(k: &Kernel) -> u64 {
    match k.metrics_snapshot().get("sched.ridge_tokens") {
        Some(symphony::MetricValue::Gauge(r)) => *r as u64,
        other => panic!("sched.ridge_tokens missing: {other:?}"),
    }
}

/// `(requests, new tokens)` of every iteration, in launch order; checks on
/// the way that none carried more than the budget plus a page per member.
fn budgeted_iterations(k: &Kernel) -> Vec<(u32, u64)> {
    let page = KernelConfig::paper_setup().page_tokens as u64;
    let iters: Vec<(u32, u64)> = k
        .telemetry_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BatchBegin {
                requests,
                new_tokens,
                ..
            } => Some((requests, new_tokens)),
            _ => None,
        })
        .collect();
    let ridge = ridge(k);
    for (id, &(requests, tokens)) in iters.iter().enumerate() {
        assert!(
            tokens <= ridge + page * u64::from(requests),
            "iteration {id} carried {tokens} tokens for {requests} sequences"
        );
    }
    iters
}

/// A decoder beside a long prefill and a late short one.
struct CoRun {
    /// The decoder's inter-token gaps running alone, in ns.
    alone: Vec<u64>,
    /// Its gaps in company.
    company: Vec<u64>,
    /// When the short prefill arrived and when its `pred` returned, in ns.
    asked: u64,
    answered: u64,
    kernel: Kernel,
}

/// A decoder, a 3 000-token prefill arriving three tokens in and — half-way
/// through that prefill — a 15-token question.
fn beside_a_long_prefill() -> CoRun {
    const TOKENS: u32 = 64;
    let mut k = Kernel::new(paper_budgeted());
    let d = k.spawn_process("decoder", "", decoder(TOKENS));
    k.run();
    let alone = gaps(&stamps(&k, d));
    let step = SimDuration::from_nanos(median(alone.clone()));

    let mut k = Kernel::new(paper_budgeted());
    let d = k.spawn_process("decoder", "", decoder(TOKENS));
    k.schedule_process(
        symphony::SimTime::ZERO + step * 3,
        "publisher",
        "",
        prefill_stamped(3_000, 1),
    );
    // 3 000 tokens at a ridge per iteration are some forty iterations.
    let asked = symphony::SimTime::ZERO + step * 23 + SimDuration::from_millis(5);
    let q = k.schedule_process(asked, "question", "", prefill_stamped(15, 2));
    k.run();
    assert_eq!(k.live_threads(), 0);
    CoRun {
        alone,
        company: gaps(&stamps(&k, d)),
        asked: asked.as_nanos(),
        answered: stamps(&k, q)[0],
        kernel: k,
    }
}

#[test]
fn a_long_prefill_does_not_stall_the_decoder_beside_it() {
    // The publisher's chunks are what is left of the ridge after the
    // decoder's token, so every iteration is still about one weight stream
    // long. Under a fixed 512-token slice the worst gap was six times the
    // decoder's own.
    let run = beside_a_long_prefill();
    let own = median(run.alone);
    let worst = *run.company.iter().max().unwrap();
    let mid = median(run.company);
    assert!(
        mid * 4 <= own * 5,
        "median gap {mid} ns against {own} ns alone"
    );
    assert!(
        worst * 4 <= own * 5,
        "worst gap {worst} ns against {own} ns alone"
    );
    // The prefill was really there, in ridge-sized pieces.
    let iters = budgeted_iterations(&run.kernel);
    let ridge = ridge(&run.kernel);
    assert!(iters.iter().filter(|&&(_, t)| t == ridge).count() >= 30);
}

#[test]
fn a_short_prefill_overtakes_a_long_one() {
    // Shortest remaining first: the question's 15 tokens are covered before
    // the publisher's next chunk, so its first distribution comes with the
    // first iteration it could join — the one in flight when it arrived
    // ends, the next one carries it.
    let CoRun {
        alone,
        asked,
        answered,
        kernel: k,
        ..
    } = beside_a_long_prefill();
    let ended = k
        .telemetry_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BatchEnd { .. }))
        .filter(|e| (asked + 1..=answered).contains(&e.at.as_nanos()))
        .count();
    assert!(ended <= 2, "the question waited {ended} iterations");
    let own = median(alone);
    assert!(
        (answered - asked) * 2 <= own * 5,
        "the question waited {} ns; an iteration alone is {own} ns",
        answered - asked
    );
}

#[test]
fn a_long_prefill_does_not_starve_under_a_stream_of_short_ones() {
    // Eight streams of back-to-back 15-token prefills are 120 tokens an
    // iteration, all of them shorter than the publisher's remainder: the
    // budget is spent before its turn, every time. The page floor still
    // moves it one KV page per iteration.
    const LONG: usize = 3_000;
    let cfg = paper_budgeted();
    let bound = LONG.div_ceil(cfg.page_tokens);
    let mut k = Kernel::new(cfg);
    k.spawn_process("publisher", "", prefill_stamped(LONG, 1));
    for i in 0..8u32 {
        k.spawn_process(&format!("stream{i}"), "", move |ctx| {
            for _ in 0..bound + 8 {
                let kv = ctx.kv_create()?;
                ctx.pred_positions(kv, &doc_tokens(15, i), 0)?;
                ctx.kv_remove(kv)?;
            }
            Ok(())
        });
    }
    k.run();
    assert_eq!(k.live_threads(), 0);
    assert!(k.records().all(|r| r.status.is_ok()));
    let chunks: Vec<u64> = k
        .telemetry_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ChunkExec { batch, total, .. } if total as usize == LONG => Some(batch),
            _ => None,
        })
        .collect();
    // It ran in every iteration from the first, and needed no more of them
    // than it has pages.
    let last = *chunks.last().unwrap() as usize;
    assert_eq!(chunks.len(), last + 1, "the publisher sat out an iteration");
    assert!(
        chunks.len() <= bound,
        "{} iterations for {bound} pages",
        chunks.len()
    );
    // The control: the streams did spend the budget each time.
    let iters = budgeted_iterations(&k);
    let ridge = ridge(&k);
    for (id, &(_, tokens)) in iters[..=last].iter().enumerate() {
        assert!(tokens >= ridge, "iteration {id} had budget to spare");
    }
}

#[test]
fn simultaneous_prefills_share_one_budget() {
    // Two 2 000-token prefills do not get a ridge each: the first in takes
    // the budget, the other its page, and the iteration stays one weight
    // stream long. Every iteration is on the histogram.
    let mut k = Kernel::new(paper_budgeted());
    for i in 0..2 {
        k.spawn_process(&format!("p{i}"), "", prefill_stamped(2_000, i));
    }
    k.run();
    assert!(k.records().all(|r| r.status.is_ok()));
    let iters = budgeted_iterations(&k);
    let page = KernelConfig::paper_setup().page_tokens as u64;
    assert_eq!(iters[0], (2, ridge(&k) + page));
    assert_eq!(iters.iter().map(|&(_, t)| t).sum::<u64>(), 4_000);
    match k.metrics_snapshot().get("sched.iteration_tokens") {
        Some(symphony::MetricValue::Histogram { count, sum, .. }) => {
            assert_eq!((*count, *sum), (iters.len() as u64, 4_000));
        }
        other => panic!("sched.iteration_tokens missing: {other:?}"),
    }
}

// ---- one launch decision per virtual instant, under every gate ------------

/// `for_tests()` — the configuration `symphony-serve` boots: zero syscall
/// cost, `Static(Immediate)` — with telemetry on.
fn immediate_traced() -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.telemetry = true;
    cfg
}

fn register_pause(k: &mut Kernel, ms: u64) {
    k.register_tool(
        "pause",
        symphony::ToolSpec::fixed(SimDuration::from_millis(ms), |_| {
            symphony::ToolOutcome::Ok("back".into())
        }),
    );
}

#[test]
fn preds_that_arrive_together_leave_together_under_immediate() {
    // Sixteen sessions admitted at one instant reach `pred` at that same
    // instant, one after another through the ready queue and the zero-cost
    // reply events. `Immediate` adds no wait — the launch is at that
    // instant — but it is decided once the instant has drained, so the
    // batch carries all sixteen and not the first of them.
    const N: usize = 16;
    const TOKENS: u32 = 8;
    let at = symphony::SimTime::ZERO + SimDuration::from_millis(1);
    let mut k = Kernel::new(immediate_traced());
    let pids: Vec<Pid> = (0..N)
        .map(|i| k.schedule_process(at, &format!("d{i}"), "", decoder(TOKENS)))
        .collect();
    k.run();
    assert_eq!(k.live_threads(), 0);
    let batches = batches(&k);
    assert_eq!(batches[0].0, at.as_nanos(), "Immediate launched late");
    assert_eq!(
        batches.iter().map(|b| b.2).collect::<Vec<_>>(),
        vec![N as u32; TOKENS as usize],
        "sixteen same-instant arrivals did not stay one batch"
    );
    for &pid in &pids {
        assert_eq!(stamps(&k, pid).len(), TOKENS as usize);
    }
}

#[test]
fn lock_step_decoders_stay_one_cohort_under_adaptive() {
    // E4's shape: twelve decoders on `paper_setup()` (`Static(Adaptive)`,
    // 2 µs per syscall). Their syscalls are in lock step, so after every
    // batch all twelve are back in `pred` at one instant, two syscalls
    // later — and that is one launch, not one for the first thread back
    // and another for the eleven behind it.
    const N: usize = 12;
    const TOKENS: u32 = 24;
    let mut cfg = KernelConfig::paper_setup();
    cfg.telemetry = true;
    let mut k = Kernel::new(cfg);
    let pids: Vec<Pid> = (0..N)
        .map(|i| k.spawn_process(&format!("d{i}"), "", decoder(TOKENS)))
        .collect();
    k.run();
    assert_eq!(k.live_threads(), 0);
    let batches = batches(&k);
    assert_eq!(
        batches.iter().map(|b| b.2).collect::<Vec<_>>(),
        vec![N as u32; TOKENS as usize],
        "the decoders split into cohorts"
    );
    let batch = median(batches.iter().map(|b| b.1 - b.0).collect());
    assert_one_batch_per_token(&k, &pids, batch);
}

#[test]
fn cohorts_split_by_a_tool_merge_at_the_next_batch_boundary() {
    // Eight decoders run in step until four of them call a 5 ms tool. The
    // tool returns while the other four are on the GPU, so the callers'
    // `pred`s wait in the pool; at the batch boundary the four just woken
    // are back in `pred` within the same instant, and the launch decided
    // after that instant carries all eight. Decided mid-instant it would
    // carry the callers alone, and the two cohorts would take turns for
    // good: two batch times per token.
    const N: usize = 4;
    const TOKENS: u32 = 40;
    const PAUSE_AT: u32 = 6;
    let mut k = Kernel::new(immediate_traced());
    register_pause(&mut k, 5);
    let pids: Vec<Pid> = (0..2 * N)
        .map(|i| {
            let pause = (i >= N).then_some(PAUSE_AT);
            k.spawn_process(&format!("d{i}"), "", pausing_decoder(TOKENS, pause))
        })
        .collect();
    k.run();
    assert_eq!(k.live_threads(), 0);
    let batches = batches(&k);
    // In step, then the non-callers alone while the tool is out, then —
    // from the first batch boundary after it returns — everyone again until
    // the non-callers finish, ahead by the batches they ran alone.
    let sizes: Vec<usize> = batches.iter().map(|b| b.2 as usize).collect();
    let alone = sizes.iter().filter(|&&n| n == N).count() / 2;
    assert!(alone > 0, "the tool never split the cohorts: {sizes:?}");
    let together = TOKENS as usize - PAUSE_AT as usize - alone;
    let mut want = vec![2 * N; PAUSE_AT as usize];
    want.extend(vec![N; alone]);
    want.extend(vec![2 * N; together]);
    want.extend(vec![N; alone]);
    assert_eq!(sizes, want, "the cohorts did not merge and stay merged");
    // The callers' first batch back starts where the batch their return
    // landed in ends: they waited for that batch and no longer.
    let merged = PAUSE_AT as usize + alone;
    assert_eq!(batches[merged].0, batches[merged - 1].1);
    let batch = median(batches.iter().map(|b| b.1 - b.0).collect());
    assert_one_batch_per_token(&k, &pids, batch);
}

#[test]
fn a_mid_batch_arrival_waits_for_that_batch_and_no_longer() {
    // The rule orders work inside an instant; it never holds a launch past
    // it. A session that arrives while a batch is on the GPU leaves at that
    // batch's end — together with the decoders the batch woke.
    const N: usize = 4;
    let mut probe = Kernel::new(immediate_traced());
    for i in 0..N {
        probe.spawn_process(&format!("d{i}"), "", decoder(16));
    }
    probe.run();
    let steady = batches(&probe);
    let (begin, end, _) = steady[3];
    let mid = symphony::SimTime::ZERO + SimDuration::from_nanos((begin + end) / 2);

    let mut k = Kernel::new(immediate_traced());
    for i in 0..N {
        k.spawn_process(&format!("d{i}"), "", decoder(16));
    }
    let late = k.schedule_process(mid, "late", "", decoder(4));
    k.run();
    assert_eq!(k.live_threads(), 0);
    let batches = batches(&k);
    assert_eq!(batches[3], steady[3], "the arrival disturbed its batch");
    assert_eq!(
        (batches[4].0, batches[4].2 as usize),
        (end, N + 1),
        "the arrival should leave at the boundary, with everyone"
    );
    assert_eq!(stamps(&k, late)[0], batches[4].1);
}

mod props {
    use super::*;
    use proptest::prelude::*;

    fn policy(which: u8) -> BatchPolicy {
        match which {
            0 => BatchPolicy::Immediate,
            1 => BatchPolicy::FixedWindow {
                max_wait: SimDuration::from_micros(700),
                max_batch: 5,
            },
            _ => BatchPolicy::Adaptive {
                target_batch: 5,
                max_wait: SimDuration::from_micros(900),
            },
        }
    }

    /// A small agent or RAG session: `rounds` × (decode `decode` tokens,
    /// then a tool round-trip), on a fresh file or on a fork of `doc0.kv`.
    fn session(
        rag: bool,
        rounds: u32,
        decode: u32,
    ) -> impl FnOnce(&mut symphony::Ctx) -> Result<(), symphony::SysError> {
        move |ctx| {
            let kv = if rag {
                let doc = ctx.kv_open("doc0.kv")?;
                ctx.kv_fork(doc)?
            } else {
                let kv = ctx.kv_create()?;
                let prompt = ctx.tokenize(&ctx.args())?;
                ctx.pred_positions(kv, &prompt, 0)?;
                kv
            };
            let mut pos = ctx.kv_next_pos(kv)?;
            let mut tok = 7u32;
            for round in 0..rounds {
                for _ in 0..decode {
                    tok = ctx.pred(kv, &[(tok, pos)])?.remove(0).argmax();
                    ctx.emit_tokens(&[tok])?;
                    pos += 1;
                }
                if round + 1 < rounds {
                    ctx.call_tool("pause", "")?;
                }
            }
            ctx.kv_remove(kv)
        }
    }

    /// `(rag?, rounds, decode, arrival µs)` per session.
    type Mix = Vec<(bool, u32, u32, u64)>;

    fn mix() -> impl Strategy<Value = Mix> {
        // Arrival times are drawn from a coarse grid as often as not, so
        // several sessions do share an instant.
        let arrival = prop_oneof![(0u64..6).prop_map(|g| g * 1_000), 0u64..6_000];
        proptest::collection::vec((any::<bool>(), 1u32..4, 1u32..6, arrival), 1..12)
    }

    /// A traced kernel with `mix` scheduled on it and nothing run yet.
    fn admit_mix(mut cfg: KernelConfig, mix: &Mix, seed: u64) -> (Kernel, Vec<Pid>) {
        cfg.seed = seed;
        cfg.telemetry = true;
        let mut k = Kernel::new(cfg);
        register_pause(&mut k, 2);
        preload_docs(&mut k, &[64], false);
        let pids = mix
            .iter()
            .enumerate()
            .map(|(i, &(rag, rounds, decode, at_us))| {
                let at = symphony::SimTime::ZERO + SimDuration::from_micros(at_us);
                let args = format!("session {i} asks about item {}", i * 7 % 5);
                k.schedule_process(at, &format!("s{i}"), &args, session(rag, rounds, decode))
            })
            .collect();
        (k, pids)
    }

    fn run_mix(cfg: KernelConfig, mix: &Mix, seed: u64) -> (Kernel, Vec<Pid>) {
        let (mut k, pids) = admit_mix(cfg, mix, seed);
        k.run();
        (k, pids)
    }

    /// `(begin ns, end ns, member pids)` of every batch, in launch order.
    fn batch_members(k: &Kernel) -> Vec<(u64, u64, Vec<u64>)> {
        let mut out: Vec<(u64, u64, Vec<u64>)> = Vec::new();
        for e in k.telemetry_events() {
            match e.kind {
                EventKind::BatchBegin { .. } => out.push((e.at.as_nanos(), u64::MAX, Vec::new())),
                EventKind::PredExec { pid, batch, .. } => out[batch as usize].2.push(pid),
                EventKind::BatchEnd { id } => out[id as usize].1 = e.at.as_nanos(),
                _ => {}
            }
        }
        out
    }

    /// A `run_for` bound: one instant, up to 3 ms, or none.
    fn slice() -> impl Strategy<Value = SimDuration> {
        prop_oneof![
            Just(SimDuration::ZERO),
            (0u64..3_000).prop_map(SimDuration::from_micros),
            Just(SimDuration::MAX),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The guard in `maybe_launch_iteration` returns without arming a
        /// timer. That is safe because `run` pops the event it saw next and
        /// asks again: whatever the policy, the per-syscall cost and the
        /// arrival times, nobody is left in the pool when the event queue
        /// runs dry — a stranded `pred` would show as a live thread — and
        /// every session gets every token it asked for.
        #[test]
        fn every_gate_quiesces_with_an_empty_pool(
            which in 0u8..3,
            cost_us in prop_oneof![Just(0u64), Just(2u64)],
            mix in mix(),
            seed in 0u64..1_000,
        ) {
            let policy = policy(which);
            let mut cfg = KernelConfig::for_tests();
            cfg.exec = ExecMode::Static(policy);
            cfg.syscall_cost = SimDuration::from_micros(cost_us);
            let (k, pids) = run_mix(cfg, &mix, seed);
            prop_assert_eq!(k.live_threads(), 0, "a pred was stranded in the pool");
            for (&pid, &(_, rounds, decode, _)) in pids.iter().zip(&mix) {
                let rec = k.record(pid).unwrap();
                prop_assert!(rec.status.is_ok(), "{}: {:?}", rec.name, rec.status);
                prop_assert_eq!(rec.usage.emitted_tokens, u64::from(rounds * decode));
            }
            // The GPU never sat idle over a waiting pred for longer than the
            // policy's own wait cap: each batch starts no later than that
            // after the GPU went idle or its oldest member pooled, whichever
            // came last.
            let cap = match policy {
                BatchPolicy::Immediate => 0,
                BatchPolicy::FixedWindow { max_wait, .. }
                | BatchPolicy::Adaptive { max_wait, .. } => max_wait.as_nanos(),
            };
            let mut pooled: Vec<u64> = Vec::new();
            let mut gpu_free_at = 0u64;
            for e in k.telemetry_events() {
                match e.kind {
                    EventKind::PredEnqueue { .. } => pooled.push(e.at.as_nanos()),
                    EventKind::BatchBegin { requests, .. } => {
                        let oldest = pooled[0];
                        pooled.drain(..requests as usize);
                        let due = oldest.max(gpu_free_at) + cap;
                        prop_assert!(
                            e.at.as_nanos() <= due,
                            "a batch left at {} ns; its oldest pred was due by {} ns",
                            e.at.as_nanos(),
                            due
                        );
                    }
                    EventKind::BatchEnd { .. } => gpu_free_at = e.at.as_nanos(),
                    _ => {}
                }
            }
            prop_assert!(pooled.is_empty());
        }

        /// The equality docs/SCHEDULING.md states: at zero syscall cost, on
        /// a pool that fits, `Static(Immediate)` and unchunked FIFO
        /// continuous batching are the same loop — same batches at the same
        /// nanoseconds with the same members, same outputs.
        #[test]
        fn immediate_and_unchunked_continuous_are_one_loop_at_zero_cost(
            mix in mix(),
            seed in 0u64..1_000,
        ) {
            let (ks, pids_s) = run_mix(KernelConfig::for_tests(), &mix, seed);
            let mut cfg = KernelConfig::for_tests();
            cfg.exec = continuous(None, QueueDiscipline::Fifo);
            let (kc, pids_c) = run_mix(cfg, &mix, seed);
            prop_assert_eq!(batches(&ks), batches(&kc));
            prop_assert_eq!(outputs(&ks, &pids_s), outputs(&kc, &pids_c));
            prop_assert_eq!(ks.now(), kc.now());
        }

        /// What `symphony-serve`'s shell relies on: `run_for` never stops
        /// mid-instant, so slices with nothing fed in between — of any
        /// length, one instant or unbounded, in any order — run the same
        /// batches with the same members at the same nanoseconds, the same
        /// outputs, the same telemetry and the same final clock as one
        /// `run`, under every preset.
        #[test]
        fn slices_compose_into_one_run(
            exec in prop_oneof![
                Just(ExecMode::Static(BatchPolicy::Immediate)),
                Just(ExecMode::Static(policy(2))),
                Just(continuous(None, QueueDiscipline::Fifo)),
            ],
            cost_us in prop_oneof![Just(0u64), Just(2u64)],
            mix in mix(),
            seed in 0u64..1_000,
            slices in proptest::collection::vec(slice(), 1..6),
        ) {
            let mut cfg = KernelConfig::for_tests();
            cfg.exec = exec;
            cfg.syscall_cost = SimDuration::from_micros(cost_us);
            let (whole, pids_w) = run_mix(cfg.clone(), &mix, seed);
            let (mut sliced, pids_s) = admit_mix(cfg, &mix, seed);
            let mut calls = 0;
            while !sliced.run_for(slices[calls % slices.len()]) {
                calls += 1;
            }
            prop_assert!(sliced.run_for(SimDuration::ZERO), "quiescent kernels stay quiescent");
            prop_assert_eq!(sliced.live_threads(), 0);
            prop_assert_eq!(batch_members(&sliced), batch_members(&whole));
            prop_assert_eq!(outputs(&sliced, &pids_s), outputs(&whole, &pids_w));
            prop_assert_eq!(sliced.telemetry_events(), whole.telemetry_events());
            prop_assert_eq!(sliced.now(), whole.now());
        }
    }
}
