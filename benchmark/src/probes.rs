//! Layer probes: each layer's public API driven in isolation, on the
//! workload's own recorded inputs where the layer takes any.
//!
//! Nothing here reaches inside a crate: every probe is a timed loop
//! around `pub` functions, so a later PR can move a probe's number only
//! by making that layer faster. The four micro scenarios of
//! `exp_bench` (event queue, KVFS cycle, scheduler dispatch, host
//! calibration) reappear here with the same loop bodies.

use std::hint::black_box;
use std::sync::Arc;

use symphony::{Kernel, MlfqConfig, ProgramQueue, QueueDiscipline, SimDuration, SimTime};
use symphony_gpu::GpuExecutor;
use symphony_kvfs::{FileId, KvEntry, KvStore, KvStoreConfig, OwnerId};
use symphony_lipscript::host::MockHost;
use symphony_lipscript::{parse::parse, verify::verify, InterpLimits, Interpreter};
use symphony_model::{CtxFingerprint, Surrogate};
use symphony_rpc::{ClientMsg, FrameReader, ServerMsg};
use symphony_sim::frame::{append_frame, read_frames};
use symphony_sim::{EventQueue, Rng};
use symphony_telemetry::{EventBus, EventKind};
use symphony_tokenizer::Bpe;

use crate::clock;
use crate::inproc::Recording;
use crate::workload::{Job, Workload};

/// Ethernet MSS: the chunk size a real socket hands the frame reader.
const MSS: usize = 1460;

/// How much work each probe does. `Full` runs every probe for a few
/// tens of milliseconds; `Smoke` a few hundred microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Release measurement.
    Full,
    /// `--smoke`: shape check only.
    Smoke,
}

impl Effort {
    fn scale(self, full: u64) -> u64 {
        match self {
            Effort::Full => full,
            Effort::Smoke => (full / 200).max(8),
        }
    }
}

/// Nanoseconds per operation of `f`, which reports how many operations
/// one call performed; the median of `reps` calls.
fn ns_per_op(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (ops, ns) = clock::time(&mut f);
            ns / ops.max(1) as f64
        })
        .collect();
    crate::stats::sort(&mut samples);
    crate::stats::percentile(&samples, 50.0)
}

/// `exp_bench`'s calibration loop (FNV-1a over a counter stream): pure
/// ALU work whose speed is the machine's, not the codebase's. Mops/s.
pub fn calib_mops(effort: Effort) -> f64 {
    let n = effort.scale(20_000_000);
    let ns = ns_per_op(3, || {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..n {
            h ^= i;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        black_box(h);
        n
    });
    1e3 / ns
}

/// `rpc.decode_ns_per_frame`: the recorded client→server bytes through
/// `FrameReader` in MSS-sized chunks plus `ClientMsg::decode`.
pub fn rpc_decode_ns(rec: &Recording, effort: Effort) -> f64 {
    let rounds = effort.scale(40);
    ns_per_op(3, || {
        let mut frames = 0;
        for _ in 0..rounds {
            for wire in &rec.wire_in {
                let mut reader = FrameReader::new();
                for chunk in wire.chunks(MSS) {
                    reader.feed(chunk);
                    while let Ok(Some((tag, payload))) = reader.next_frame() {
                        black_box(ClientMsg::decode(tag, &payload).is_ok());
                        frames += 1;
                    }
                }
            }
        }
        frames
    })
}

/// The recorded server→client traffic as decoded messages and as raw
/// `(tag, payload)` frames.
fn server_frames(rec: &Recording) -> (Vec<ServerMsg>, Vec<(u8, Vec<u8>)>) {
    let mut msgs = Vec::new();
    let mut raw = Vec::new();
    for wire in &rec.wire_out {
        let mut reader = FrameReader::new();
        reader.feed(wire);
        while let Ok(Some((tag, payload))) = reader.next_frame() {
            if let Ok(m) = ServerMsg::decode(tag, &payload) {
                msgs.push(m);
                raw.push((tag, payload));
            }
        }
    }
    (msgs, raw)
}

/// `rpc.encode_ns_per_frame` (`ServerMsg::encode` of every recorded
/// server frame) and `sim.frame_ns_per_frame` (`append_frame` +
/// `read_frames` of the same payloads).
pub fn frame_encode_ns(rec: &Recording, effort: Effort) -> (f64, f64) {
    let (msgs, raw) = server_frames(rec);
    if msgs.is_empty() {
        return (0.0, 0.0);
    }
    let rounds = effort.scale(20);
    let rpc = ns_per_op(3, || {
        let mut out = Vec::with_capacity(1 << 16);
        for _ in 0..rounds {
            out.clear();
            for m in &msgs {
                m.encode(&mut out);
            }
            black_box(out.len());
        }
        rounds * msgs.len() as u64
    });
    let sim = ns_per_op(3, || {
        let mut out = Vec::with_capacity(1 << 16);
        for _ in 0..rounds {
            out.clear();
            for (tag, payload) in &raw {
                append_frame(&mut out, *tag, payload);
            }
            black_box(read_frames(&out).0.len());
        }
        rounds * raw.len() as u64
    });
    (rpc, sim)
}

/// `sim.event_queue_ns_per_op`: schedule/pop cycles through the DES
/// heap with a live horizon of 1024 events (every pop schedules a
/// successor), as a kernel run does.
pub fn event_queue_ns(effort: Effort) -> f64 {
    let rounds = effort.scale(400_000);
    ns_per_op(3, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::new(0xE7E7);
        for i in 0..1024 {
            q.schedule(SimTime::from_nanos(rng.next_u64() % 1_000_000), i);
        }
        let mut ops = 1024;
        for _ in 0..rounds {
            let Some((t, v)) = q.pop() else { break };
            q.schedule(t + SimDuration::from_nanos(1 + rng.next_u64() % 10_000), v);
            ops += 2;
        }
        black_box(q.now());
        ops
    })
}

/// `core.sched.decide_ns_per_op`: MLFQ push/pop/charge over a large
/// program population — the continuous executor's admission path.
pub fn sched_decide_ns(effort: Effort) -> f64 {
    let rounds = effort.scale(100_000);
    ns_per_op(3, || {
        let mut q: ProgramQueue<u64> = ProgramQueue::new(QueueDiscipline::Mlfq(MlfqConfig {
            levels: 4,
            quantum_tokens: 256,
        }));
        let mut rng = Rng::new(0x5C4E);
        let mut ops = 0;
        for r in 0..rounds {
            for _ in 0..8 {
                q.push(1 + rng.next_u64() % 4096, true, r);
                ops += 1;
            }
            for _ in 0..8 {
                if q.pop().is_some() {
                    q.charge(1 + rng.next_u64() % 4096, true, 16);
                    ops += 2;
                }
            }
        }
        black_box(q.len());
        ops
    })
}

/// `kvfs.op_ns`: create → append four pages → fork → divergent append
/// (CoW copy) → swap out → swap in → remove, over ~64 live files, on
/// the serving kernel's page geometry.
pub fn kvfs_op_ns(kernel: &Kernel, effort: Effort) -> f64 {
    let rounds = effort.scale(20_000);
    let cfg = KvStoreConfig {
        page_tokens: kernel.store().page_tokens(),
        bytes_per_token: kernel.store().bytes_per_token(),
        gpu_pages: 4096,
        cpu_pages: 8192,
        disk_pages: 0,
    };
    let entries: Vec<KvEntry> = (0..64u32)
        .map(|i| KvEntry::new(i, i, CtxFingerprint(u64::from(i).wrapping_mul(0x9E37_79B9))))
        .collect();
    ns_per_op(3, || {
        let mut store = KvStore::new(cfg);
        let owner = OwnerId(1);
        let mut live: Vec<FileId> = Vec::new();
        let mut ops = 0;
        for r in 0..rounds {
            let Ok(f) = store.create(owner) else { break };
            let ok = store.append(f, owner, &entries).is_ok();
            let Ok(g) = store.fork(f, owner) else { break };
            let ok = ok
                && store.append(g, owner, &entries[..8]).is_ok()
                && store.swap_out(f, owner).is_ok()
                && store.swap_in(f, owner).is_ok();
            black_box(ok);
            ops += 6;
            live.push(f);
            live.push(g);
            while live.len() > 64 {
                let dead = live.remove((r % 64) as usize);
                black_box(store.remove(dead, owner).is_ok());
                ops += 1;
            }
        }
        ops
    })
}

/// The serving model, rebuilt from the kernel's public configuration.
fn surrogate(workload: Workload) -> Surrogate {
    let cfg = workload.kernel_config(false);
    Surrogate::new(cfg.model, cfg.model_seed).with_vocab(
        symphony_model::surrogate::VocabInfo::from_tokenizer(Bpe::default_tokenizer()),
    )
}

/// `model.next_dist_ns`: one next-token distribution per context of a
/// fingerprint chain.
pub fn next_dist_ns(workload: Workload, effort: Effort) -> f64 {
    let model = surrogate(workload);
    let n = effort.scale(50_000);
    ns_per_op(3, || {
        let fpr = model.fingerprinter();
        let mut fp = fpr.origin();
        for i in 0..n {
            let d = model.next_dist(fp);
            fp = fpr.advance(fp, d.argmax(), i as u32);
        }
        black_box(fp);
        n
    })
}

/// `model.cost_eval_ns`: `forward_work` plus `batch_time` for a decode
/// step and a chunked prefill at growing context lengths.
pub fn cost_eval_ns(workload: Workload, effort: Effort) -> f64 {
    let cfg = workload.kernel_config(false);
    let gpu = GpuExecutor::new(cfg.device, surrogate(workload));
    let n = effort.scale(200_000);
    ns_per_op(3, || {
        let mut acc = 0u64;
        for i in 0..n {
            let past = 16 + (i % 3000);
            let decode = cfg.model.forward_work(1, past);
            let prefill = cfg.model.forward_work(512, past);
            acc = acc
                .wrapping_add(gpu.batch_time(&decode).as_nanos())
                .wrapping_add(gpu.batch_time(&prefill).as_nanos());
        }
        black_box(acc);
        2 * n
    })
}

/// `tokenizer.encode_ns_per_token`: the texts the workload's programs
/// tokenize, through the serving tokenizer.
pub fn tokenizer_ns(texts: &[String], effort: Effort) -> f64 {
    let bpe = Bpe::default_tokenizer();
    let rounds = effort.scale(8);
    ns_per_op(3, || {
        let mut tokens = 0;
        for _ in 0..rounds {
            for t in texts {
                tokens += bpe.encode(t).len() as u64;
            }
        }
        tokens
    })
}

/// Parse and verify cost of the recorded programs, µs per program.
pub fn parse_verify_us(jobs: &[Job], effort: Effort) -> (f64, f64) {
    let rounds = effort.scale(4);
    let parse_ns = ns_per_op(3, || {
        for _ in 0..rounds {
            for j in jobs {
                black_box(parse(&j.source).is_ok());
            }
        }
        rounds * jobs.len() as u64
    });
    let programs: Vec<_> = jobs.iter().filter_map(|j| parse(&j.source).ok()).collect();
    let verify_ns = ns_per_op(3, || {
        for _ in 0..rounds {
            for p in &programs {
                black_box(verify(p).error_count());
            }
        }
        rounds * programs.len().max(1) as u64
    });
    (parse_ns / 1e3, verify_ns / 1e3)
}

/// A mock host the recorded programs can run to completion on.
fn mock_host(args: &str) -> MockHost {
    let mut host = MockHost::new(args);
    for tool in ["echo", "index"] {
        host.tools.insert(tool.to_string(), "ok".to_string());
    }
    host.tools.insert(
        "retrieve".to_string(),
        "a retrieved document of a few words to prefill".to_string(),
    );
    for doc in 0..crate::workload::RAG_DOCS {
        let handle = host.files.len() as u64;
        host.files
            .push(Some((0..32).map(|i| (i as u32, i as u32)).collect()));
        host.names.insert(format!("doc{doc}.kv"), handle);
    }
    host
}

/// `lipscript.interp_ns_per_fuel`: the recorded programs interpreted on
/// `MockHost` (no kernel, no threads), host ns per unit of fuel burnt.
/// Programs the mock cannot finish are skipped and counted.
pub fn interp_ns_per_fuel(jobs: &[Job], effort: Effort) -> (f64, usize) {
    let take = effort.scale(256) as usize;
    let programs: Vec<_> = jobs
        .iter()
        .take(take)
        .filter_map(|j| Some((Arc::new(parse(&j.source).ok()?), j.args.clone())))
        .collect();
    let mut skipped = 0;
    let ns = ns_per_op(3, || {
        let mut fuel = 0;
        skipped = 0;
        for (program, args) in &programs {
            let mut host = mock_host(args);
            let mut interp = Interpreter::new(Arc::clone(program), InterpLimits::default());
            if interp.run(&mut host).is_err() {
                skipped += 1;
            }
            fuel += interp.fuel_used();
        }
        fuel
    });
    (ns, skipped)
}

/// LIPs alive at once in the hand-off probe: about what `agent_loop`
/// keeps live at its arrival rate.
const HANDOFF_LIPS: u64 = 64;

/// `core.handoff_us_per_roundtrip`: native LIPs issuing no-op (`now`)
/// syscalls on a fresh serving kernel, [`HANDOFF_LIPS`] of them
/// interleaved so each wake lands on a thread whose stack has gone
/// cold — one LIP↔kernel channel round trip and two thread hand-offs
/// per call, and nothing else.
pub fn handoff_us(workload: Workload, effort: Effort) -> f64 {
    let calls_each = effort.scale(20_000) / HANDOFF_LIPS + 1;
    let ns = ns_per_op(3, || {
        let mut kernel = workload.build_kernel(false);
        for i in 0..HANDOFF_LIPS {
            kernel.spawn_process(&format!("handoff-probe-{i}"), "", move |ctx| {
                for _ in 0..calls_each {
                    ctx.now()?;
                }
                Ok(())
            });
        }
        kernel.run();
        calls_each * HANDOFF_LIPS
    });
    ns / 1e3
}

/// `telemetry.emit_ns_per_event` with the bus off, recording, and
/// recording a causal batch.
pub fn telemetry_emit_ns(effort: Effort) -> (f64, f64, f64) {
    let n = effort.scale(100_000);
    let at = SimTime::from_nanos(1);
    let enter = || EventKind::SyscallEnter {
        pid: 1,
        tid: 1,
        name: "pred",
    };
    let off = ns_per_op(3, || {
        let mut bus = EventBus::disabled();
        for _ in 0..n {
            bus.emit(at, enter);
        }
        black_box(bus.events().len());
        n
    });
    let on = ns_per_op(3, || {
        let mut bus = EventBus::recording();
        for _ in 0..n {
            bus.emit(at, enter);
        }
        black_box(bus.events().len());
        n
    });
    let causal = ns_per_op(3, || {
        let mut bus = EventBus::recording();
        for _ in 0..n / 16 {
            bus.emit_batch(at, 16, |k| EventKind::PredExec {
                pid: 1,
                tid: k as u64,
                batch: 1,
                tokens: 1,
                enqueued_at: at,
            });
        }
        black_box(bus.events().len());
        (n / 16) * 16
    });
    (off, on, causal)
}
