//! What a served session leaves behind on the heap, counted.
//!
//! A server that stays up must not grow with every program it ever served.
//! Three leaks of that kind were each found by hand, with a counting
//! allocator bolted on for the occasion; this file keeps the allocator in
//! the tree, so the next one is found by a test. It serves epochs of agent
//! and RAG-reader sessions through a [`ServerCore`] and bounds the growth of
//! the live heap per exited session: nothing, for the pump reaps every
//! session once its DONE frame is routed, and the kernel's counters keep
//! the totals its records gave. A high-water mark bounds what one pump
//! holds while it runs: a slice of session events, not a burst's. The
//! door's image cache gets the same treatment, and so does the tokenizer,
//! which outlives every server in the process: neither the words of new
//! prompts nor a tenant's 16 KiB words may stay behind. Nor may any frame
//! a connection sent or was sent: a frame reader, the server's or a
//! client's, copies only a frame split across two reads and keeps nothing
//! once it has drained, and a connection whose output the transport has
//! taken holds no output buffer either.
//!
//! The count is per thread: a served LipScript session runs on the thread
//! that pumps the server and on no other, so what this thread allocated and
//! has not freed is what the sessions cost, whatever the test harness does
//! on its own threads meanwhile. A durable program admitted as a closure
//! image starts on a worker of the LIP pool and execs its body there, which
//! the kernel's thread then steps and drops: what the workers allocate is
//! counted apart, once an image has marked its worker, and a durable
//! session's cost is the two counts together. One admitted inline, its
//! text journalled as its image, never leaves the kernel's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};

use symphony::{
    Body, ExitStatus, Kernel, KernelConfig, ProcessUsage, ProgramImage, SessionEvent, SimTime,
    SpawnOpts, SysError, WalConfig,
};
use symphony_lipscript::{parse::parse, run_lip, InterpLimits, LipBody};
use symphony_rpc::{
    ClientMsg, ErrCode, FrameReader, ServerMsg, SessionStatus, DEFAULT_MAX_FRAME, READ_SIZE,
    WIRE_VERSION,
};
use symphony_serve::replay::{agent_source, rag_source, standard_kernel};
use symphony_serve::{ServeConfig, ServerCore};

thread_local! {
    /// Bytes this thread has allocated and not freed. `const`-initialised
    /// and without a destructor, so reading it allocates nothing and it
    /// is there for as long as the thread can allocate.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` has been since [`peak_rise`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Set on a LIP pool worker by the first durable image that runs on
    /// it ([`mark_worker`]); from then on it counts into [`ON_WORKERS`].
    static A_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Bytes the marked pool workers have allocated and not freed, together.
/// The pool is the process's, and only durable images run on it in this
/// file.
static ON_WORKERS: AtomicIsize = AtomicIsize::new(0);

/// Moves this thread's live count by `delta`, raising the high-water mark
/// if it went past it; on a marked worker, moves [`ON_WORKERS`] instead.
fn count(delta: isize) {
    if A_WORKER.with(Cell::get) {
        ON_WORKERS.fetch_add(delta, Ordering::Relaxed);
        return;
    }
    let live = LIVE.with(|live| {
        live.set(live.get() + delta);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged and its answer
// handed back unchanged; the counters beside it are thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Makes the calling thread, a LIP pool worker, count into [`ON_WORKERS`].
fn mark_worker() {
    A_WORKER.with(|marked| marked.set(true));
}

/// Runs `f` and returns how far above the live count at its start this
/// thread's heap went while it ran.
fn peak_rise(f: impl FnOnce()) -> isize {
    let base = live_bytes();
    PEAK.with(|peak| peak.set(base));
    f();
    PEAK.with(Cell::get) - base
}

const SESSIONS_PER_EPOCH: u64 = 256;

/// A server with one connection open, whose tenant may fill it alone.
fn server() -> (ServerCore, u64) {
    server_with(ServeConfig::default())
}

/// [`server`], with the door's other knobs taken from `cfg`.
fn server_with(cfg: ServeConfig) -> (ServerCore, u64) {
    let cfg = ServeConfig {
        tenant_session_quota: SESSIONS_PER_EPOCH as usize,
        ..cfg
    };
    let mut core = ServerCore::new(standard_kernel(KernelConfig::for_tests()), cfg);
    let conn = core.open_conn();
    let mut wire = Vec::new();
    ClientMsg::Hello {
        version: WIRE_VERSION,
        tenant: 1,
    }
    .encode(&mut wire);
    core.feed(conn, &wire);
    core.pump();
    assert!(!core.take_output(conn).is_empty(), "no HELLO_OK");
    (core, conn)
}

fn submit(core: &mut ServerCore, conn: u64, session: u64, at_ns: u64, source: &str, args: &str) {
    submit_with_fuel(core, conn, session, at_ns, 0, source, args);
}

fn submit_with_fuel(
    core: &mut ServerCore,
    conn: u64,
    session: u64,
    at_ns: u64,
    fuel: u64,
    source: &str,
    args: &str,
) {
    let mut wire = Vec::new();
    ClientMsg::Submit {
        session,
        not_before_ns: at_ns,
        fuel,
        name: format!("s{session}"),
        args: args.to_string(),
        source: source.to_string(),
    }
    .encode(&mut wire);
    core.feed(conn, &wire);
}

/// The DONE frames in a connection's output: session and status, in order.
fn dones(wire: &[u8]) -> Vec<(u64, SessionStatus)> {
    let mut dones = Vec::new();
    let read = FrameReader::new().read(wire, |tag, payload| {
        if let Ok(ServerMsg::Done {
            session, status, ..
        }) = ServerMsg::decode(tag, payload)
        {
            dones.push((session, status));
        }
        ControlFlow::Continue(())
    });
    read.expect("clean server wire");
    dones
}

/// Serves one epoch — agents and RAG readers of a few shapes, arriving
/// 200 µs apart, their session ids and prompts numbered from `epoch` — to
/// completion, takes the output off the wire, and checks that every
/// session's DONE says it succeeded.
fn serve_epoch(core: &mut ServerCore, conn: u64, epoch: u64) {
    let t0 = core.kernel().now().as_nanos();
    for i in 0..SESSIONS_PER_EPOCH {
        let session = 1 + epoch * SESSIONS_PER_EPOCH + i;
        let (source, args) = if i % 2 == 0 {
            let source = agent_source(1 + (i % 3) as usize, 4 + (i % 5) as usize);
            (source, format!("question number {session}"))
        } else {
            let source = rag_source(4 + (i % 7) as usize);
            (source, format!("{}|what about {session}?", i % 4))
        };
        submit(core, conn, session, t0 + i * 200_000, &source, &args);
    }
    core.pump();
    assert_eq!(core.live_sessions(), 0, "epoch {epoch} left sessions live");
    let dones = dones(&core.take_output(conn));
    assert_eq!(dones.len(), SESSIONS_PER_EPOCH as usize, "epoch {epoch}");
    let failed = dones.iter().find(|(_, st)| *st != SessionStatus::Ok);
    assert!(failed.is_none(), "epoch {epoch}: {failed:?} failed");
}

const WARM_UP: u64 = 4;
const EPOCHS: u64 = 24;

#[test]
fn a_served_session_leaves_nothing_behind() {
    let (mut core, conn) = server();
    let registry = core.kernel().metrics_registry();
    let (zombies, exited) = (
        registry.gauge("kernel.procs.zombies"),
        registry.counter("kernel.procs.exited"),
    );
    let mut warm = 0;
    for epoch in 0..EPOCHS {
        serve_epoch(&mut core, conn, epoch);
        // Nobody but the pump reaps: each session's DONE was its last
        // trace, and its usage went into the kernel's counters.
        assert_eq!(core.kernel().records().count(), 0, "epoch {epoch}");
        assert_eq!(zombies.get(), 0, "epoch {epoch}");
        assert_eq!(exited.get(), (epoch + 1) * SESSIONS_PER_EPOCH);
        if epoch + 1 == WARM_UP {
            warm = live_bytes();
        }
    }
    let sessions = ((EPOCHS - WARM_UP) * SESSIONS_PER_EPOCH) as isize;
    let per_session = (live_bytes() - warm) as f64 / sessions as f64;
    eprintln!("{per_session:.1} B per served session");
    let allowed = 16.0;
    assert!(
        per_session <= allowed,
        "{per_session:.1} B per served session (> {allowed})"
    );
}

/// One program of each outcome a session can have: two that succeed, one
/// that spawns threads, one that fails at run time, one that runs out of
/// fuel, and one parked in `recv` until it is cancelled.
/// `(source, args, fuel, cancelled)`; fuel 0 is the door's default.
fn every_outcome() -> Vec<(String, &'static str, u64, bool)> {
    const PARALLEL: &str = include_str!("../../../examples/lipscript/parallel.lip");
    const FAILING: &str = "emit(\"so far\");\nlet xs = [1, 2];\nreturn xs[2];";
    const SPINNING: &str = "let kv = kv_create();\nwhile (true) { kv_len(kv); }";
    const PARKED: &str = "let kv = kv_create();\nlet m = recv();\npred(kv, tokenize(m[1]), 0);";
    vec![
        (agent_source(2, 6), "what is a lip?", 0, false),
        (rag_source(5), "1|how do kv files fork?", 0, false),
        (PARALLEL.into(), "", 0, false),
        (FAILING.into(), "", 0, false),
        (SPINNING.into(), "", 500, false),
        (PARKED.into(), "", 0, true),
    ]
}

/// `kernel.procs.exited` and each `kernel.usage.<field>` counter.
fn usage_totals(kernel: &Kernel) -> Vec<(&'static str, u64)> {
    let names = [
        "kernel.procs.exited",
        "kernel.usage.syscalls",
        "kernel.usage.pred_calls",
        "kernel.usage.pred_tokens",
        "kernel.usage.emitted_tokens",
        "kernel.usage.tool_calls",
        "kernel.usage.threads_spawned",
    ];
    let registry = kernel.metrics_registry();
    names
        .into_iter()
        .map(|name| (name, registry.counter_value(name).unwrap_or(0)))
        .collect()
}

/// What [`usage_totals`] should read after the processes that used
/// `usages` exited: how many there were, then each field summed.
fn summed_usage<'a>(usages: impl Iterator<Item = &'a ProcessUsage>) -> Vec<u64> {
    let usages: Vec<_> = usages.collect();
    let fields: [fn(&ProcessUsage) -> u64; 6] = [
        |u| u.syscalls,
        |u| u.pred_calls,
        |u| u.pred_tokens,
        |u| u.emitted_tokens,
        |u| u.tool_calls,
        |u| u.threads_spawned.into(),
    ];
    let mut summed = vec![usages.len() as u64];
    summed.extend(fields.map(|field| usages.iter().map(|u| field(u)).sum::<u64>()));
    summed
}

#[test]
fn the_kernels_counters_carry_what_its_records_carried() {
    let cfg = ServeConfig {
        // The failing programs are the point, not the verifier's verdict.
        verify: false,
        ..ServeConfig::default()
    };
    let limits = |fuel: u64| InterpLimits {
        fuel: if fuel == 0 { cfg.default_fuel } else { fuel },
        ..InterpLimits::default()
    };

    // A kernel with no session sink keeps every record.
    let mut kernel = standard_kernel(KernelConfig::for_tests());
    let mut parked = Vec::new();
    for (i, (source, args, fuel, cancelled)) in every_outcome().into_iter().enumerate() {
        let program = Arc::new(parse(&source).expect("parses"));
        let body = Box::new(LipBody::new(program, limits(fuel)));
        let pid = kernel.admit(
            &format!("s{}", i + 1),
            args,
            SpawnOpts::default(),
            Body::Inline(body),
        );
        if cancelled {
            parked.push(pid);
        }
    }
    kernel.run();
    for &pid in &parked {
        assert!(kernel.cancel_process(pid));
    }
    kernel.run();
    assert_eq!(kernel.live_threads(), 0);
    let records: Vec<_> = kernel.records().cloned().collect();
    let ok = records.iter().filter(|r| r.status.is_ok()).count();
    let failed = records
        .iter()
        .filter(|r| matches!(r.status, ExitStatus::Error(SysError::ToolFailed(_))))
        .count();
    let cancelled = records
        .iter()
        .filter(|r| r.status == ExitStatus::Error(SysError::Cancelled))
        .count();
    assert_eq!(
        (records.len(), ok, failed, cancelled),
        (6, 3, 2, 1),
        "{records:?}"
    );
    assert!(records.iter().any(|r| r.usage.threads_spawned > 1));
    assert!(records.iter().any(|r| r.usage.tool_calls > 0));
    let summed = summed_usage(records.iter().map(|r| &r.usage));
    let direct = usage_totals(&kernel);
    let counted: Vec<u64> = direct.iter().map(|&(_, n)| n).collect();
    assert_eq!(counted, summed, "{direct:?}");

    // Served, the same programs leave no record, and the same totals.
    let (mut core, conn) = server_with(cfg);
    let mut cancels = Vec::new();
    for (i, (source, args, fuel, cancelled)) in every_outcome().into_iter().enumerate() {
        let session = i as u64 + 1;
        submit_with_fuel(&mut core, conn, session, 0, fuel, &source, args);
        if cancelled {
            ClientMsg::Cancel { session }.encode(&mut cancels);
        }
    }
    core.pump();
    let mut wire = core.take_output(conn);
    core.feed(conn, &cancels);
    core.pump();
    wire.extend(core.take_output(conn));
    let mut statuses = dones(&wire);
    statuses.sort_by_key(|&(session, _)| session);
    use SessionStatus as S;
    let outcomes = [S::Ok, S::Ok, S::Ok, S::Error, S::Error, S::Cancelled];
    assert_eq!(statuses, (1..).zip(outcomes).collect::<Vec<_>>());
    assert_eq!(core.kernel().records().count(), 0);
    assert_eq!(usage_totals(core.kernel()), direct);
}

#[test]
fn a_durable_kernel_with_a_sink_keeps_nothing_per_session() {
    // The durable path with no server around it: the WAL open (the KV
    // store's batches ride in it), the session events taken straight from
    // the sink, and no reap call anywhere. The programs come two ways: as
    // durable images that parse and exec a LipScript program on a pool
    // worker, and inline, as `LipBody`s whose admission frames journal
    // their text.
    for inline in [false, true] {
        durable_sessions_keep_nothing(inline);
    }
}

fn durable_sessions_keep_nothing(inline: bool) {
    let dir = std::env::temp_dir();
    let tag = format!("symphony-residue-{}-{inline}", std::process::id());
    let wal = dir.join(format!("{tag}.wal"));
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(&wal));
    let mut kernel = standard_kernel(cfg);
    let events: Arc<Mutex<Vec<SessionEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    kernel.set_session_sink(Box::new(move |ev| sink.lock().unwrap().push(ev)));
    let sources: Vec<String> = (0..6)
        .map(|shape: usize| {
            if shape.is_multiple_of(2) {
                agent_source(1 + shape / 2, 4 + shape)
            } else {
                rag_source(4 + shape)
            }
        })
        .collect();
    let images: Vec<ProgramImage> = sources
        .iter()
        .map(|source| {
            let source = source.clone();
            let image: ProgramImage = Arc::new(move |ctx| {
                mark_worker();
                run_lip(&source, ctx, InterpLimits::default())
                    .map(|_| ())
                    .map_err(|e| SysError::ToolFailed(e.to_string()))
            });
            image
        })
        .collect();
    let registry = kernel.metrics_registry();
    let zombies = registry.gauge("kernel.procs.zombies");

    // The sink's `Exited` events so far: how many, then each usage field
    // summed (the order `usage_totals` reads the counters in).
    let mut exited = vec![0; 7];
    let mut warm = 0;
    for epoch in 0..EPOCHS {
        let t0 = kernel.now().as_nanos();
        for i in 0..SESSIONS_PER_EPOCH {
            let session = 1 + epoch * SESSIONS_PER_EPOCH + i;
            let shape = (i % 6) as usize;
            let args = if shape.is_multiple_of(2) {
                format!("question number {session}")
            } else {
                format!("{}|what about {session}?", i % 4)
            };
            let at = SimTime::from_nanos(t0 + i * 200_000);
            let body = if inline {
                let body = LipBody::parse(&sources[shape], InterpLimits::default());
                Body::Inline(Box::new(body.expect("parses")))
            } else {
                Body::from(Arc::clone(&images[shape]))
            };
            kernel.admit(
                &format!("s{session}"),
                &args,
                SpawnOpts {
                    durable: true,
                    ..SpawnOpts::at(at)
                },
                body,
            );
        }
        kernel.run();
        let mut ok = 0;
        let mut usages = Vec::new();
        for ev in events.lock().unwrap().drain(..) {
            if let SessionEvent::Exited { status, usage, .. } = ev {
                ok += usize::from(status.is_ok());
                usages.push(*usage);
            }
        }
        assert_eq!(
            ok, SESSIONS_PER_EPOCH as usize,
            "inline {inline}, epoch {epoch}"
        );
        for (total, n) in exited.iter_mut().zip(summed_usage(usages.iter())) {
            *total += n;
        }
        // Each exit went to the sink, and that was its reap.
        assert_eq!(
            kernel.records().count(),
            0,
            "inline {inline}, epoch {epoch}"
        );
        assert_eq!(zombies.get(), 0, "inline {inline}, epoch {epoch}");
        assert_eq!(kernel.live_threads(), 0, "inline {inline}, epoch {epoch}");
        let counted: Vec<u64> = usage_totals(&kernel).iter().map(|&(_, n)| n).collect();
        assert_eq!(counted, exited, "inline {inline}, epoch {epoch}");
        if epoch + 1 == WARM_UP {
            warm = live_bytes() + ON_WORKERS.load(Ordering::Relaxed);
        }
    }
    let grown = live_bytes() + ON_WORKERS.load(Ordering::Relaxed) - warm;
    let sessions = ((EPOCHS - WARM_UP) * SESSIONS_PER_EPOCH) as isize;
    let per_session = grown as f64 / sessions as f64;
    eprintln!("{per_session:.1} B per durable session (inline {inline})");
    let allowed = 16.0;
    assert!(
        per_session <= allowed,
        "{per_session:.1} B per durable session (inline {inline}; > {allowed})"
    );
    // Admitted inline, no session touched a pool worker.
    let handoffs = kernel
        .metrics_registry()
        .counter_value("kernel.lip.hosted_handoffs");
    assert_eq!(handoffs == Some(0), inline, "{handoffs:?}");
    drop(kernel);
    std::fs::remove_file(&wal).ok();
}

#[test]
fn a_pump_holds_one_slice_of_events_not_a_burst() {
    // 256 agents arriving 10 ms apart, pumped to quiescence in one call:
    // a few dozen are live at a time, and the kernel produces some 20 000
    // session events on the way, one `String` each. Routed a slice at a
    // time, what the pump holds beyond the STREAM bytes it leaves queued
    // on the connection is the live sessions' state and one slice's
    // events; held until the whole burst has run, the events were
    // megabytes.
    let (mut core, conn) = server();
    let t0 = core.kernel().now().as_nanos();
    let source = agent_source(4, 16);
    for session in 1..=SESSIONS_PER_EPOCH {
        let at = t0 + session * 10_000_000;
        let args = format!("question number {session}");
        submit(&mut core, conn, session, at, &source, &args);
    }
    let peak = peak_rise(|| core.pump());
    assert_eq!(core.live_sessions(), 0);
    let streamed = core.take_output(conn).len() as isize;
    let held = peak - streamed;
    eprintln!("pump: peak {peak} B above its start, {held} B beyond its {streamed} B of frames");
    let bound = 512 * 1024;
    assert!(
        held <= bound,
        "pump: peak {peak} B above its start, {held} B beyond its {streamed} B of frames (> {bound})"
    );
}

#[test]
fn a_tenants_long_words_are_not_kept() {
    // `tokenize("agent: " + args())`, as `agent_source` runs it, on 1 000
    // distinct single words of 16 KiB: the tokenizer encodes each and
    // remembers none, so served sessions leave the heap where it was. The
    // words are numerals, which no merge applies to, so a debug build
    // spends one rank lookup per byte on them and no more.
    const WORD: usize = 16 * 1024;
    const SESSIONS: u64 = 1_000;
    const WARM_SESSIONS: u64 = 100;
    let source = "emit(str(len(tokenize(\"agent: \" + args()))));\n";
    let (mut core, conn) = server();
    let mut warm = 0;
    for session in 1..=SESSIONS {
        let mut word = format!("{session}-");
        word.push_str(&"7".repeat(WORD - word.len()));
        submit(&mut core, conn, session, 0, source, &word);
        core.pump();
        let dones = dones(&core.take_output(conn));
        assert_eq!(dones, [(session, SessionStatus::Ok)]);
        if session == WARM_SESSIONS {
            warm = live_bytes();
        }
    }
    let grown = live_bytes() - warm;
    eprintln!("{grown} B grown over {} words of {WORD} B", SESSIONS - WARM_SESSIONS);
    assert!(grown < 1024, "{grown} B grown over {} words of {WORD} B", SESSIONS - WARM_SESSIONS);
}

#[test]
fn the_image_cache_is_bounded_and_keeps_no_rejects() {
    let (mut core, conn) = server();
    let cap = ServeConfig::default().max_live_sessions;
    let counter = |core: &ServerCore, name: &str| {
        let name = format!("serve.image_cache.{name}");
        core.kernel()
            .metrics_registry()
            .counter_value(&name)
            .unwrap_or(0)
    };
    // Pairwise-distinct admissible sources, each served to completion: the
    // cache holds the last `cap` of them and nothing else grows.
    let mut warm = 0;
    for i in 0..10_000u64 {
        let source = format!("emit(\"program {i}\");\n");
        submit(&mut core, conn, 1 + i, 0, &source, "");
        core.pump();
        core.take_output(conn);
        if i + 1 == 2 * cap as u64 {
            warm = live_bytes();
        }
    }
    assert_eq!(core.cached_images(), cap);
    assert_eq!(counter(&core, "misses"), 10_000);
    assert_eq!(counter(&core, "evictions"), 10_000 - cap as u64);
    assert_eq!(counter(&core, "hits"), 0);
    let grown = live_bytes() - warm;
    assert!(
        grown < 64 * 1024,
        "{grown} B grown over 10^4 distinct sources"
    );

    // A source seen lately is a hit; one evicted long ago a miss again.
    submit(&mut core, conn, 20_001, 0, "emit(\"program 9999\");\n", "");
    submit(&mut core, conn, 20_002, 0, "emit(\"program 0\");\n", "");
    assert_eq!(counter(&core, "hits"), 1);
    assert_eq!(counter(&core, "misses"), 10_001);

    // Rejected sources — one that does not parse, one the verifier refuses
    // — are answered and forgotten.
    core.pump();
    core.take_output(conn);
    let (cached, misses) = (core.cached_images(), counter(&core, "misses"));
    for (session, source) in [(30_001, "let x = ;"), (30_002, "emit(undefined_name);")] {
        for again in 0..2 {
            submit(&mut core, conn, session + 10 * again, 0, source, "");
        }
    }
    core.pump();
    assert!(!core.take_output(conn).is_empty());
    assert_eq!(core.cached_images(), cached);
    assert_eq!(counter(&core, "misses"), misses + 4, "a reject was cached");
    assert_eq!(core.live_sessions(), 0);
}

/// The first frame of `wire`, whole frames only, decoded.
fn first_reply(wire: &[u8]) -> ServerMsg {
    let mut reply = None;
    FrameReader::new()
        .read(wire, |tag, payload| {
            reply = Some(ServerMsg::decode(tag, payload).expect("decodes"));
            ControlFlow::Break(())
        })
        .expect("clean server wire");
    reply.expect("a reply")
}

#[test]
fn a_connection_idle_after_a_1_mib_submit_holds_no_buffer() {
    // One SUBMIT as large as a frame may be, arriving a read at a time as
    // over TCP. Its source is far over the door's limit, so it is refused
    // and the connection stays open, idle: its reader gathered the split
    // frame in a buffer of the frame's size and freed it once the frame
    // was whole, and the transport took the reply.
    let (mut core, conn) = server();
    let mut wire = Vec::new();
    ClientMsg::Submit {
        session: 1,
        not_before_ns: 0,
        fuel: 0,
        name: "big".into(),
        args: String::new(),
        source: "x".repeat(DEFAULT_MAX_FRAME as usize - 64),
    }
    .encode(&mut wire);
    let before = live_bytes();
    for read in wire.chunks(READ_SIZE) {
        core.feed(conn, read);
    }
    core.pump();
    let reply = first_reply(&core.take_output(conn));
    assert!(
        matches!(
            reply,
            ServerMsg::Error {
                code: ErrCode::SourceTooLarge,
                ..
            }
        ),
        "{reply:?}"
    );
    assert!(!core.is_closed(conn));
    drop(reply);
    let held = live_bytes() - before;
    eprintln!("idle after a {} B SUBMIT: {held} B held", wire.len());
    assert_eq!(held, 0, "{held} B held");
}

#[test]
fn a_client_reader_that_drained_a_burst_holds_no_buffer() {
    // 40 KiB of per-token STREAM frames read at once, as a client that read
    // a whole burst would: the reader hands every frame out in place and
    // keeps nothing of the burst.
    let mut burst = Vec::new();
    let mut at_ns = 0;
    while burst.len() < 40 * 1024 {
        at_ns += 1_000_000;
        ServerMsg::Stream {
            session: 1,
            at_ns,
            tokens: 1,
            text: "token".into(),
        }
        .encode(&mut burst);
    }
    let before = live_bytes();
    let mut reader = FrameReader::new();
    let mut frames = 0;
    let read = reader.read(&burst, |tag, payload| {
        assert!(matches!(
            ServerMsg::decode(tag, payload),
            Ok(ServerMsg::Stream { .. })
        ));
        frames += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(read.expect("clean"), burst.len());
    assert_eq!(reader.pending(), 0);
    let held = live_bytes() - before;
    eprintln!("{frames} frames, {} B drained: {held} B held", burst.len());
    assert_eq!(held, 0, "{held} B held");
}

/// HELLOs `n` new connections of tenant 1 and takes their HELLO_OKs.
fn open_conns(core: &mut ServerCore, n: usize) -> Vec<u64> {
    let mut hello = Vec::new();
    ClientMsg::Hello {
        version: WIRE_VERSION,
        tenant: 1,
    }
    .encode(&mut hello);
    let conns: Vec<u64> = (0..n).map(|_| core.open_conn()).collect();
    for &conn in &conns {
        core.feed(conn, &hello);
    }
    core.pump();
    for &conn in &conns {
        assert!(matches!(
            first_reply(&core.take_output(conn)),
            ServerMsg::HelloOk { .. }
        ));
    }
    conns
}

/// Sends each of `conns` a burst of `BURST` agent SUBMITs in reads that
/// split its frames, as a socket delivers them, runs them all to their
/// DONE, and drains every connection's output as a socket takes it, a
/// segment at a time through `pending` and `consume`.
fn serve_bursts(core: &mut ServerCore, conns: &[u64], first_session: u64) {
    const BURST: u64 = 4;
    const SEGMENT: usize = 1460;
    let source = agent_source(1, 4);
    for &conn in conns {
        let mut wire = Vec::new();
        for i in 0..BURST {
            let session = first_session + i;
            ClientMsg::Submit {
                session,
                not_before_ns: 0,
                fuel: 0,
                name: format!("s{session}"),
                args: format!("question number {session}"),
                source: source.clone(),
            }
            .encode(&mut wire);
        }
        for read in wire.chunks(300) {
            core.feed(conn, read);
        }
    }
    core.pump();
    assert_eq!(core.live_sessions(), 0);
    for &conn in conns {
        let mut done = 0;
        while !core.pending(conn).is_empty() {
            let n = core.pending(conn).len().min(SEGMENT);
            core.consume(conn, n);
            done += n;
        }
        assert!(done > 0, "conn {conn} streamed nothing");
    }
}

#[test]
fn connections_that_drained_a_burst_hold_no_buffers() {
    // 256 connections, each sent a burst of SUBMITs in reads that split
    // frames and drained of its output: not one keeps a reader buffer or
    // an output buffer. The same bursts on 256 other connections first
    // grow everything else to its high-water mark — the kernel's tables,
    // the image cache, the event queues — so that what the second round
    // leaves is what its connections hold.
    const CONNS: usize = 256;
    let cfg = ServeConfig {
        max_live_sessions: 4 * CONNS,
        tenant_session_quota: 4 * CONNS,
        ..ServeConfig::default()
    };
    let mut core = ServerCore::new(standard_kernel(KernelConfig::for_tests()), cfg);
    let warm = open_conns(&mut core, CONNS);
    serve_bursts(&mut core, &warm, 1);
    let conns = open_conns(&mut core, CONNS);
    let before = live_bytes();
    serve_bursts(&mut core, &conns, 1);
    let held = live_bytes() - before;
    eprintln!("{CONNS} connections drained of a burst each: {held} B held");
    assert_eq!(held, 0, "{held} B held by {CONNS} drained connections");
}
