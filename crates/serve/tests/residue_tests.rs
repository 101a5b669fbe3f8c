//! What a served session leaves behind on the heap, counted.
//!
//! A server that stays up must not grow with every program it ever served.
//! Three leaks of that kind were each found by hand, with a counting
//! allocator bolted on for the occasion; this file keeps the allocator in
//! the tree, so the next one is found by a test. It serves epochs of agent
//! and RAG-reader sessions through a [`ServerCore`] and bounds the growth of
//! the live heap per exited session: a zombie's worth — its record, which
//! keeps none of the output it streamed — when nobody reaps, and nothing
//! when somebody does. A high-water mark bounds what one pump holds while
//! it runs: a slice of session events, not a burst's. The door's image
//! cache gets the same treatment, and so does the tokenizer, which outlives
//! every server in the process: neither the words of new prompts nor a
//! tenant's 16 KiB words may stay behind.
//!
//! The count is per thread: a served LipScript session runs on the thread
//! that pumps the server and on no other, so what this thread allocated and
//! has not freed is what the sessions cost, whatever the test harness does
//! on its own threads meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symphony::KernelConfig;
use symphony_rpc::{ClientMsg, WIRE_VERSION};
use symphony_serve::replay::{agent_source, rag_source, standard_kernel};
use symphony_serve::{ServeConfig, ServerCore};

thread_local! {
    /// Bytes this thread has allocated and not freed. `const`-initialised
    /// and without a destructor, so reading it allocates nothing and it
    /// is there for as long as the thread can allocate.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` has been since [`peak_rise`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Moves this thread's live count by `delta`, raising the high-water mark
/// if it went past it.
fn count(delta: isize) {
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
    let cfg = ServeConfig {
        tenant_session_quota: SESSIONS_PER_EPOCH as usize,
        ..ServeConfig::default()
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
    let mut wire = Vec::new();
    ClientMsg::Submit {
        session,
        not_before_ns: at_ns,
        fuel: 0,
        name: format!("s{session}"),
        args: args.to_string(),
        source: source.to_string(),
    }
    .encode(&mut wire);
    core.feed(conn, &wire);
}

/// Serves one epoch — agents and RAG readers of a few shapes, arriving
/// 200 µs apart, their session ids and prompts numbered from `epoch` — to
/// completion, and takes the output off the wire.
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
    assert!(!core.take_output(conn).is_empty());
}

const WARM_UP: u64 = 4;
const EPOCHS: u64 = 24;

#[test]
fn an_exited_session_leaves_a_record_and_a_reaped_one_nothing() {
    for reap in [false, true] {
        let (mut core, conn) = server();
        let mut warm = 0;
        for epoch in 0..EPOCHS {
            // The reaped pass's session ids, and so the words of its
            // prompts, are new to the process: the tokenizer outlives the
            // server, and words it met in the first pass cost nothing.
            let ids = if reap { EPOCHS + epoch } else { epoch };
            serve_epoch(&mut core, conn, ids);
            if reap {
                assert_eq!(core.reap_exited(), SESSIONS_PER_EPOCH as usize);
            }
            if epoch + 1 == WARM_UP {
                warm = live_bytes();
            }
        }
        let failed = core.kernel().records().find(|r| !r.status.is_ok());
        assert!(failed.is_none(), "a session failed: {failed:?}");
        // The stream went out as STREAM frames and is kept nowhere else.
        let kept = core.kernel().records().find(|r| !r.output.is_empty());
        assert!(kept.is_none(), "a served record kept its output: {kept:?}");
        let sessions = ((EPOCHS - WARM_UP) * SESSIONS_PER_EPOCH) as isize;
        let per_session = (live_bytes() - warm) as f64 / sessions as f64;
        // Un-reaped, a zombie is its record: the `ProcessRecord` in its
        // table slot and its name.
        let allowed = if reap { 16.0 } else { 320.0 };
        eprintln!("reap {reap}: {per_session:.1} B per exited session");
        assert!(
            per_session <= allowed,
            "reap {reap}: {per_session:.1} B per exited session (> {allowed})"
        );
    }
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
    // remembers none, so reaped sessions leave the heap where it was. The
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
        assert!(!core.take_output(conn).is_empty());
        let failed = core.kernel().records().find(|r| !r.status.is_ok());
        assert!(failed.is_none(), "session {session} failed: {failed:?}");
        assert_eq!(core.reap_exited(), 1);
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
    // Pairwise-distinct admissible sources, each served to completion and
    // reaped: the cache holds the last `cap` of them and nothing else grows.
    let mut warm = 0;
    for i in 0..10_000u64 {
        let source = format!("emit(\"program {i}\");\n");
        submit(&mut core, conn, 1 + i, 0, &source, "");
        core.pump();
        core.take_output(conn);
        core.reap_exited();
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
