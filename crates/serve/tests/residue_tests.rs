//! What a served session leaves behind on the heap, counted.
//!
//! A server that stays up must not grow with every program it ever served.
//! Three leaks of that kind were each found by hand, with a counting
//! allocator bolted on for the occasion; this file keeps the allocator in
//! the tree, so the next one is found by a test. It serves epochs of agent
//! and RAG-reader sessions through a [`ServerCore`] and bounds the growth of
//! the live heap per exited session: a zombie's worth — its record —
//! beyond the output bytes when nobody reaps, and nothing when somebody
//! does. The door's image cache gets the same treatment.
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
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged and its answer
// handed back unchanged; the counter beside it is a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|live| live.set(live.get() + layout.size() as isize));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|live| live.set(live.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|live| live.set(live.get() + new_size as isize - layout.size() as isize));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
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
/// 200 µs apart — to completion, and takes the output off the wire.
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
        let mut warm = (0, 0);
        for epoch in 0..EPOCHS {
            serve_epoch(&mut core, conn, epoch);
            if reap {
                assert_eq!(core.reap_exited(), SESSIONS_PER_EPOCH as usize);
            }
            if epoch + 1 == WARM_UP {
                let output: usize = core.kernel().records().map(|r| r.output.len()).sum();
                warm = (live_bytes(), output as isize);
            }
        }
        let failed = core.kernel().records().find(|r| !r.status.is_ok());
        assert!(failed.is_none(), "a session failed: {failed:?}");
        let output: usize = core.kernel().records().map(|r| r.output.len()).sum();
        let sessions = ((EPOCHS - WARM_UP) * SESSIONS_PER_EPOCH) as isize;
        let grown = live_bytes() - warm.0 - (output as isize - warm.1);
        let per_session = grown as f64 / sessions as f64;
        let allowed = if reap { 16.0 } else { 512.0 };
        eprintln!("reap {reap}: {per_session:.1} B per exited session beyond its output");
        assert!(
            per_session <= allowed,
            "reap {reap}: {per_session:.1} B per exited session beyond its output (> {allowed})"
        );
    }
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
