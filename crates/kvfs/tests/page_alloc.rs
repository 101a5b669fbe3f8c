//! What a KV file's life allocates once the page pool has grown.
//!
//! Every page's entries live in one arena the pool owns, so allocating,
//! filling, copying and freeing a page reuse a row of it: a file of 64
//! pages costs the heap what a file of 4 does, apart from its page list
//! (which may double a few more times). While each page was its own
//! `Vec`, every page allocated once more. A counting allocator counts
//! this thread's allocations around one cycle of create, append, fork,
//! copy-on-write, truncate, swap out and in, and remove.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symphony_kvfs::{KvEntry, KvStore, KvStoreConfig, OwnerId};
use symphony_model::CtxFingerprint;

thread_local! {
    /// Allocations this thread has made. `const`-initialised and without
    /// a destructor, so counting allocates nothing.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged and its answer
// handed back unchanged; the counter beside it is a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract is `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` or `alloc_zeroed` above, that is
        // from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const OWNER: OwnerId = OwnerId(1);
const PAGE_TOKENS: usize = 16;

/// Allocations a 64-page cycle may make beyond a 4-page one: the page
/// lists of the file and its fork grow by doubling.
const PAGE_LIST_GROWTH: usize = 8;

fn entries(n: usize) -> Vec<KvEntry> {
    (0..n as u32)
        .map(|i| KvEntry::new(i, i, CtxFingerprint(u64::from(i) * 31)))
        .collect()
}

/// Allocations made by one file's life: `pages` pages, the last half
/// full, so the fork's append copies the shared tail and the truncation
/// copies the shared boundary page.
fn cycle(store: &mut KvStore, pages: usize) -> usize {
    let content = entries(pages * PAGE_TOKENS - PAGE_TOKENS / 2);
    let more = entries(1);
    let before = ALLOCATIONS.with(Cell::get);
    let f = store.create(OWNER).unwrap();
    store.append(f, OWNER, &content).unwrap();
    let g = store.fork(f, OWNER).unwrap();
    store.append(g, OWNER, &more).unwrap();
    store.truncate(f, OWNER, content.len() / 2 + 1).unwrap();
    store.swap_out(f, OWNER).unwrap();
    store.swap_in(f, OWNER).unwrap();
    store.remove(g, OWNER).unwrap();
    store.remove(f, OWNER).unwrap();
    let made = ALLOCATIONS.with(Cell::get) - before;
    store.verify().unwrap();
    made
}

/// A 4-page and a 64-page cycle's allocations on a store grown to a
/// 64-page cycle's size — its arena, slot table, free list and, when
/// `tracked`, the dirty bitmap change tracking keeps beside them.
fn small_and_large_cycles(tracked: bool) -> (usize, usize) {
    let mut store = KvStore::new(KvStoreConfig {
        page_tokens: PAGE_TOKENS,
        gpu_pages: 256,
        cpu_pages: 256,
        disk_pages: 0,
        bytes_per_token: 1,
    });
    if tracked {
        store.track_changes();
    }
    cycle(&mut store, 64);
    let small = cycle(&mut store, 4);
    let large = cycle(&mut store, 64);
    assert_eq!(store.live_pages(), 0);
    (small, large)
}

#[test]
fn a_files_pages_cost_the_heap_nothing_once_the_pool_has_grown() {
    let (small, large) = small_and_large_cycles(false);
    assert!(
        large <= small + PAGE_LIST_GROWTH,
        "a 64-page cycle made {large} allocations, a 4-page one {small}"
    );
}

/// With change tracking on, as in every kernel with a WAL, a page marked
/// dirty sets a bit of a bitmap the pool has already grown: a file's life
/// still costs no allocation per page. While the dirty set was an ordered
/// set of page ids, every page marked was a node of it.
#[test]
fn a_tracked_files_pages_cost_the_heap_nothing_once_the_pool_has_grown() {
    let (small, large) = small_and_large_cycles(true);
    assert!(
        large <= small + PAGE_LIST_GROWTH,
        "tracked: a 64-page cycle made {large} allocations, a 4-page one {small}"
    );
}

/// A drain encodes the store's changes straight into the log's buffer:
/// each page's row is lent from the arena, and no record list is built.
/// A freshly appended and linked 64-page file drains in at most one
/// allocation per page; copying every page's entries into a record of its
/// own made 535.
#[test]
fn a_drain_allocates_at_most_once_per_drained_page() {
    const PAGES: usize = 64;
    let mut store = KvStore::new(KvStoreConfig {
        page_tokens: PAGE_TOKENS,
        gpu_pages: 256,
        cpu_pages: 0,
        disk_pages: 0,
        bytes_per_token: 1,
    });
    store.track_changes();
    let f = store.create(OWNER).unwrap();
    store.append(f, OWNER, &entries(PAGES * PAGE_TOKENS)).unwrap();
    store.link(f, "doc.kv", OWNER).unwrap();
    let mut log = Vec::new();
    let before = ALLOCATIONS.with(Cell::get);
    assert!(store.drain_changes(&mut log));
    let made = ALLOCATIONS.with(Cell::get) - before;
    println!("draining {PAGES} pages made {made} allocations, {} bytes", log.len());
    assert!(made <= PAGES, "draining {PAGES} pages made {made} allocations");
    assert!(!store.drain_changes(&mut log), "nothing changed since");
}
