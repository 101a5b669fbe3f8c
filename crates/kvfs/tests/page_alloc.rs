//! What a KV file's life allocates once the page pool has grown, and what
//! its pages cost the pool.
//!
//! Every page's tokens live in one arena the pool owns, so allocating,
//! filling, copying and freeing a page reuse a row of it: a file of 64
//! pages costs the heap what a file of 4 does, apart from its page list
//! (which may double a few more times). While each page was its own
//! `Vec`, every page allocated once more. A counting allocator counts
//! this thread's allocations around one cycle of create, append, fork,
//! copy-on-write, truncate, swap out and in, and remove; the cycle's
//! entries carry fingerprints of their own, so every page keeps the side
//! table's exact rows as well. The same allocator keeps this thread's
//! live heap bytes, which price a chain file's page.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symphony_kvfs::{KvEntry, KvStore, KvStoreConfig, OwnerId};
use symphony_model::{CtxFingerprint, Fingerprinter};

thread_local! {
    /// Allocations this thread has made. `const`-initialised and without
    /// a destructor, so counting allocates nothing.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed, likewise.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(allocated: usize, freed: usize) {
    LIVE.with(|n| n.set(n.get() + allocated as isize - freed as isize));
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged and its answer
// handed back unchanged; the counter beside it is a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        count(layout.size(), 0);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        count(layout.size(), 0);
        // SAFETY: the caller's contract is `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from `alloc` or `alloc_zeroed` above, that is
        // from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        count(new_size, layout.size());
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

/// A page whose entries are one fingerprint chain keeps its 16 tokens at
/// 4 bytes each, a 16-byte head (its first entry's position and
/// fingerprint) and its 12-byte slot: a 512-page chain file adds 95 bytes
/// of live heap a page, its page list's 4 included (the warm-up's slot is
/// already there). While the pool kept every entry as a 16-byte
/// `KvEntry`, it added 271.
#[test]
fn a_chain_files_pages_cost_the_pool_at_most_100_bytes_each() {
    const PAGES: usize = 512;
    let mut store = KvStore::new(KvStoreConfig {
        page_tokens: PAGE_TOKENS,
        gpu_pages: PAGES,
        cpu_pages: 0,
        disk_pages: 0,
        bytes_per_token: 1,
    });
    let fpr = Fingerprinter::new(1);
    let mut fp = fpr.origin();
    let chain: Vec<KvEntry> = (0..(PAGES * PAGE_TOKENS) as u32)
        .map(|i| {
            fp = fpr.advance(fp, i % 5_000, i);
            KvEntry::new(i % 5_000, i, fp)
        })
        .collect();
    // The owner's quota record, made once, is not a page's.
    let warm = store.create(OWNER).unwrap();
    store.append(warm, OWNER, &chain[..1]).unwrap();
    store.remove(warm, OWNER).unwrap();
    let f = store.create(OWNER).unwrap();
    let before = LIVE.with(Cell::get);
    store.append(f, OWNER, &chain).unwrap();
    let per_page = (LIVE.with(Cell::get) - before) as usize / PAGES;
    println!("a {PAGES}-page chain file: {per_page} B of live heap a page");
    assert!(per_page <= 100, "{per_page} B a page");
    assert_eq!(store.irregular_pages_peak(), 0);
    assert_eq!(store.read_all_unchecked(f).unwrap(), chain);
    store.verify().unwrap();
}
