//! What the default tokenizer allocates when a process first asks for it.
//!
//! `build.rs` lays the default vocabulary out as static tables, which
//! `Bpe::default_tokenizer` borrows, so its first call allocates the encode
//! memo (its set heads and its slots) and nothing else; expanding the merge
//! list at run time took more than 1 400 allocations, one per token. A
//! counting allocator counts this thread's allocations around the call.
//! The file holds one test, so nothing else in the process asks first.
//!
//! The same test then counts `Bpe::decode`, which the kernel calls once for
//! every token it emits: one allocation, the string's, however many tokens
//! it joins (a one-token decode made 2 and a 7-token one 5 while the bytes
//! were gathered in a growing buffer and then copied into the string).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symphony_tokenizer::Bpe;

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

/// The memo's allocations: its set heads and its zeroed slots.
const MEMO_ALLOCATIONS: usize = 2;

#[test]
fn the_first_default_tokenizer_allocates_only_its_memo() {
    let before = ALLOCATIONS.with(Cell::get);
    let bpe = Bpe::default_tokenizer();
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        made <= MEMO_ALLOCATIONS,
        "the first default_tokenizer() made {made} allocations, its memo needs {MEMO_ALLOCATIONS}"
    );
    // The borrowed tables are the vocabulary: 1 144 merges, and text
    // round-trips.
    assert_eq!(bpe.vocab().len(), 256 + 1144 + 5);
    let text = "retrieval augmented generation";
    assert_eq!(bpe.decode(&bpe.encode(text)), text);

    let tokens = bpe.encode(&"the rain in spain ".repeat(4));
    for n in [1, 7] {
        let before = ALLOCATIONS.with(Cell::get);
        let decoded = bpe.decode(&tokens[..n]);
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(made, 1, "a {n}-token decode made {made} allocations");
        assert!(!decoded.is_empty());
    }
}
