//! Model-based property tests for the KV store.
//!
//! A shadow model (`Vec<KvEntry>` per live file) tracks the expected contents
//! while random operation sequences run against the real store. After every
//! operation the store's internal invariants ([`KvStore::verify`]) must hold
//! and the contents must match the shadow — including across copy-on-write
//! forks, truncation, extraction, merging and tier migration. `verify`
//! covers the tier accounting (`used = resident + backing copies`), so the
//! random swap/append/truncate/fork/remove mix also checks that backing
//! copies are conserved; `Bounce` and `MutateBounced` pin what a backing
//! copy buys (a free eviction) and what ends it (any content mutation).
//! Pages are rows of one arena that a freed page leaves as it was, so
//! `Refill` writes freed rows again; every appended token is unique, so a
//! stale entry showing through a reused row fails the contents check.
//!
//! A page keeps only its tokens and its first entry's position and
//! fingerprint while its entries are one chain, and exact rows in a side
//! table once they are not. So appends continue each file's chain
//! (`Append`, `AppendChain`), or break it mid-append with a skipped
//! position or a fingerprint of the caller's own; `Extract` takes several
//! ranges and `Merge` joins files, both seams of two chains. Every read
//! the store answers — whole files, windows of them, the tail fingerprint
//! and the next position — is checked against the full entries the shadow
//! holds after every operation, and `verify` checks the side table's rows.
//!
//! `Evict` runs the kernel's eviction hook with some files excluded, as
//! the kernel excludes those of pending reads: the victim must be the
//! LRU-2 choice among the eligible files, the excluded files keep every
//! GPU page they had, and the reads after it find every file's contents
//! unchanged.

use std::collections::BTreeMap;

use proptest::prelude::*;
use symphony_kvfs::{FileId, KvEntry, KvError, KvStore, KvStoreConfig, OwnerId};
use symphony_model::CtxFingerprint;

#[derive(Debug, Clone)]
enum Op {
    Create,
    /// `count` entries continuing the file's chain, broken at `at` as
    /// `seam` says.
    Append {
        file: usize,
        count: usize,
        seam: Seam,
        at: usize,
    },
    /// `count` tokens the store chains on itself.
    AppendChain {
        file: usize,
        count: usize,
    },
    Fork {
        file: usize,
    },
    Remove {
        file: usize,
    },
    Truncate {
        file: usize,
        frac: f64,
    },
    /// The ranges between cut points (each a fraction of the file), taken
    /// in ascending pairs: one range is a chain, two or more join.
    Extract {
        file: usize,
        cuts: Vec<f64>,
    },
    Merge {
        a: usize,
        b: usize,
    },
    SwapOut {
        file: usize,
    },
    SwapIn {
        file: usize,
    },
    Demote {
        file: usize,
    },
    /// Out, in, out again: the second eviction finds every page backed.
    Bounce {
        file: usize,
    },
    /// Out, in, append, out: only the pages the append touched move.
    MutateBounced {
        file: usize,
        count: usize,
    },
    /// Remove a file, then create one and append: the new pages take the
    /// freed slots and write their rows again.
    Refill {
        file: usize,
        count: usize,
    },
    /// `evict_lru` with the picked files excluded, as the kernel excludes
    /// those of pending reads.
    Evict {
        exclude: Vec<usize>,
    },
}

/// How an append departs from the file's chain.
#[derive(Debug, Clone, Copy)]
enum Seam {
    /// It does not: every entry is the chain's next step.
    None,
    /// The entry at `at` skips a position; the chain goes on from there.
    Gap,
    /// Entries from `at` on carry fingerprints of the caller's own.
    Foreign,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let seam = prop_oneof![
        3 => Just(Seam::None),
        1 => Just(Seam::Gap),
        1 => Just(Seam::Foreign),
    ];
    prop_oneof![
        2 => Just(Op::Create),
        6 => (0usize..8, 1usize..40, seam, 0usize..40)
            .prop_map(|(file, count, seam, at)| Op::Append { file, count, seam, at }),
        2 => (0usize..8, 1usize..40).prop_map(|(file, count)| Op::AppendChain { file, count }),
        3 => (0usize..8).prop_map(|file| Op::Fork { file }),
        2 => (0usize..8).prop_map(|file| Op::Remove { file }),
        2 => (0usize..8, 0.0f64..1.0).prop_map(|(file, frac)| Op::Truncate { file, frac }),
        3 => (0usize..8, proptest::collection::vec(0.0f64..1.0, 2..7))
            .prop_map(|(file, cuts)| Op::Extract { file, cuts }),
        2 => (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Merge { a, b }),
        1 => (0usize..8).prop_map(|file| Op::SwapOut { file }),
        1 => (0usize..8).prop_map(|file| Op::SwapIn { file }),
        1 => (0usize..8).prop_map(|file| Op::Demote { file }),
        2 => (0usize..8).prop_map(|file| Op::Bounce { file }),
        2 => (0usize..8, 1usize..7).prop_map(|(file, count)| Op::MutateBounced { file, count }),
        2 => (0usize..8, 1usize..40).prop_map(|(file, count)| Op::Refill { file, count }),
        2 => proptest::collection::vec(0usize..8, 0..3).prop_map(|exclude| Op::Evict { exclude }),
    ]
}

fn entry(i: u32) -> KvEntry {
    KvEntry::new(i, i, CtxFingerprint(0x1234_5678_u64 ^ i as u64))
}

/// Where every file's chain starts.
const ORIGIN: CtxFingerprint = CtxFingerprint(0x0516_1a2b);

/// `count` entries of tokens `first..` after `have`: the chain continued
/// from its last entry (from [`ORIGIN`] before position 0), apart from
/// the `seam` at index `at`.
fn continue_chain(
    have: &[KvEntry],
    first: u32,
    count: usize,
    seam: Seam,
    at: usize,
) -> Vec<KvEntry> {
    let (mut position, mut fp) = match have.last() {
        Some(e) => (e.position + 1, e.fingerprint),
        None => (0, ORIGIN),
    };
    (0..count)
        .map(|i| {
            let token = first + i as u32;
            match seam {
                Seam::Gap if i == at => position += 5,
                Seam::Foreign if i >= at => return entry(token),
                _ => {}
            }
            fp = fp.then(token, position);
            position += 1;
            KvEntry::new(token, position - 1, fp)
        })
        .collect()
}

/// The store's GPU tier, in pages. Merges and multi-range extracts can
/// fill it, so a write that needs pages may be refused.
const GPU_PAGES: usize = 256;

/// The store's disk tier, in pages: the last place an eviction spills to.
const DISK_PAGES: usize = 256;

/// The result of a write that needs GPU pages: it must succeed when `room`
/// says the tier has the pages it needs, and otherwise be refused with
/// `NoGpuMemory`. Every write checks capacity before it changes anything;
/// the reads after the operation check that a refused one did not.
fn needs_room<T: std::fmt::Debug>(
    room: bool,
    r: Result<T, KvError>,
) -> Result<Option<T>, TestCaseError> {
    match r {
        Ok(v) if room => Ok(Some(v)),
        Err(KvError::NoGpuMemory) if !room => Ok(None),
        r => Err(TestCaseError::fail(format!(
            "room for the write {room}, but {r:?}"
        ))),
    }
}

/// Swaps `f` into the GPU tier before a write to it (appending to a
/// CPU-resident partial tail is an expected error). `false` only when the
/// tier is full; the write is not tried then.
fn swap_in_to_write(store: &mut KvStore, f: FileId) -> Result<bool, TestCaseError> {
    if store.swap_in(f, OwnerId(1)).is_ok() {
        return Ok(true);
    }
    prop_assert_eq!(store.gpu_pages_used(), GPU_PAGES);
    Ok(false)
}

/// Every read the store answers about `f`, against its full entries.
fn check_reads(store: &mut KvStore, f: FileId, expected: &[KvEntry]) -> Result<(), TestCaseError> {
    let owner = OwnerId(1);
    prop_assert_eq!(
        &store.read_all_unchecked(f).unwrap(),
        expected,
        "file {}",
        f.0
    );
    for start in (0..expected.len()).step_by(3) {
        let count = (expected.len() - start).min(7);
        prop_assert_eq!(
            &store.read(f, owner, start, count).unwrap(),
            &expected[start..start + count]
        );
    }
    prop_assert_eq!(
        store.tail_fingerprint(f).unwrap(),
        expected.last().map(|e| e.fingerprint)
    );
    prop_assert_eq!(
        store.next_position(f).unwrap(),
        expected.last().map_or(0, |e| e.position + 1)
    );
    Ok(())
}

/// The file [`KvStore::evict_lru`] must pick: among files that are not
/// pinned, locked or excluded and would free a GPU page the excluded files
/// do not reference, the one whose access before the last is oldest
/// (LRU-2), then whose last access is, then the lowest id.
fn lru2_victim(
    store: &KvStore,
    model: &BTreeMap<u64, Vec<KvEntry>>,
    exclude: &[FileId],
) -> Option<FileId> {
    model
        .keys()
        .map(|&id| (FileId(id), store.stat(FileId(id)).unwrap()))
        .filter(|(f, st)| {
            !st.pinned
                && st.locked_by.is_none()
                && !exclude.contains(f)
                && store.movable_gpu_pages(*f, exclude) > 0
        })
        .min_by_key(|(f, st)| (st.prev_access, st.last_access, f.0))
        .map(|(f, _)| f)
}

/// Picks the `idx`-th live file (wrapping), if any.
fn pick(model: &BTreeMap<u64, Vec<KvEntry>>, idx: usize) -> Option<FileId> {
    if model.is_empty() {
        return None;
    }
    let keys: Vec<u64> = model.keys().copied().collect();
    Some(FileId(keys[idx % keys.len()]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    ))]

    #[test]
    fn store_matches_shadow_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let owner = OwnerId(1);
        let mut store = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: GPU_PAGES,
            // A tight DRAM tier so swap-out exercises the disk spill path.
            cpu_pages: 8,
            disk_pages: DISK_PAGES,
            bytes_per_token: 1,
        });
        let mut model: BTreeMap<u64, Vec<KvEntry>> = BTreeMap::new();
        let mut next_token = 0u32;

        for op in ops {
            match op {
                Op::Create => {
                    let f = store.create(owner).unwrap();
                    model.insert(f.0, Vec::new());
                }
                Op::Append { file, count, seam, at } => {
                    if let Some(f) = pick(&model, file) {
                        let new = continue_chain(&model[&f.0], next_token, count, seam, at);
                        next_token += count as u32;
                        if swap_in_to_write(&mut store, f)? {
                            let room = store.can_append(f, count).unwrap();
                            if needs_room(room, store.append(f, owner, &new))?.is_some() {
                                model.get_mut(&f.0).unwrap().extend(new);
                            }
                        }
                    }
                }
                Op::AppendChain { file, count } => {
                    if let Some(f) = pick(&model, file) {
                        let new = continue_chain(&model[&f.0], next_token, count, Seam::None, 0);
                        let tokens: Vec<u32> = new.iter().map(|e| e.token).collect();
                        next_token += count as u32;
                        if swap_in_to_write(&mut store, f)? {
                            let room = store.can_append(f, count).unwrap();
                            let r = store.append_chain(f, owner, &tokens, ORIGIN);
                            if needs_room(room, r)?.is_some() {
                                model.get_mut(&f.0).unwrap().extend(new);
                            }
                        }
                    }
                }
                Op::Fork { file } => {
                    if let Some(f) = pick(&model, file) {
                        let g = store.fork(f, owner).unwrap();
                        let contents = model[&f.0].clone();
                        model.insert(g.0, contents);
                    }
                }
                Op::Remove { file } => {
                    if let Some(f) = pick(&model, file) {
                        store.remove(f, owner).unwrap();
                        model.remove(&f.0);
                    }
                }
                Op::Truncate { file, frac } => {
                    if let Some(f) = pick(&model, file) {
                        let len = model[&f.0].len();
                        let new_len = (len as f64 * frac) as usize;
                        let _ = store.swap_in(f, owner);
                        // It needs a page only to copy a shared boundary
                        // page, so with one free it must succeed.
                        let full = store.gpu_pages_used() == GPU_PAGES;
                        match store.truncate(f, owner, new_len) {
                            Ok(()) => model.get_mut(&f.0).unwrap().truncate(new_len),
                            Err(KvError::NoGpuMemory) if full => {}
                            Err(e) => return Err(TestCaseError::fail(format!("truncate: {e:?}"))),
                        }
                    }
                }
                Op::Extract { file, cuts } => {
                    if let Some(f) = pick(&model, file) {
                        let len = model[&f.0].len();
                        let mut at: Vec<usize> = cuts.iter().map(|c| (len as f64 * c) as usize).collect();
                        at.sort_unstable();
                        let ranges: Vec<_> = at.chunks_exact(2).map(|w| w[0]..w[1]).collect();
                        let picked: Vec<KvEntry> = ranges
                            .iter()
                            .flat_map(|r| model[&f.0][r.clone()].iter().copied())
                            .collect();
                        if !picked.is_empty() {
                            let room = store.gpu_pages_used() + picked.len().div_ceil(4) <= GPU_PAGES;
                            if let Some(g) = needs_room(room, store.extract(f, owner, &ranges))? {
                                model.insert(g.0, picked);
                            }
                        }
                    }
                }
                Op::Merge { a, b } => {
                    if let (Some(fa), Some(fb)) = (pick(&model, a), pick(&model, b)) {
                        let mut joined = model[&fa.0].clone();
                        joined.extend(model[&fb.0].iter().copied());
                        if !joined.is_empty() {
                            let room = store.gpu_pages_used() + joined.len().div_ceil(4) <= GPU_PAGES;
                            if let Some(g) = needs_room(room, store.merge(&[fa, fb], owner))? {
                                model.insert(g.0, joined);
                            }
                        }
                    }
                }
                Op::SwapOut { file } => {
                    if let Some(f) = pick(&model, file) {
                        // May fail if shared pages already moved; both fine.
                        let _ = store.swap_out(f, owner);
                    }
                }
                Op::SwapIn { file } => {
                    if let Some(f) = pick(&model, file) {
                        let _ = store.swap_in(f, owner);
                    }
                }
                Op::Demote { file } => {
                    if let Some(f) = pick(&model, file) {
                        // May fail only if the disk tier fills; both fine.
                        let _ = store.demote_to_disk(f, owner);
                    }
                }
                Op::Bounce { file } => {
                    if let Some(f) = pick(&model, file) {
                        if store.swap_out(f, owner).is_ok() && store.swap_in(f, owner).is_ok() {
                            // Every page just came up from a lower tier and
                            // nothing touched it: evicting is free, and the
                            // contents check below reads the same bytes back.
                            let before = store.stats();
                            let again = store.swap_out(f, owner).unwrap();
                            prop_assert_eq!(again.total(), 0);
                            prop_assert_eq!(again.dropped_tokens, model[&f.0].len());
                            let after = store.stats();
                            prop_assert_eq!(after.swapped_out_tokens, before.swapped_out_tokens);
                            prop_assert_eq!(
                                after.clean_dropped_tokens - before.clean_dropped_tokens,
                                again.dropped_tokens as u64
                            );
                        }
                    }
                }
                Op::MutateBounced { file, count } => {
                    if let Some(f) = pick(&model, file) {
                        if store.swap_out(f, owner).is_ok() && store.swap_in(f, owner).is_ok() {
                            let old_len = model[&f.0].len();
                            let new: Vec<KvEntry> =
                                (0..count as u32).map(|i| entry(next_token + i)).collect();
                            next_token += count as u32;
                            let room = store.can_append(f, count).unwrap();
                            if needs_room(room, store.append(f, owner, &new))?.is_some() {
                                model.get_mut(&f.0).unwrap().extend(new);
                                // The append rewrote the partial tail page
                                // (if any) and added pages; exactly those
                                // lost their backing copy and have to move.
                                let touched = old_len % 4 + count;
                                let out = store.swap_out(f, owner).unwrap();
                                prop_assert_eq!(out.total(), touched);
                                prop_assert_eq!(out.dropped_tokens, old_len - old_len % 4);
                            }
                        }
                    }
                }
                Op::Refill { file, count } => {
                    if let Some(f) = pick(&model, file) {
                        store.remove(f, owner).unwrap();
                        model.remove(&f.0);
                        let g = store.create(owner).unwrap();
                        let new: Vec<KvEntry> =
                            (0..count as u32).map(|i| entry(next_token + i)).collect();
                        next_token += count as u32;
                        store.append(g, owner, &new).unwrap();
                        model.insert(g.0, new);
                    }
                }
                Op::Evict { exclude } => {
                    let exclude: Vec<FileId> =
                        exclude.iter().filter_map(|&i| pick(&model, i)).collect();
                    let expected = lru2_victim(&store, &model, &exclude);
                    let off_before: Vec<usize> =
                        exclude.iter().map(|&f| store.pages_off_gpu(f).unwrap()).collect();
                    match store.evict_lru(&exclude) {
                        Some((victim, _)) => prop_assert_eq!(Some(victim), expected),
                        // The victim's pages had nowhere to go.
                        None if expected.is_some() => {
                            prop_assert_eq!(store.disk_pages_used(), DISK_PAGES)
                        }
                        None => {}
                    }
                    for (&f, before) in exclude.iter().zip(off_before) {
                        prop_assert_eq!(store.pages_off_gpu(f).unwrap(), before, "file {}", f.0);
                    }
                }
            }

            // Invariants after every operation.
            store.verify().unwrap();
            for (&id, expected) in &model {
                check_reads(&mut store, FileId(id), expected)?;
            }
        }

        // Tear everything down: the pool must drain to zero.
        let ids: Vec<u64> = model.keys().copied().collect();
        for id in ids {
            store.remove(FileId(id), owner).unwrap();
        }
        store.verify().unwrap();
        prop_assert_eq!(store.gpu_pages_used(), 0);
        prop_assert_eq!(store.cpu_pages_used(), 0);
        prop_assert_eq!(store.disk_pages_used(), 0);
        prop_assert_eq!(store.live_pages(), 0);
    }
}
