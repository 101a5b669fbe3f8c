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

use std::collections::BTreeMap;

use proptest::prelude::*;
use symphony_kvfs::{FileId, KvEntry, KvStore, KvStoreConfig, OwnerId};
use symphony_model::CtxFingerprint;

#[derive(Debug, Clone)]
enum Op {
    Create,
    Append { file: usize, count: usize },
    Fork { file: usize },
    Remove { file: usize },
    Truncate { file: usize, frac: f64 },
    Extract { file: usize, a: f64, b: f64 },
    Merge { a: usize, b: usize },
    SwapOut { file: usize },
    SwapIn { file: usize },
    Demote { file: usize },
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
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Create),
        6 => (0usize..8, 1usize..40).prop_map(|(file, count)| Op::Append { file, count }),
        3 => (0usize..8).prop_map(|file| Op::Fork { file }),
        2 => (0usize..8).prop_map(|file| Op::Remove { file }),
        2 => (0usize..8, 0.0f64..1.0).prop_map(|(file, frac)| Op::Truncate { file, frac }),
        2 => (0usize..8, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(file, a, b)| Op::Extract { file, a, b }),
        2 => (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Merge { a, b }),
        1 => (0usize..8).prop_map(|file| Op::SwapOut { file }),
        1 => (0usize..8).prop_map(|file| Op::SwapIn { file }),
        1 => (0usize..8).prop_map(|file| Op::Demote { file }),
        2 => (0usize..8).prop_map(|file| Op::Bounce { file }),
        2 => (0usize..8, 1usize..7).prop_map(|(file, count)| Op::MutateBounced { file, count }),
        2 => (0usize..8, 1usize..40).prop_map(|(file, count)| Op::Refill { file, count }),
    ]
}

fn entry(i: u32) -> KvEntry {
    KvEntry::new(i, i, CtxFingerprint(0x1234_5678_u64 ^ i as u64))
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
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_matches_shadow_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let owner = OwnerId(1);
        let mut store = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 256,
            // A tight DRAM tier so swap-out exercises the disk spill path.
            cpu_pages: 8,
            disk_pages: 256,
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
                Op::Append { file, count } => {
                    if let Some(f) = pick(&model, file) {
                        let new: Vec<KvEntry> =
                            (0..count as u32).map(|i| entry(next_token + i)).collect();
                        next_token += count as u32;
                        // Appending to a CPU-resident partial tail is an
                        // expected error; swap in first to keep the op alive.
                        let _ = store.swap_in(f, owner);
                        store.append(f, owner, &new).unwrap();
                        model.get_mut(&f.0).unwrap().extend(new);
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
                        store.truncate(f, owner, new_len).unwrap();
                        model.get_mut(&f.0).unwrap().truncate(new_len);
                    }
                }
                Op::Extract { file, a, b } => {
                    if let Some(f) = pick(&model, file) {
                        let len = model[&f.0].len();
                        let (mut lo, mut hi) =
                            ((len as f64 * a) as usize, (len as f64 * b) as usize);
                        if lo > hi {
                            std::mem::swap(&mut lo, &mut hi);
                        }
                        if lo < hi {
                            let g = store.extract(f, owner, std::slice::from_ref(&(lo..hi))).unwrap();
                            model.insert(g.0, model[&f.0][lo..hi].to_vec());
                        }
                    }
                }
                Op::Merge { a, b } => {
                    if let (Some(fa), Some(fb)) = (pick(&model, a), pick(&model, b)) {
                        if !model[&fa.0].is_empty() || !model[&fb.0].is_empty() {
                            let g = store.merge(&[fa, fb], owner).unwrap();
                            let mut joined = model[&fa.0].clone();
                            joined.extend(model[&fb.0].iter().copied());
                            model.insert(g.0, joined);
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
                            store.append(f, owner, &new).unwrap();
                            model.get_mut(&f.0).unwrap().extend(new);
                            // The append rewrote the partial tail page (if
                            // any) and added pages; exactly those lost
                            // their backing copy and have to move.
                            let touched = old_len % 4 + count;
                            let out = store.swap_out(f, owner).unwrap();
                            prop_assert_eq!(out.total(), touched);
                            prop_assert_eq!(out.dropped_tokens, old_len - old_len % 4);
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
            }

            // Invariants after every operation.
            store.verify().unwrap();
            for (&id, expected) in &model {
                let got = store.read_all_unchecked(FileId(id)).unwrap();
                prop_assert_eq!(&got, expected, "file {} contents diverged", id);
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
