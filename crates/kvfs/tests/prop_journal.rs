//! Property tests for the KV store's batches.
//!
//! Three families:
//!
//! 1. **Round trip** — a random operation sequence (creates, appends,
//!    copy-on-write forks, truncates, removes, links, pins, tier moves,
//!    quotas) runs against a store, the store is snapshotted to one batch,
//!    and the restore must reproduce the *observable* state exactly —
//!    including CoW page sharing (same pool usage, not deep copies), pins,
//!    locks, namespace, and the snapshot's own byte-identity fixed point.
//! 2. **Torn tail chaos** — a snapshot followed by delta batches is cut at
//!    every possible length; replay must never panic, must flag a cut
//!    batch with the typed `KvError::JournalTorn` detail, and must restore
//!    exactly the state the last complete batch described: the store the
//!    ops so far built, less the unlinked files no batch describes.
//! 3. **Delta equivalence** — the same op sequence run against a store
//!    that tracks its changes, drained in batches through the production
//!    `KvStore::drain_changes`, must restore to the same observable state
//!    as the live store's linked files (no op creates a file for the
//!    admin).

use proptest::prelude::*;
use symphony_kvfs::journal;
use symphony_kvfs::{FileId, KvEntry, KvError, KvStore, KvStoreConfig, OwnerId, RestoreReport};
use symphony_model::CtxFingerprint;
use symphony_telemetry::MetricsRegistry;

#[derive(Debug, Clone)]
enum Op {
    Create { owner: u64 },
    Append { file: usize, count: usize },
    Fork { file: usize, owner: u64 },
    Remove { file: usize },
    Truncate { file: usize, frac: f64 },
    Link { file: usize, path: u8 },
    Unlink { path: u8 },
    Pin { file: usize },
    SwapOut { file: usize },
    Demote { file: usize },
    Lock { file: usize },
    Quota { owner: u64, limit: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u64..4).prop_map(|owner| Op::Create { owner }),
        6 => (0usize..8, 1usize..12).prop_map(|(file, count)| Op::Append { file, count }),
        3 => (0usize..8, 1u64..4).prop_map(|(file, owner)| Op::Fork { file, owner }),
        2 => (0usize..8).prop_map(|file| Op::Remove { file }),
        2 => (0usize..8, 0.0f64..1.0).prop_map(|(file, frac)| Op::Truncate { file, frac }),
        2 => (0usize..8, 0u8..6).prop_map(|(file, path)| Op::Link { file, path }),
        1 => (0u8..6).prop_map(|path| Op::Unlink { path }),
        2 => (0usize..8).prop_map(|file| Op::Pin { file }),
        2 => (0usize..8).prop_map(|file| Op::SwapOut { file }),
        2 => (0usize..8).prop_map(|file| Op::Demote { file }),
        1 => (0usize..8).prop_map(|file| Op::Lock { file }),
        1 => (1u64..4, 1usize..64).prop_map(|(owner, limit)| Op::Quota { owner, limit }),
    ]
}

fn entry(i: u32) -> KvEntry {
    KvEntry::new(i, i, CtxFingerprint(0x9e37_79b9_u64 ^ i as u64))
}

fn config() -> KvStoreConfig {
    KvStoreConfig {
        page_tokens: 4,
        gpu_pages: 256,
        cpu_pages: 8,
        disk_pages: 256,
        bytes_per_token: 1,
    }
}

/// Applies one op to `store`, maintaining the live-file list and token
/// counter exactly the way [`build_store`] does.
fn apply_op(store: &mut KvStore, live: &mut Vec<FileId>, next_token: &mut u32, op: &Op) {
    let admin = OwnerId::ADMIN;
    match *op {
        Op::Create { owner } => {
            if let Ok(f) = store.create(OwnerId(owner)) {
                live.push(f);
            }
        }
        Op::Append { file, count } => {
            if let Some(&f) = live.get(file % live.len().max(1)) {
                let new: Vec<KvEntry> =
                    (0..count as u32).map(|i| entry(*next_token + i)).collect();
                *next_token += count as u32;
                let _ = store.swap_in(f, admin);
                let _ = store.append(f, admin, &new);
            }
        }
        Op::Fork { file, owner } => {
            if let Some(&f) = live.get(file % live.len().max(1)) {
                if let Ok(g) = store.fork(f, OwnerId(owner)) {
                    live.push(g);
                }
            }
        }
        Op::Remove { file } => {
            if !live.is_empty() {
                let f = live.remove(file % live.len());
                let _ = store.remove(f, admin);
            }
        }
        Op::Truncate { file, frac } => {
            if let Some(&f) = live.get(file % live.len().max(1)) {
                if let Ok(len) = store.len(f) {
                    let _ = store.swap_in(f, admin);
                    let _ = store.truncate(f, admin, (len as f64 * frac) as usize);
                }
            }
        }
        Op::Link { file, path } => {
            if let Some(&f) = live.get(file % live.len().max(1)) {
                let _ = store.link(f, &format!("p/{path}"), admin);
            }
        }
        Op::Unlink { path } => {
            let _ = store.unlink(&format!("p/{path}"), admin);
        }
        Op::Pin { file } => {
            if let Some(&f) = live.get(file % live.len().max(1)) {
                let _ = store.pin(f, admin);
            }
        }
        Op::SwapOut { file } => {
            if let Some(&f) = live.get(file % live.len().max(1)) {
                let _ = store.swap_out(f, admin);
            }
        }
        Op::Demote { file } => {
            if let Some(&f) = live.get(file % live.len().max(1)) {
                let _ = store.demote_to_disk(f, admin);
            }
        }
        Op::Lock { file } => {
            if let Some(&f) = live.get(file % live.len().max(1)) {
                if let Ok(owner) = store.stat(f).map(|s| s.owner) {
                    let _ = store.lock(f, owner);
                }
            }
        }
        Op::Quota { owner, limit } => {
            // Only raiseable floors: never set a limit below current
            // usage, or later ops would fail for quota reasons the
            // shadowing below does not track.
            let used = store.quota_used(OwnerId(owner));
            store.set_quota(OwnerId(owner), Some(limit.max(used).max(32)));
        }
    }
    store.verify().unwrap();
}

/// Runs the op sequence and returns the resulting store plus live file ids.
fn build_store(ops: &[Op]) -> (KvStore, Vec<FileId>) {
    let mut store = KvStore::new(config());
    let mut live: Vec<FileId> = Vec::new();
    let mut next_token = 0u32;
    for op in ops {
        apply_op(&mut store, &mut live, &mut next_token, op);
    }
    (store, live)
}

/// The store `ops` build as a restore from its delta batches shows it:
/// its linked files alone (no op creates a file for the admin), with the
/// ids of those files. A locked file is removed by its holder.
fn durable_projection(ops: &[Op]) -> (KvStore, Vec<FileId>) {
    let (mut store, _) = build_store(ops);
    let mut kept = Vec::new();
    for st in store.list_files() {
        if st.links > 0 {
            kept.push(st.id);
        } else {
            store.remove(st.id, st.locked_by.unwrap_or(OwnerId::ADMIN)).unwrap();
        }
    }
    store.verify().unwrap();
    (store, kept)
}

/// The store as one batch's frames.
fn snapshot(store: &KvStore) -> Vec<u8> {
    let mut out = Vec::new();
    store.snapshot(&mut out);
    out
}

/// Restores frames the way a log reader does: the records of the complete
/// batches, a cut one dropped and reported.
fn restore(bytes: &[u8], registry: &MetricsRegistry) -> Result<(KvStore, RestoreReport), KvError> {
    let (mut records, _, cut) = symphony_sim::seglog::scan(bytes, journal::decode_record);
    let complete = records.iter().rposition(journal::closes_batch).map_or(0, |i| i + 1);
    let dropped = complete < records.len();
    records.truncate(complete);
    KvStore::restore(config(), registry, records, cut || dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_restore_reproduces_observable_state(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let (store, live) = build_store(&ops);
        let bytes = snapshot(&store);
        let (restored, report) = restore(&bytes, &MetricsRegistry::new()).unwrap();
        prop_assert_eq!(report.torn, None);
        restored.verify().unwrap();

        // Byte-identity fixed point: the restored store writes the exact
        // same snapshot.
        prop_assert_eq!(snapshot(&restored), bytes);
        assert_same_observable_state(&store, &restored, &live)?;
    }

    #[test]
    fn torn_tail_restores_consistent_prefix_at_every_cut(
        ops in proptest::collection::vec(op_strategy(), 1..16)
    ) {
        let chain = build_delta_chain(&ops, 3);
        let bytes = &chain.bytes;
        let registry = MetricsRegistry::new();
        // Cut between batches, the restore is the store the ops so far
        // built, less the files no batch describes.
        let mut states = Vec::new();
        for (&end, &applied) in chain.ends.iter().zip(&chain.applied) {
            let (restored, report) = restore(&bytes[..end], &registry).unwrap();
            prop_assert_eq!(report.torn, None);
            let (projection, kept) = durable_projection(&ops[..applied]);
            prop_assert_eq!(restored.list_files().len(), kept.len());
            assert_same_observable_state(&projection, &restored, &kept)?;
            states.push(snapshot(&restored));
        }
        // Every cut length: no panic, and a verified store that is exactly
        // what the last complete batch before the cut restores, with the
        // tear reported unless the cut falls between batches.
        for cut in 0..=bytes.len() {
            let (prefix, report) = restore(&bytes[..cut], &registry)
                .unwrap_or_else(|e| panic!("cut {cut}: {e:?}"));
            // Nothing at all is a fresh store, complete.
            let last = chain.ends.iter().rposition(|&end| end <= cut).unwrap_or(0);
            let at_end = cut == 0 || chain.ends.contains(&cut);
            prop_assert_eq!(
                report.torn,
                (!at_end).then_some(KvError::JournalTorn),
                "cut {}",
                cut
            );
            prefix.verify().unwrap();
            prop_assert_eq!(
                snapshot(&prefix),
                states[last].clone(),
                "cut {} restores the state its last batch described",
                cut
            );
            // Every restored file must be fully readable.
            for st in prefix.list_files() {
                prop_assert_eq!(prefix.read_all_unchecked(st.id).unwrap().len(), st.len);
            }
        }
    }
}

/// A store's log the way a live kernel writes one: the store's snapshot,
/// change tracking from there, and a drained batch every `batch` ops and
/// at the end.
struct DeltaChain {
    bytes: Vec<u8>,
    /// Where each batch ends in `bytes`.
    ends: Vec<usize>,
    /// How many ops each batch had seen.
    applied: Vec<usize>,
}

fn build_delta_chain(ops: &[Op], batch: usize) -> DeltaChain {
    let mut store = KvStore::new(config());
    let bytes = snapshot(&store);
    let mut chain = DeltaChain {
        ends: vec![bytes.len()],
        applied: vec![0],
        bytes,
    };
    store.track_changes();
    let (mut live, mut next_token) = (Vec::new(), 0u32);
    let mut drain = |store: &mut KvStore, applied| {
        if store.drain_changes(&mut chain.bytes) {
            chain.ends.push(chain.bytes.len());
            chain.applied.push(applied);
        }
    };
    for (k, op) in ops.iter().enumerate() {
        apply_op(&mut store, &mut live, &mut next_token, op);
        if (k + 1) % batch == 0 {
            drain(&mut store, k + 1);
        }
    }
    drain(&mut store, ops.len());
    // Nothing changed since the last drain: nothing more to write.
    assert!(!store.drain_changes(&mut chain.bytes));
    chain
}

fn assert_same_observable_state(
    store: &KvStore,
    restored: &KvStore,
    live: &[FileId],
) -> Result<(), TestCaseError> {
    // Contents, stat fields, pool usage (CoW shares restore as shares, so
    // the tier counts match exactly).
    prop_assert_eq!(restored.gpu_pages_used(), store.gpu_pages_used());
    // Backing copies are not logged: a restored store holds only the
    // resident copy of each page.
    prop_assert_eq!(
        restored.cpu_pages_used() + restored.disk_pages_used(),
        store.cpu_pages_used() + store.disk_pages_used() - store.backing_pages()
    );
    prop_assert_eq!(restored.backing_pages(), 0);
    prop_assert_eq!(restored.live_pages(), store.live_pages());
    for &f in live {
        let a = store.stat(f).unwrap();
        let b = restored.stat(f).unwrap();
        prop_assert_eq!(a.owner, b.owner);
        prop_assert_eq!(a.len, b.len);
        prop_assert_eq!(a.pages, b.pages);
        prop_assert_eq!(a.pinned, b.pinned);
        prop_assert_eq!(a.locked_by, b.locked_by);
        prop_assert_eq!(a.residency, b.residency);
        prop_assert_eq!(a.last_access, b.last_access);
        prop_assert_eq!(a.links, b.links);
        prop_assert_eq!(
            restored.read_all_unchecked(f).unwrap(),
            store.read_all_unchecked(f).unwrap()
        );
        prop_assert_eq!(store.quota_used(a.owner), restored.quota_used(a.owner));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_journal_restores_live_state(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let chain = build_delta_chain(&ops, 5);
        let (restored, report) = restore(&chain.bytes, &MetricsRegistry::new()).unwrap();
        prop_assert_eq!(report.torn, None);
        restored.verify().unwrap();
        let (projection, kept) = durable_projection(&ops);
        prop_assert_eq!(restored.list_files().len(), kept.len());
        assert_same_observable_state(&projection, &restored, &kept)?;
    }
}
