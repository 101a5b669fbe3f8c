//! Property tests for the KVFS journal.
//!
//! Two families:
//!
//! 1. **Round trip** — a random operation sequence (creates, appends,
//!    copy-on-write forks, truncates, removes, links, pins, tier moves,
//!    quotas) runs against a store, the store is snapshotted to a journal,
//!    and the restore must reproduce the *observable* state exactly —
//!    including CoW page sharing (same pool usage, not deep copies), pins,
//!    locks, namespace, and the journal's own byte-identity fixed point.
//! 2. **Torn tail chaos** — the snapshot bytes are cut at every possible
//!    length; replay must never panic, must flag the tear with the typed
//!    `KvError::JournalTorn` detail, and must restore a consistent prefix.
//! 3. **Delta equivalence** — the same op sequence run against a store
//!    with a journal open, persisted in batches through the production
//!    `KvStore::persist_journal`, must restore to the same observable
//!    state as the live store.
//! 4. **Compaction** — rewriting any journal prefix to its
//!    snapshot-equivalent form must restore byte-identically at every
//!    truncation point, and a crash before the atomic rename must leave
//!    the old journal untouched and valid.

use proptest::prelude::*;
use symphony_kvfs::{
    FileId, Journal, JournalConfig, KvEntry, KvError, KvStore, KvStoreConfig, OwnerId,
};
use symphony_model::CtxFingerprint;
use symphony_sim::seglog::{Head, SegLog};
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


proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_restore_reproduces_observable_state(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let (store, live) = build_store(&ops);
        let bytes = store.journal_bytes();
        let (restored, report) =
            KvStore::restore_from_journal_bytes(config(), &MetricsRegistry::new(), &bytes)
                .unwrap();
        prop_assert_eq!(report.torn, None);
        restored.verify().unwrap();

        // Byte-identity fixed point: the restored store writes the exact
        // same journal.
        prop_assert_eq!(restored.journal_bytes(), bytes);

        // Observable state: contents, stat fields, pool usage (CoW shares
        // restore as shares, so the tier counts match exactly).
        prop_assert_eq!(restored.gpu_pages_used(), store.gpu_pages_used());
        // Backing copies are not journalled: a restored store holds only
        // the resident copy of each page.
        prop_assert_eq!(
            restored.cpu_pages_used() + restored.disk_pages_used(),
            store.cpu_pages_used() + store.disk_pages_used() - store.backing_pages()
        );
        prop_assert_eq!(restored.backing_pages(), 0);
        prop_assert_eq!(restored.live_pages(), store.live_pages());
        for f in live {
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
    }

    #[test]
    fn torn_tail_restores_consistent_prefix_at_every_cut(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        let (store, _) = build_store(&ops);
        let bytes = store.journal_bytes();
        let registry = MetricsRegistry::new();
        // Every cut length: no panic; either a typed hard error (header
        // unusable) or a verified store with the tear reported — except at
        // the header's end, which is a complete, empty journal.
        for cut in 0..bytes.len() {
            match KvStore::restore_from_journal_bytes(config(), &registry, &bytes[..cut]) {
                Err(KvError::JournalTorn) => {} // header unusable: nothing restored
                Err(e) => prop_assert!(false, "unexpected hard error at cut {}: {:?}", cut, e),
                Ok((prefix, report)) => {
                    let torn = (cut > Head::<4>::LEN).then_some(KvError::JournalTorn);
                    prop_assert_eq!(
                        report.torn,
                        torn,
                        "a cut journal must read as torn (cut {})",
                        cut
                    );
                    prefix.verify().unwrap();
                    // Every restored file must be fully readable.
                    for st in prefix.list_files() {
                        prop_assert_eq!(
                            prefix.read_all_unchecked(st.id).unwrap().len(),
                            st.len
                        );
                    }
                }
            }
        }
        // The untouched journal is not torn.
        let (_, report) =
            KvStore::restore_from_journal_bytes(config(), &registry, &bytes).unwrap();
        prop_assert_eq!(report.torn, None);
    }
}

/// Builds a journal the way a live kernel does: the store opens it
/// ([`KvStore::open_journal`]), then persists its changes every `batch`
/// ops ([`KvStore::persist_journal`]). Returns the final store, its live
/// file ids, and the on-disk journal bytes.
fn build_delta_journal(ops: &[Op], batch: usize, tag: &str) -> (KvStore, Vec<FileId>, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "symj_prop_{tag}_{}_{:?}.journal",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut store = KvStore::new(config());
    store.open_journal(&path, never_compact()).unwrap();
    let mut live = Vec::new();
    let mut next_token = 0u32;
    for (k, op) in ops.iter().enumerate() {
        apply_op(&mut store, &mut live, &mut next_token, op);
        if (k + 1) % batch == 0 {
            store.persist_journal().unwrap();
        }
    }
    store.persist_journal().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (store, live, bytes)
}

fn never_compact() -> JournalConfig {
    JournalConfig {
        compact_threshold_bytes: u64::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_journal_restores_live_state(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let (store, live, bytes) = build_delta_journal(&ops, 5, "delta");
        let (restored, report) =
            KvStore::restore_from_journal_bytes(config(), &MetricsRegistry::new(), &bytes)
                .unwrap();
        prop_assert_eq!(report.torn, None);
        restored.verify().unwrap();
        prop_assert_eq!(restored.gpu_pages_used(), store.gpu_pages_used());
        // Backing copies are not journalled: a restored store holds only
        // the resident copy of each page.
        prop_assert_eq!(
            restored.cpu_pages_used() + restored.disk_pages_used(),
            store.cpu_pages_used() + store.disk_pages_used() - store.backing_pages()
        );
        prop_assert_eq!(restored.backing_pages(), 0);
        prop_assert_eq!(restored.live_pages(), store.live_pages());
        for f in live {
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
    }
}

proptest! {
    // Every truncation point restores three times (prefix, compact,
    // recompact), so keep the op sequences short.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compaction_is_restore_identical_at_every_cut(
        ops in proptest::collection::vec(op_strategy(), 1..12)
    ) {
        let (_store, _live, bytes) = build_delta_journal(&ops, 3, "cut");
        let registry = MetricsRegistry::new();
        for cut in 0..=bytes.len() {
            // A prefix too short even for the header has nothing to
            // compact; every other cut restores to *some* consistent
            // store, and compaction is defined as that store's canonical
            // snapshot.
            let Ok((prefix, _)) =
                KvStore::restore_from_journal_bytes(config(), &registry, &bytes[..cut])
            else {
                continue;
            };
            let compacted = prefix.journal_bytes();
            let (recovered, report) =
                KvStore::restore_from_journal_bytes(config(), &registry, &compacted)
                    .unwrap();
            prop_assert_eq!(report.torn, None, "compacted journal must be whole (cut {})", cut);
            recovered.verify().unwrap();
            // Byte identity: restoring the compacted journal reproduces
            // the exact store the uncompacted prefix restored to.
            prop_assert_eq!(
                recovered.journal_bytes(),
                compacted,
                "compact→restore must be a fixed point (cut {})",
                cut
            );
        }
    }
}

#[test]
fn crash_mid_compaction_preserves_the_old_journal() {
    let path = |tag: &str| {
        std::env::temp_dir().join(format!("symj_prop_crash_{tag}_{}.journal", std::process::id()))
    };
    let (kept, compacting) = (path("kept"), path("compacting"));
    let admin = OwnerId::ADMIN;
    // Twin stores, the same history: one journal never compacts, so it
    // holds what the other's held on disk between flush and compaction.
    let mut twin = KvStore::new(config());
    twin.open_journal(&kept, never_compact()).unwrap();
    let mut store = KvStore::new(config());
    store
        .open_journal(&compacting, JournalConfig { compact_threshold_bytes: 1 })
        .unwrap();
    let history = |s: &mut KvStore| {
        let f = s.create(admin).unwrap();
        s.append(f, admin, &[entry(1), entry(2), entry(3)]).unwrap();
        s.link(f, "p/crash", admin).unwrap();
        f
    };
    let f = history(&mut twin);
    assert_eq!(history(&mut store), f);
    assert!(!twin.persist_journal().unwrap());
    let before = std::fs::read(&kept).unwrap();

    // Crash after writing the temp file but before the atomic rename:
    // the live journal is byte-for-byte untouched and still restores.
    SegLog::replace_crash_before_rename(&kept, &twin.journal_bytes()).unwrap();
    assert_eq!(std::fs::read(&kept).unwrap(), before, "old journal must survive the crash");
    let (recovered, report) =
        KvStore::restore_from_journal_bytes(config(), &MetricsRegistry::new(), &before).unwrap();
    assert_eq!(report.torn, None);
    assert_eq!(recovered.read_all_unchecked(f).unwrap().len(), 3);

    // The real compaction (a threshold of 1 byte trips) lands atomically
    // and restores identically.
    assert!(store.persist_journal().unwrap(), "threshold of 1 byte must trip");
    let snap = store.journal_bytes();
    assert_eq!(std::fs::read(&compacting).unwrap(), snap);
    let (rec2, rep2) =
        KvStore::restore_from_journal_bytes(config(), &MetricsRegistry::new(), &snap).unwrap();
    assert_eq!(rep2.torn, None);
    assert_eq!(
        rec2.read_all_unchecked(f).unwrap(),
        store.read_all_unchecked(f).unwrap()
    );
    for p in [kept, compacting] {
        let tmp = p.with_file_name(format!("{}.tmp", p.file_name().unwrap().to_string_lossy()));
        std::fs::remove_file(p).ok();
        std::fs::remove_file(tmp).ok();
    }
}

/// `Journal::create` over an existing journal replaces it by rename, like
/// compaction: killed between staging and rename the old journal is still
/// whole, and a finished create never truncated it in place.
#[test]
fn recreating_over_a_journal_never_exposes_a_partial_file() {
    use std::io::Read;
    let path =
        std::env::temp_dir().join(format!("symj_prop_recreate_{}.journal", std::process::id()));
    let admin = OwnerId::ADMIN;
    let mut store = KvStore::new(config());
    let f = store.create(admin).unwrap();
    store.append(f, admin, &[entry(1), entry(2)]).unwrap();
    let old = store.journal_bytes();
    store.append(f, admin, &[entry(3)]).unwrap();
    let new = store.journal_bytes();
    drop(Journal::create(&path, &old, JournalConfig::default()).unwrap());
    let mut reader = std::fs::File::open(&path).unwrap();

    SegLog::replace_crash_before_rename(&path, &new).unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, old, "old journal must survive the crash");
    let (_, _, torn) = symphony_kvfs::journal::read_journal(&on_disk).unwrap();
    assert!(!torn, "and still be complete");

    drop(Journal::create(&path, &new, JournalConfig::default()).unwrap());
    assert_eq!(std::fs::read(&path).unwrap(), new);
    // Whoever had the old journal open still reads all of it: it was
    // replaced, not rewritten.
    let mut seen = Vec::new();
    reader.read_to_end(&mut seen).unwrap();
    assert_eq!(seen, old);
    std::fs::remove_file(&path).ok();
}
