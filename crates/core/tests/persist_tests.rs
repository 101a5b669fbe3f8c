//! Warm-restart persistence tests: a KV journal written by the store,
//! replay at boot, golden-trace equivalence against a cold kernel, and
//! torn-tail recovery from a journal cut at any point.

use symphony::sampling::{self, GenOpts};
use symphony::{Kernel, KernelConfig, Mode};
use symphony_kvfs::{JournalConfig, KvError};
use symphony_sim::frame::{read_frames, FRAME_OVERHEAD};
use symphony_sim::seglog::{Head, SegLog};

/// Unique-per-process temp path so parallel test runs don't collide.
fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("symphony-persist-{}-{}", std::process::id(), name))
}

const SYS_TEXT: &str = "system prompt shared by every request in the fleet ";

fn preload(k: &mut Kernel) -> usize {
    let tokens = k.tokenizer().encode(&SYS_TEXT.repeat(8));
    k.preload_kv("sys.kv", &tokens, Mode::SHARED_READ, true).unwrap();
    tokens.len()
}

/// The same RAG-style workload run against either kernel: fork the shared
/// prefix, generate a short answer, drop the fork.
fn rag_workload(k: &mut Kernel) -> String {
    let mut pids = Vec::new();
    for i in 0..3 {
        let args = format!("question number {i}");
        pids.push(k.spawn_process(&format!("rag{i}"), &args, |ctx| {
            let prefix = ctx.kv_open("sys.kv")?;
            let kv = ctx.kv_fork(prefix)?;
            let q = ctx.tokenize(&ctx.args())?;
            sampling::generate(ctx, kv, &q, &GenOpts { max_tokens: 16, ..Default::default() })?;
            ctx.kv_remove(kv)?;
            Ok(())
        }));
    }
    k.run();
    for &p in &pids {
        assert!(k.record(p).unwrap().status.is_ok());
    }
    k.export_chrome_trace()
}

#[test]
fn warm_restart_restores_pinned_prefix() {
    let path = tmp("warm.journal");
    let n_sys = {
        let mut cold = Kernel::new(KernelConfig::for_tests());
        let n = preload(&mut cold);
        assert!(cold.restored().is_none(), "cold start has no restore report");
        cold.open_kv_journal(&path, JournalConfig::default()).unwrap();
        n
    };

    let mut cfg = KernelConfig::for_tests();
    cfg.journal_path = Some(path.clone());
    let mut warm = Kernel::new(cfg);
    let report = *warm.restored().expect("journal replayed at boot");
    assert_eq!(report.files, 1);
    assert_eq!(report.links, 1);
    assert_eq!(report.tokens, n_sys);
    assert_eq!(report.torn, None);
    let f = warm.store().lookup("sys.kv").expect("namespace restored");
    assert!(warm.store().stat(f).unwrap().pinned, "pin survives restart");
    warm.store().verify().unwrap();

    // The restored prefix is live: a fork starts at the full prefix length.
    let n = n_sys as u32;
    let pid = warm.spawn_process("reuse", "the question", move |ctx| {
        let prefix = ctx.kv_open("sys.kv")?;
        let kv = ctx.kv_fork(prefix)?;
        assert_eq!(ctx.kv_next_pos(kv)?, n);
        let q = ctx.tokenize(&ctx.args())?;
        sampling::generate(ctx, kv, &q, &GenOpts { max_tokens: 8, ..Default::default() })?;
        Ok(())
    });
    warm.run();
    assert!(warm.record(pid).unwrap().status.is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn restored_kernel_matches_fresh_kernel_trace() {
    // Acceptance criterion: the golden trace of a post-restore run is
    // byte-identical to a no-restart run for the same workload suffix.
    let path = tmp("golden.journal");
    {
        let mut seed = Kernel::new(KernelConfig::for_tests());
        preload(&mut seed);
        seed.open_kv_journal(&path, JournalConfig::default()).unwrap();
    }

    let mut cfg = KernelConfig::for_tests();
    cfg.telemetry = true;
    let mut fresh = Kernel::new(cfg.clone());
    preload(&mut fresh);

    let mut warm_cfg = cfg;
    warm_cfg.journal_path = Some(path.clone());
    let mut warm = Kernel::new(warm_cfg);
    assert!(warm.restored().is_some());

    let fresh_trace = rag_workload(&mut fresh);
    let warm_trace = rag_workload(&mut warm);
    assert_eq!(fresh_trace, warm_trace, "chrome traces must be byte-identical");
    std::fs::remove_file(&path).ok();
}

/// Warm-boots a kernel from the journal at `path`.
fn warm_boot(path: &std::path::Path) -> Kernel {
    let mut cfg = KernelConfig::for_tests();
    cfg.journal_path = Some(path.to_path_buf());
    Kernel::new(cfg)
}

/// A crash can stop a journal write anywhere. A journal written through
/// `open_kv_journal` + `persist_kv_delta` and cut at every frame boundary
/// and one byte into every frame still warm-boots: the restored prefix is
/// consistent and the kernel serves. A cut right after a batch's closing
/// `PoolState` (or at the header's end) reads complete; every other cut —
/// one byte into a frame, or between two frames of one batch — reports
/// the typed tear.
#[test]
fn a_journal_cut_anywhere_warm_boots() {
    let path = tmp("cut.journal");
    let mut k = Kernel::new(KernelConfig::for_tests());
    k.open_kv_journal(&path, JournalConfig::default()).unwrap();
    preload(&mut k);
    assert!(!k.persist_kv_delta().unwrap());
    k.preload_kv("more.kv", &k.tokenizer().encode(SYS_TEXT), Mode::SHARED_READ, false)
        .unwrap();
    assert!(!k.persist_kv_delta().unwrap());
    let bytes = std::fs::read(&path).unwrap();

    // The journal's header carries four fields; frames follow it. Tag 8
    // is `PoolState`, the record that closes every batch.
    const POOL_STATE: u8 = 8;
    let mut end = Head::<4>::LEN;
    let mut cuts = vec![(end, false)];
    let (frames, torn) = read_frames(&bytes[end..]);
    assert!(!torn);
    for (tag, payload) in &frames {
        cuts.push((end + 1, true));
        end += FRAME_OVERHEAD + payload.len();
        cuts.push((end, *tag != POOL_STATE));
    }
    assert_eq!(end, bytes.len());
    // The base snapshot and two delta batches, each closed once, and the
    // delta batches have frame boundaries inside them.
    let closes = frames.iter().filter(|(tag, _)| *tag == POOL_STATE).count();
    assert_eq!(closes, 3);
    assert!(frames.len() > 2 * closes, "{} frames", frames.len());

    let cut_path = tmp("cut.prefix.journal");
    for (cut, torn) in cuts {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let mut warm = warm_boot(&cut_path);
        let report = *warm.restored().unwrap_or_else(|| panic!("cut at {cut} restores"));
        let torn = torn.then_some(KvError::JournalTorn);
        assert_eq!(report.torn, torn, "cut at {cut}");
        assert!(report.files <= 2, "cut at {cut}");
        warm.store().verify().unwrap();
        let pid = warm.spawn_process("after-tear", "still serving", |ctx| {
            let prompt = ctx.tokenize(&ctx.args())?;
            let kv = ctx.kv_create()?;
            sampling::generate(ctx, kv, &prompt, &GenOpts { max_tokens: 8, ..Default::default() })?;
            ctx.kv_remove(kv)?;
            Ok(())
        });
        warm.run();
        assert!(warm.record(pid).unwrap().status.is_ok(), "cut at {cut}");
    }
    std::fs::remove_file(&cut_path).ok();
    std::fs::remove_file(&path).ok();
}

/// Opening a journal over an existing one replaces it by rename: killed
/// between staging and rename the old journal is still whole, and a
/// finished open never truncated it in place.
#[test]
fn reopening_a_journal_never_exposes_a_partial_file() {
    use std::io::Read;
    let path = tmp("reopen.journal");
    let complete = |bytes: &[u8]| !symphony_kvfs::journal::read_journal(bytes).unwrap().2;
    let mut k = Kernel::new(KernelConfig::for_tests());
    preload(&mut k);
    k.open_kv_journal(&path, JournalConfig::default()).unwrap();
    let old = std::fs::read(&path).unwrap();
    let mut reader = std::fs::File::open(&path).unwrap();

    k.preload_kv(
        "more.kv",
        &k.tokenizer().encode(SYS_TEXT),
        Mode::SHARED_READ,
        false,
    )
    .unwrap();
    let new = k.store().journal_bytes();
    assert_ne!(new, old);
    SegLog::replace_crash_before_rename(&path, &new).unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert!(
        on_disk == old && complete(&on_disk),
        "a crash mid-open keeps the old journal"
    );

    k.open_kv_journal(&path, JournalConfig::default()).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), new);
    let mut seen = Vec::new();
    reader.read_to_end(&mut seen).unwrap();
    assert!(
        seen == old,
        "the old journal was replaced, not rewritten in place"
    );
    std::fs::remove_file(&path).ok();
}

/// `kvfs.journal_bytes` has one writer, the journal: it reads the file's
/// length after the journal opens, after every persist (compacting or
/// not) and after a warm boot, and serializing the store without writing
/// a journal leaves it alone.
#[test]
fn the_journal_gauge_is_the_journal_file_length() {
    let path = tmp("gauge.journal");
    let on_disk = || std::fs::metadata(&path).unwrap().len() as i64;
    let gauge = |k: &Kernel| k.metrics_registry().gauge("kvfs.journal_bytes").get();
    let mut k = Kernel::new(KernelConfig::for_tests());
    k.open_kv_journal(&path, JournalConfig { compact_threshold_bytes: 2048 })
        .unwrap();
    assert_eq!(gauge(&k), on_disk());
    let (mut compacted, mut appended, mut telling) = (0, 0, 0);
    for i in 0..8 {
        let tokens = k.tokenizer().encode(&format!("document {i} {SYS_TEXT}"));
        k.preload_kv(&format!("doc{i}.kv"), &tokens, Mode::SHARED_READ, false)
            .unwrap();
        if k.persist_kv_delta().unwrap() {
            compacted += 1;
        } else {
            appended += 1;
        }
        assert_eq!(gauge(&k), on_disk(), "after persist {i}");
        let snapshot = k.store().journal_bytes();
        assert_eq!(gauge(&k), on_disk(), "a bare snapshot after persist {i}");
        telling += usize::from(snapshot.len() as i64 != on_disk());
    }
    assert!(compacted >= 1 && appended >= 1, "{compacted} compacted, {appended} appended");
    // Only a snapshot whose length differs from the file's can show a
    // second writer.
    assert!(telling >= 1);
    assert_eq!(
        k.metrics_registry().counter_value("kvfs.compactions"),
        Some(compacted)
    );
    drop(k);
    let warm = warm_boot(&path);
    assert!(warm.restored().is_some());
    assert_eq!(gauge(&warm), on_disk());
    std::fs::remove_file(&path).ok();
}
