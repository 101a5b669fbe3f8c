//! Warm-restart persistence tests: a kernel log whose KV batches carry the
//! store, replay at boot, golden-trace equivalence against a cold kernel,
//! and torn-tail recovery from a log cut at any point.

#[path = "decode/mod.rs"]
mod decode;

use decode::GenOpts;
use symphony::{Body, Kernel, KernelConfig, Mode, SpawnOpts, WalConfig};
use symphony_kvfs::KvError;
use symphony_sim::frame::{read_frames, FRAME_OVERHEAD};
use symphony_sim::seglog::{Head, SegLog};

/// Unique-per-process temp path so parallel test runs don't collide.
fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("symphony-persist-{}-{}", std::process::id(), name))
}

const SYS_TEXT: &str = "system prompt shared by every request in the fleet ";

/// The KV store's record that closes every batch.
const POOL_STATE: u8 = 8;
/// The KV store's tags are the low end of the log's one tag space.
const FIRST_KERNEL_TAG: u8 = 32;

fn preload(k: &mut Kernel) -> usize {
    let tokens = k.tokenizer().encode(&SYS_TEXT.repeat(8));
    k.preload_kv("sys.kv", &tokens, Mode::SHARED_READ, true).unwrap();
    tokens.len()
}

/// A kernel that writes its log at `path`.
fn logging(path: &std::path::Path) -> Kernel {
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(path));
    Kernel::new(cfg)
}

/// Runs a durable program that does nothing: its exit is a boundary, so
/// what was published before it — preloads included — goes in the log
/// first.
fn boundary(k: &mut Kernel) {
    let durable = SpawnOpts {
        durable: true,
        ..SpawnOpts::default()
    };
    k.admit("boundary", "", durable, Body::hosted(|_| Ok(())));
    k.run();
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
            decode::generate(ctx, kv, &q, &GenOpts { max_tokens: 16, ..Default::default() })?;
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
    let path = tmp("warm.wal");
    let n_sys = {
        let mut cold = logging(&path);
        let n = preload(&mut cold);
        assert!(cold.restored().is_none(), "cold start has no restore report");
        boundary(&mut cold);
        n
    };

    let mut cfg = KernelConfig::for_tests();
    cfg.journal_path = Some(path.clone());
    let mut warm = Kernel::new(cfg);
    let report = *warm.restored().expect("log replayed at boot");
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
        decode::generate(ctx, kv, &q, &GenOpts { max_tokens: 8, ..Default::default() })?;
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
    let path = tmp("golden.wal");
    {
        let mut seed = logging(&path);
        preload(&mut seed);
        boundary(&mut seed);
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

/// Warm-boots a kernel from the log at `path`.
fn warm_boot(path: &std::path::Path) -> Kernel {
    let mut cfg = KernelConfig::for_tests();
    cfg.journal_path = Some(path.to_path_buf());
    Kernel::new(cfg)
}

/// A crash can stop a log write anywhere. A log whose KV batches a kernel
/// wrote at two boundaries, cut at every frame boundary and one byte into
/// every frame, still warm-boots: the restored store is consistent and the
/// kernel serves. A cut between batches (or at the header's end) reads
/// complete; every other cut — one byte into a frame, or between two
/// frames of one batch — reports the typed tear.
#[test]
fn a_journal_cut_anywhere_warm_boots() {
    let path = tmp("cut.wal");
    let mut k = logging(&path);
    preload(&mut k);
    boundary(&mut k);
    k.preload_kv("more.kv", &k.tokenizer().encode(SYS_TEXT), Mode::SHARED_READ, false)
        .unwrap();
    boundary(&mut k);
    let bytes = std::fs::read(&path).unwrap();

    // The log's header carries the seed; frames follow it. A cut is inside
    // a batch when the last KV frame before it is not a `PoolState`.
    let mut end = Head::<1>::LEN;
    let mut cuts = vec![(end, false)];
    let (frames, torn) = read_frames(&bytes[end..]);
    assert!(!torn);
    let mut in_batch = false;
    for (tag, payload) in &frames {
        cuts.push((end + 1, true));
        end += FRAME_OVERHEAD + payload.len();
        if *tag < FIRST_KERNEL_TAG {
            in_batch = *tag != POOL_STATE;
        }
        cuts.push((end, in_batch));
    }
    assert_eq!(end, bytes.len());
    // Two batches, each closed once, with frame boundaries inside them.
    let kv = frames.iter().filter(|(tag, _)| *tag < FIRST_KERNEL_TAG);
    let closes = kv.clone().filter(|(tag, _)| *tag == POOL_STATE).count();
    assert_eq!(closes, 2);
    assert!(kv.count() > 2 * closes);

    let cut_path = tmp("cut.prefix.wal");
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
            decode::generate(ctx, kv, &prompt, &GenOpts { max_tokens: 8, ..Default::default() })?;
            ctx.kv_remove(kv)?;
            Ok(())
        });
        warm.run();
        assert!(warm.record(pid).unwrap().status.is_ok(), "cut at {cut}");
    }
    std::fs::remove_file(&cut_path).ok();
    std::fs::remove_file(&path).ok();
}

/// A kernel that creates its log over an existing one replaces it by
/// rename: killed between staging and rename the old log is still whole,
/// and a finished create never truncated it in place.
#[test]
fn reopening_a_journal_never_exposes_a_partial_file() {
    use std::io::Read;
    let path = tmp("reopen.wal");
    let mut k = logging(&path);
    preload(&mut k);
    boundary(&mut k);
    drop(k);
    let old = std::fs::read(&path).unwrap();
    let mut reader = std::fs::File::open(&path).unwrap();
    let restores_whole = |path: &std::path::Path| {
        let warm = warm_boot(path);
        let report = *warm.restored().unwrap();
        report.files == 1 && report.torn.is_none()
    };

    let other = tmp("reopen.other.wal");
    drop(logging(&other));
    let new = std::fs::read(&other).unwrap();
    assert_ne!(new, old);
    SegLog::replace_crash_before_rename(&path, &new).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        old,
        "a crash mid-create keeps the old log"
    );
    assert!(restores_whole(&path));

    drop(logging(&path));
    assert_eq!(std::fs::read(&path).unwrap(), new);
    let mut seen = Vec::new();
    reader.read_to_end(&mut seen).unwrap();
    assert!(
        seen == old,
        "the old log was replaced, not rewritten in place"
    );
    for p in [path, other] {
        std::fs::remove_file(p).ok();
    }
}

/// `kernel.wal_bytes` has one writer, the log: it reads the file's length
/// once the log is created, after every KV batch and frame, and once
/// recovery reopens it.
#[test]
fn the_journal_gauge_is_the_journal_file_length() {
    let path = tmp("gauge.wal");
    let on_disk = || std::fs::metadata(&path).unwrap().len() as i64;
    let gauge = |k: &Kernel| k.metrics_registry().gauge("kernel.wal_bytes").get();
    let mut k = logging(&path);
    assert_eq!(gauge(&k), on_disk());
    for i in 0..4 {
        let tokens = k.tokenizer().encode(&format!("document {i} {SYS_TEXT}"));
        k.preload_kv(&format!("doc{i}.kv"), &tokens, Mode::SHARED_READ, false)
            .unwrap();
        boundary(&mut k);
        assert_eq!(gauge(&k), on_disk(), "after boundary {i}");
    }
    // One batch per boundary, each with its one new link.
    let frames = symphony::wal::frame_counts(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!((frames["pool_state"], frames["link"]), (4, 4));
    drop(k);
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(&path));
    let (k, _) = Kernel::recover(cfg, |_, _| None).unwrap();
    assert_eq!(gauge(&k), on_disk());
    assert_eq!(k.restored().map(|r| r.links), Some(4));
    std::fs::remove_file(&path).ok();
}
