//! Property tests for the kernel WAL: recovery from an arbitrarily
//! truncated log never panics, and whatever valid frame-prefix survives the
//! cut recovers a *consistent* state — every program that completes after
//! resume produces byte-identical output to the uninterrupted run.
//!
//! An arbitrary byte cut models a torn write: the reader truncates to the
//! longest valid frame prefix, and frames are appended in causal order
//! (a delivery's `IpcSend` precedes its `IpcRecv`; a spawn precedes the
//! process's effects; what a program published precedes its exit), so any
//! prefix is a state some slower crash could have produced — just with a
//! longer live tail to re-execute. Each worker publishes its context under
//! a path, and once every program has finished the recovered store's
//! namespace is the uninterrupted run's, file for file.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
#[path = "decode/mod.rs"]
mod decode;

use decode::GenOpts;
use symphony::{
    Body, FaultPlan, Kernel, KernelConfig, ProgramImage, SimDuration, SpawnOpts, SysError,
    ToolOutcome, ToolSpec, WalConfig, WalError,
};

/// How a durable program here is admitted: now, with the default limits.
fn durable() -> SpawnOpts {
    SpawnOpts {
        durable: true,
        ..SpawnOpts::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("symphony-propwal-{}-{}", std::process::id(), name))
}

fn tool() -> ToolSpec {
    ToolSpec::fixed(SimDuration::from_millis(2), |args| ToolOutcome::Ok(format!("hit:{args}")))
}

/// Pair of LIPs: a worker that samples, calls the tool, reports and
/// publishes its context as `answer<args>.kv`, and a collector that echoes
/// what it received. Deterministic data, no clock values in outputs.
fn worker_image() -> ProgramImage {
    Arc::new(|ctx| {
        let args = ctx.args();
        let prompt = ctx.tokenize(&format!("query {args}"))?;
        let kv = ctx.kv_create()?;
        let gen = decode::generate(
            ctx,
            kv,
            &prompt,
            &GenOpts { max_tokens: 4, temperature: 0.8, ..Default::default() },
        )?;
        let doc = ctx.call_tool("lookup", &args)?;
        ctx.emit(&format!("{args}={}|{doc}", ctx.detokenize(&gen.tokens)?))?;
        let to = ctx.lookup_process("collector")?.ok_or(SysError::NotFound)?;
        ctx.send_msg(to, &format!("w{args}"))?;
        ctx.kv_link(kv, &format!("answer{args}.kv"))?;
        Ok(())
    })
}

fn collector_image() -> ProgramImage {
    Arc::new(|ctx| {
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(ctx.recv_msg()?.data);
        }
        got.sort();
        ctx.emit(&got.join("+"))?;
        Ok(())
    })
}

fn resolver(name: &str, _image: Option<&[u8]>) -> Option<Body> {
    match name {
        "collector" => Some(Body::from(collector_image())),
        n if n.starts_with("worker") => Some(Body::from(worker_image())),
        _ => None,
    }
}

fn config(path: &std::path::Path, crash_at: Option<u64>) -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(path).with_checkpoint_every(SimDuration::from_millis(2)));
    cfg.faults = FaultPlan { crash_at_boundary: crash_at, ..FaultPlan::default() };
    cfg
}

fn run_workload(k: &mut Kernel) {
    k.register_tool("lookup", tool());
    k.admit("collector", "", durable(), Body::from(collector_image()));
    k.admit("worker0", "0", durable(), Body::from(worker_image()));
    k.admit("worker1", "1", durable(), Body::from(worker_image()));
    k.run();
}

/// The paths the workload publishes, and the tokens each names.
type Namespace = BTreeMap<String, Option<Vec<u32>>>;

fn namespace(k: &Kernel) -> Namespace {
    ["answer0.kv", "answer1.kv"]
        .into_iter()
        .map(|path| {
            let tokens = k.store().lookup(path).map(|f| {
                let entries = k.store().read_all_unchecked(f).unwrap();
                entries.iter().map(|e| e.token).collect()
            });
            (path.to_string(), tokens)
        })
        .collect()
}

/// One full-run WAL plus the uninterrupted outputs and namespace.
fn baseline() -> (Vec<u8>, BTreeMap<String, String>, Namespace) {
    let path = tmp(&format!("baseline-{:?}.wal", std::thread::current().id()));
    let mut k = Kernel::new(config(&path, None));
    run_workload(&mut k);
    let outputs = k
        .records()
        .filter(|r| r.status.is_ok())
        .map(|r| (r.name.clone(), r.output.clone()))
        .collect();
    let published = namespace(&k);
    assert!(published.values().all(Option::is_some), "{published:?}");
    let bytes = std::fs::read(&path).expect("wal written");
    std::fs::remove_file(&path).ok();
    (bytes, outputs, published)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cut the WAL at any byte; recovery must never panic, must reject
    /// cuts inside the header with a typed error, and must otherwise
    /// resume into a run whose finished programs match the uninterrupted
    /// outputs exactly.
    #[test]
    fn truncated_wal_recovers_a_consistent_prefix(frac in 0.0f64..1.0, case in 0u64..u64::MAX) {
        let (bytes, expected, published) = baseline();
        let cut = (bytes.len() as f64 * frac) as usize;
        let path = tmp(&format!("cut-{case}"));
        std::fs::write(&path, &bytes[..cut]).unwrap();

        match Kernel::recover(config(&path, None), resolver) {
            Err(WalError::Unreadable | WalError::Incompatible) => {
                // Only a cut inside the fixed-size header is unreadable.
                prop_assert!(cut < 20, "cut {cut} of {} rejected", bytes.len());
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?} at cut {cut}"),
            Ok((mut k, report)) => {
                prop_assert!(cut >= 20);
                prop_assert!(report.wal_bytes as usize <= cut);
                prop_assert_eq!(report.lost, 0);
                k.register_tool("lookup", tool());
                k.run();
                prop_assert!(k.crashed().is_none());
                for r in k.records() {
                    if r.exited_at.is_some() {
                        prop_assert!(r.status.is_ok(), "{} failed after cut {cut}", r.name);
                        prop_assert_eq!(
                            Some(&r.output),
                            expected.get(&r.name),
                            "{} diverged after cut {}", r.name, cut
                        );
                    }
                }
                // A cut past the final frame loses nothing: everything
                // must finish (possibly restored as already-finished).
                let done = k.records().filter(|r| r.exited_at.is_some()).count();
                if cut == bytes.len() {
                    prop_assert_eq!(done, expected.len());
                }
                k.store().verify().unwrap();
                if done == expected.len() {
                    prop_assert_eq!(namespace(&k), published.clone(), "namespace after cut {}", cut);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A crash mid-run followed by truncating the *tail* of the WAL (torn
    /// final write) still recovers: the torn flag is surfaced and the
    /// resumed run completes consistently, publishing what the
    /// uninterrupted run published — and so does a second recovery from
    /// the log the resumed run appended to.
    #[test]
    fn torn_tail_after_crash_recovers(drop_tail in 1usize..64, boundary in 5u64..40) {
        let (_, expected, published) = baseline();
        let path = tmp(&format!("torn-{boundary}-{drop_tail}"));
        {
            let mut k = Kernel::new(config(&path, Some(boundary)));
            run_workload(&mut k);
            prop_assume!(k.crashed() == Some(boundary));
        }
        let bytes = std::fs::read(&path).unwrap();
        prop_assume!(bytes.len() > 20 + drop_tail);
        std::fs::write(&path, &bytes[..bytes.len() - drop_tail]).unwrap();

        let (mut k, report) = Kernel::recover(config(&path, None), resolver).unwrap();
        prop_assert_eq!(report.lost, 0);
        k.register_tool("lookup", tool());
        k.run();
        prop_assert!(k.crashed().is_none());
        for r in k.records() {
            if r.exited_at.is_some() {
                prop_assert!(r.status.is_ok());
            }
        }
        k.store().verify().unwrap();
        // A tail cut deep enough drops admissions too; those programs
        // never run again.
        let done = k.records().filter(|r| r.exited_at.is_some()).count();
        if done == expected.len() {
            prop_assert_eq!(namespace(&k), published.clone());
        }
        // The recovered run appended to the cut log; recovering from it
        // again restores every exit (a program still waiting on one the
        // cut dropped runs again) and what each published.
        let waiting = k.records().count() - done;
        drop(k);
        let (k, report) = Kernel::recover(config(&path, None), resolver).unwrap();
        prop_assert!(!report.torn);
        prop_assert_eq!((report.finished, report.resumed), (done, waiting));
        k.store().verify().unwrap();
        if done == expected.len() {
            prop_assert_eq!(namespace(&k), published);
        }
        std::fs::remove_file(&path).ok();
    }
}
