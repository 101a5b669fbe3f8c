//! A `pred` reply builds its distributions when they are read. These
//! properties hold the lazy reply to the eager definition: element `i` is
//! the surrogate's distribution at the context fingerprint after input
//! token `i`, walked from the file's tail — on a fresh file, on a fork, in
//! chunks, and when recovery answers the `pred` from the log.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use symphony::{
    Body, ContinuousConfig, CtxFingerprint, Dist, EventKind, ExecMode, FaultPlan, Kernel,
    KernelConfig, Preds, ProgramImage, QueueDiscipline, SimDuration, SpawnOpts, TokenId, WalConfig,
};
use symphony_model::surrogate::VocabInfo;
use symphony_model::Surrogate;
use symphony_tokenizer::Bpe;

/// How a durable program here is admitted: now, with the default limits.
fn durable() -> SpawnOpts {
    SpawnOpts {
        durable: true,
        ..SpawnOpts::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "symphony-prop-preds-{}-{}",
        std::process::id(),
        name
    ))
}

/// What a program saw of one reply: every element built through `get`,
/// through `iter`, and through its [`symphony_model::DistRef`]s with their
/// unbuilt entry counts.
#[derive(Debug, Clone, PartialEq)]
struct Seen {
    got: Vec<Dist>,
    iterated: Vec<Dist>,
    refs: Vec<(Dist, usize)>,
}

fn seen(preds: &Preds) -> Seen {
    Seen {
        got: (0..preds.len())
            .map(|i| preds.get(i).expect("in range"))
            .collect(),
        iterated: preds.iter().collect(),
        refs: preds
            .clone()
            .into_refs()
            .map(|r| (r.get().into_owned(), r.entries_len()))
            .collect(),
    }
}

type Replies = Arc<Mutex<Vec<Seen>>>;

/// A prefill at `start` on a new file, the same continuation on the file
/// and on a fork of it taken after the prefill, and a decode step on the
/// fork.
fn image(a: Vec<TokenId>, b: Vec<TokenId>, start: u32, seen_by: Replies) -> ProgramImage {
    Arc::new(move |ctx| {
        let record = |p: &Preds| seen_by.lock().unwrap().push(seen(p));
        let kv = ctx.kv_create()?;
        record(&ctx.pred_positions(kv, &a, start)?);
        let fork = ctx.kv_fork(kv)?;
        let next = start + a.len() as u32;
        record(&ctx.pred_positions(kv, &b, next)?);
        record(&ctx.pred_positions(fork, &b, next)?);
        record(&ctx.pred(fork, &[(b[0], next + b.len() as u32)])?);
        Ok(())
    })
}

/// The eager definition: the model's distribution after each token, along
/// the chain from `tail`.
fn eager(model: &Surrogate, tail: CtxFingerprint, run: &[(TokenId, u32)]) -> Vec<Dist> {
    let f = model.fingerprinter();
    let mut fp = tail;
    run.iter()
        .map(|&(t, p)| {
            fp = f.advance(fp, t, p);
            model.next_dist(fp)
        })
        .collect()
}

fn expected(model: &Surrogate, a: &[TokenId], b: &[TokenId], start: u32) -> Vec<Vec<Dist>> {
    let f = model.fingerprinter();
    let at = |toks: &[TokenId], from: u32| -> Vec<(TokenId, u32)> {
        toks.iter().zip(from..).map(|(&t, p)| (t, p)).collect()
    };
    let prefill = at(a, start);
    let mut tail = f.origin();
    for &(t, p) in &prefill {
        tail = f.advance(tail, t, p);
    }
    let next = start + a.len() as u32;
    let cont = at(b, next);
    let mut fork_tail = tail;
    for &(t, p) in &cont {
        fork_tail = f.advance(fork_tail, t, p);
    }
    let decode = [(b[0], next + b.len() as u32)];
    vec![
        eager(model, f.origin(), &prefill),
        eager(model, tail, &cont),
        eager(model, tail, &cont),
        eager(model, fork_tail, &decode),
    ]
}

fn config(wal: &std::path::Path, chunk: usize, crash_at: Option<u64>) -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(chunk),
        discipline: QueueDiscipline::Fifo,
    });
    cfg.wal = Some(WalConfig::new(wal).with_checkpoint_every(SimDuration::from_micros(100)));
    cfg.faults = FaultPlan {
        crash_at_boundary: crash_at,
        ..FaultPlan::default()
    };
    cfg.telemetry = true;
    cfg.causal = true;
    cfg
}

fn check(want: &[Vec<Dist>], replies: &Replies) -> Result<(), TestCaseError> {
    let replies = replies.lock().unwrap();
    prop_assert_eq!(replies.len(), want.len());
    for (seen, want) in replies.iter().zip(want) {
        prop_assert_eq!(&seen.got, want);
        prop_assert_eq!(&seen.iterated, want);
        for ((built, entries_len), want) in seen.refs.iter().zip(want) {
            prop_assert_eq!(built, want);
            prop_assert_eq!(*entries_len, built.entries().len());
        }
        prop_assert_eq!(seen.refs.len(), want.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_lazy_reply_is_the_eager_chain_live_and_replayed(
        a in proptest::collection::vec(0u32..2_000, 1..40),
        b in proptest::collection::vec(0u32..2_000, 1..12),
        start in 0u32..1_000,
        chunk in 1usize..9,
        case in any::<u64>(),
    ) {
        let path = tmp(&format!("{case:016x}.wal"));
        std::fs::remove_file(&path).ok();
        let cfg = config(&path, chunk, None);
        let model = Surrogate::new(cfg.model, cfg.model_seed)
            .with_vocab(VocabInfo::from_tokenizer(Bpe::default_tokenizer()));
        let want = expected(&model, &a, &b, start);

        // Live, and the boundary count for a crash after the last reply.
        let live = Replies::default();
        let boundaries = {
            let mut k = Kernel::new(cfg);
            k.admit("p", "", durable(), Body::from(image(a.clone(), b.clone(), start, live.clone())));
            k.run();
            k.syscall_boundaries()
        };
        check(&want, &live)?;

        // Crash at the last boundary: recovery answers every `pred` the
        // last checkpoint lists as completed from the log.
        std::fs::remove_file(&path).ok();
        {
            let mut k = Kernel::new(config(&path, chunk, Some(boundaries)));
            k.admit("p", "", durable(), Body::from(image(a.clone(), b.clone(), start, Replies::default())));
            k.run();
            prop_assert_eq!(k.crashed(), Some(boundaries));
        }
        let replayed = Replies::default();
        let (ra, rb, resolve) = (a.clone(), b.clone(), replayed.clone());
        let resolver = move |_: &str, _: Option<&[u8]>| {
            Some(Body::from(image(ra.clone(), rb.clone(), start, resolve.clone())))
        };
        let (mut k, _) = Kernel::recover(config(&path, chunk, None), resolver).unwrap();
        k.run();
        let from_markers = k
            .telemetry_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ReplayAnswered { sys: "pred", .. }))
            .count();
        prop_assert!(from_markers > 0, "no pred was answered from the log");
        check(&want, &replayed)?;
        std::fs::remove_file(&path).ok();
    }
}
