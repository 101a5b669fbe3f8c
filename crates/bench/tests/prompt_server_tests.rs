//! The prompt server as a program: its prefix table on its own, then the
//! behaviours a prompt server owes its clients, each served as processes
//! on a test kernel.

use symphony::{ExitStatus, Kernel, KernelConfig, KvError, Pid, SimDuration, SpawnOpts, SysError};
use symphony_bench::prompt_server::{split_response, Hit, Placement, PrefixTable, PromptServer};
use symphony_model::TokenId;

// ---- the table -------------------------------------------------------------

#[test]
fn miss_then_hit_after_insert() {
    let mut t = PrefixTable::new(4);
    let doc: Vec<TokenId> = (100..120).collect(); // 20 tokens = 5 blocks
    let mut prompt = doc.clone();
    prompt.extend([1, 2]); // query tail
    assert_eq!(t.lookup(&prompt), None);
    let Placement::New { path, len } = t.insert(&prompt) else {
        panic!("a first prompt is a new entry");
    };
    assert_eq!(len, 20, "block-aligned");
    // Same doc, different query.
    let mut p2 = doc.clone();
    p2.extend([7, 8, 9]);
    assert_eq!(t.lookup(&p2), Some(Hit { path, covered: 20 }));
}

#[test]
fn entries_converge_to_shared_prefix() {
    let mut t = PrefixTable::new(4);
    let doc: Vec<TokenId> = (100..116).collect(); // 4 blocks
    let mut p1 = doc.clone();
    p1.extend([1, 2, 3, 4]); // one extra block
    let Placement::New { path, len: 20 } = t.insert(&p1) else {
        panic!("a first prompt is a new entry");
    };
    let mut p2 = doc.clone();
    p2.extend([9, 9, 9, 9]);
    // Converged: the entry shrinks to the doc, and the new file is not kept.
    assert_eq!(
        t.insert(&p2),
        Placement::Keep {
            path: path.clone(),
            shrink_to: Some(16)
        }
    );
    assert_eq!(t.len(), 1);
    assert_eq!(t.lookup(&p2), Some(Hit { path, covered: 16 }));
    // Entries sharing only a leading block stay apart.
    let mut p3 = doc[..4].to_vec();
    p3.extend(200..216);
    assert!(matches!(t.insert(&p3), Placement::New { .. }));
    assert_eq!(t.len(), 2);
}

#[test]
fn short_prompts_are_not_cached() {
    let mut t = PrefixTable::new(8);
    assert_eq!(t.insert(&[1, 2, 3]), Placement::Drop);
    assert!(t.is_empty());
    assert_eq!(t.lookup(&[1, 2, 3]), None);
}

#[test]
fn lru_eviction_order() {
    let mut t = PrefixTable::new(4);
    let a: Vec<TokenId> = (0..8).collect();
    let b: Vec<TokenId> = (50..58).collect();
    let Placement::New { path: pa, .. } = t.insert(&a) else {
        panic!("new")
    };
    let Placement::New { path: pb, .. } = t.insert(&b) else {
        panic!("new")
    };
    // Touch a so b becomes LRU.
    t.lookup(&a).unwrap();
    assert_eq!(t.evict_lru(), Some(pb));
    assert!(t.lookup(&b).is_none(), "b evicted");
    assert_eq!(t.evict_lru(), Some(pa));
    assert_eq!(t.evict_lru(), None, "an empty table evicts nothing");
}

// ---- the server, on a kernel -------------------------------------------------

/// Tokens per KV page on the test kernel.
const PAGE: usize = 4;

/// A test kernel whose GPU pool holds `pages` pages, when given.
fn kernel(pages: Option<usize>) -> Kernel {
    let mut cfg = KernelConfig::for_tests();
    assert_eq!(cfg.page_tokens, PAGE);
    cfg.gpu_kv_bytes_override = pages.map(|p| (p * PAGE) as u64 * cfg.model.kv_bytes_per_token());
    Kernel::new(cfg)
}

/// Admits one request per `(prompt, arrival ms)` and runs the kernel.
fn serve(kernel: &mut Kernel, server: &PromptServer, requests: &[(String, u64)]) -> Vec<Pid> {
    let pids = requests
        .iter()
        .enumerate()
        .map(|(i, (prompt, ms))| {
            let at = symphony::SimTime::ZERO + SimDuration::from_millis(*ms);
            kernel.admit(&format!("req{i}"), prompt, SpawnOpts::at(at), server.body())
        })
        .collect();
    kernel.run();
    pids
}

/// A finished request's completion text and the prompt tokens it took from
/// the table.
fn response(kernel: &Kernel, pid: Pid) -> (String, u64) {
    let rec = kernel.record(pid).expect("record");
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    let (text, cached) = split_response(&rec.output);
    (text.to_string(), cached)
}

fn at_once(prompts: &[&str]) -> Vec<(String, u64)> {
    prompts.iter().map(|p| (p.to_string(), 0)).collect()
}

#[test]
fn serves_requests_to_completion() {
    let mut k = kernel(None);
    let server = PromptServer::with_apc(PAGE, 16);
    let pids = serve(
        &mut k,
        &server,
        &at_once(&["the cache design of the system", "another prompt"]),
    );
    let mut emitted = 0;
    for pid in pids {
        let rec = k.record(pid).unwrap();
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        assert!(rec.exited_at.unwrap() > rec.spawned_at);
        emitted += rec.usage.emitted_tokens;
    }
    assert!(emitted > 0);
    k.store().verify().unwrap();
}

#[test]
fn greedy_output_is_deterministic_and_cache_agnostic() {
    let run = |server: PromptServer| {
        let mut k = kernel(None);
        let pids = serve(
            &mut k,
            &server,
            &at_once(&["compare the memory management of the serving systems"]),
        );
        response(&k, pids[0]).0
    };
    let v1 = run(PromptServer::with_apc(PAGE, 16));
    let v2 = run(PromptServer::with_apc(PAGE, 16));
    let t1 = run(PromptServer::without_cache(16));
    assert!(!v1.is_empty());
    assert_eq!(v1, v2, "same server, same output");
    assert_eq!(v1, t1, "the table does not change what the model says");
}

#[test]
fn prefix_table_hits_on_repeated_document() {
    let doc = "the shared document context that is long enough to span pages ".repeat(4);
    let requests: Vec<(String, u64)> = (0..6)
        .map(|i| (format!("{doc} query number {i}"), i * 200))
        .collect();
    let cached = |server: PromptServer| {
        let mut k = kernel(None);
        let pids = serve(&mut k, &server, &requests);
        pids.iter().map(|&p| response(&k, p).1).sum::<u64>()
    };
    assert!(
        cached(PromptServer::with_apc(PAGE, 8)) > 0,
        "later requests hit the doc prefix"
    );
    assert_eq!(
        cached(PromptServer::without_cache(8)),
        0,
        "no table, no hits"
    );
}

#[test]
fn a_hit_preserves_output() {
    let prompt = format!(
        "{} same query",
        "document text for equivalence checking repeated often ".repeat(3)
    );
    // The second request arrives after the first finished: it hits the
    // table and must say the same.
    let mut k = kernel(None);
    let pids = serve(
        &mut k,
        &PromptServer::with_apc(PAGE, 12),
        &[(prompt.clone(), 0), (prompt, 60_000)],
    );
    let (first, first_cached) = response(&k, pids[0]);
    let (second, second_cached) = response(&k, pids[1]);
    assert_eq!(first_cached, 0);
    assert!(second_cached > 0, "the second request hits");
    assert_eq!(first, second, "a hit does not change the output");
}

#[test]
fn memory_pressure_evicts_entries_and_completes() {
    // 24 pages of 4 tokens; eight distinct documents fill it several times.
    let mut k = kernel(Some(24));
    let server = PromptServer::with_apc(PAGE, 8);
    let requests: Vec<(String, u64)> = (0..8)
        .map(|i| {
            let p = format!(
                "distinct document number {i} with plenty of words to fill pages \
                 and then some more words to make it longer"
            );
            (p, i * 300)
        })
        .collect();
    let pids = serve(&mut k, &server, &requests);
    for &pid in &pids {
        response(&k, pid);
    }
    let kept = server.table.as_ref().unwrap().lock().unwrap().len();
    assert!(kept < pids.len(), "entries were evicted: {kept} kept");
    assert!(k.store().lookup("apc/1").is_none(), "the oldest went first");
    k.store().verify().unwrap();
}

#[test]
fn an_evicted_entrys_pages_go_back_to_the_pool() {
    let a = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi";
    let b = "one two three four five six seven eight nine ten eleven twelve thirteen";
    let pages = |text: &str| {
        symphony_tokenizer::Bpe::default_tokenizer()
            .encode(text)
            .len()
            .div_ceil(PAGE)
    };
    // Room for one entry and half of the next request: `b` fits only once
    // `a`'s entry (whose process has exited) is removed.
    let pool = pages(a) + pages(b) / 2 + 3;
    assert!(pages(b) + 2 > pool - pages(a) && pages(b) + 2 <= pool);
    let mut k = kernel(Some(pool));
    let pids = serve(
        &mut k,
        &PromptServer::with_apc(PAGE, 4),
        &[(a.to_string(), 0), (b.to_string(), 60_000)],
    );
    response(&k, pids[1]);
    let store = k.store();
    assert!(store.lookup("apc/1").is_none(), "a's entry was evicted");
    let kept = store.lookup("apc/2").expect("b's entry is published");
    assert_eq!(
        store.gpu_pages_used(),
        store.stat(kept).unwrap().pages,
        "only b's entry holds pages"
    );
    store.verify().unwrap();
}

#[test]
fn an_oversized_prompt_fails_cleanly() {
    // 4 pages of 4 tokens: no eviction or wait makes room for ~100 tokens.
    let mut k = kernel(Some(4));
    let pids = serve(
        &mut k,
        &PromptServer::without_cache(4),
        &at_once(&[&"far too long a prompt ".repeat(20)]),
    );
    let rec = k.record(pids[0]).unwrap();
    assert_eq!(
        rec.status,
        ExitStatus::Error(SysError::Kv(KvError::NoGpuMemory))
    );
    assert!(rec.output.is_empty(), "a failed request says nothing");
    assert_eq!(k.store().gpu_pages_used(), 0);
    k.store().verify().unwrap();
}

#[test]
fn fig3s_quick_point_runs_both_baselines_as_programs() {
    use symphony_bench::fig3::{run_prompt_point, Fig3Config, Scale};
    let cfg = Fig3Config::quick();
    let scale = Scale::quick(&cfg);
    let apc = run_prompt_point("vllm-lip", &cfg, &scale, 0.5, 20.0);
    let none = run_prompt_point("vllm-noapc-lip", &cfg, &scale, 0.5, 20.0);
    for p in [&apc, &none] {
        assert_eq!((p.completed, p.failed), (cfg.requests, 0), "{p:?}");
        assert!(p.throughput_tok_s > 0.0);
    }
    assert!(
        apc.cache_hit_rate > 0.0,
        "heavy skew hits the table: {apc:?}"
    );
    assert_eq!(none.cache_hit_rate, 0.0);
}
