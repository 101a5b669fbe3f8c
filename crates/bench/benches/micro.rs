//! Criterion micro-benchmarks for the substrate hot paths.
//!
//! These measure the *simulator's* wall-clock costs (not virtual time):
//! KVFS structural operations, tokenizer throughput, surrogate distribution
//! computation, GPU batch execution, and LipScript interpretation.
//!
//! Run: `cargo bench -p symphony-bench`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use symphony_gpu::{DeviceSpec, GpuExecutor, PredRequest};
use symphony_kvfs::{KvEntry, KvStore, KvStoreConfig, OwnerId};
use symphony_model::surrogate::VocabInfo;
use symphony_model::{CtxFingerprint, ModelConfig, Surrogate};
use symphony_tokenizer::{Bpe, CorpusGen};

const OWNER: OwnerId = OwnerId(1);

fn store() -> KvStore {
    KvStore::new(KvStoreConfig {
        page_tokens: 16,
        gpu_pages: 65_536,
        cpu_pages: 65_536,
        disk_pages: 0,
        bytes_per_token: 819_200,
    })
}

fn entries(n: usize) -> Vec<KvEntry> {
    (0..n as u32)
        .map(|i| KvEntry::new(i, i, CtxFingerprint(i as u64)))
        .collect()
}

fn bench_kvfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvfs");

    g.throughput(Throughput::Elements(3000));
    g.bench_function("append_3000_tokens", |b| {
        let ents = entries(3000);
        b.iter_batched(
            store,
            |mut s| {
                let f = s.create(OWNER).unwrap();
                s.append(f, OWNER, &ents).unwrap();
                s
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("fork_3000_token_file", |b| {
        let ents = entries(3000);
        let mut s = store();
        let f = s.create(OWNER).unwrap();
        s.append(f, OWNER, &ents).unwrap();
        b.iter(|| {
            let g = s.fork(f, OWNER).unwrap();
            s.remove(g, OWNER).unwrap();
        })
    });

    g.bench_function("extract_middle_range", |b| {
        let ents = entries(3000);
        let mut s = store();
        let f = s.create(OWNER).unwrap();
        s.append(f, OWNER, &ents).unwrap();
        b.iter(|| {
            let e = s
                .extract(f, OWNER, std::slice::from_ref(&(1000..2000)))
                .unwrap();
            s.remove(e, OWNER).unwrap();
        })
    });

    g.bench_function("swap_out_in_roundtrip", |b| {
        let ents = entries(3000);
        let mut s = store();
        let f = s.create(OWNER).unwrap();
        s.append(f, OWNER, &ents).unwrap();
        b.iter(|| {
            s.swap_out(f, OWNER).unwrap();
            s.swap_in(f, OWNER).unwrap();
        })
    });
    g.finish();
}

fn bench_tokenizer(c: &mut Criterion) {
    let bpe = Bpe::default_tokenizer();
    let text = CorpusGen::new(1).paragraph(800);
    let tokens = bpe.encode(&text);
    let mut g = c.benchmark_group("tokenizer");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("encode_paragraph", |b| b.iter(|| bpe.encode(&text)));
    g.throughput(Throughput::Elements(tokens.len() as u64));
    g.bench_function("decode_paragraph", |b| b.iter(|| bpe.decode(&tokens)));
    g.finish();
}

fn bench_model(c: &mut Criterion) {
    let model = Surrogate::new(ModelConfig::llama_13b(), 13)
        .with_vocab(VocabInfo::from_tokenizer(Bpe::default_tokenizer()));
    let fpr = model.fingerprinter();
    let mut g = c.benchmark_group("model");
    g.throughput(Throughput::Elements(1));
    g.bench_function("next_dist", |b| {
        let mut fp = fpr.origin();
        let mut i = 0u32;
        b.iter(|| {
            fp = fpr.advance(fp, i % 1000, i);
            i += 1;
            model.next_dist(fp)
        })
    });
    g.bench_function("dist_ops", |b| {
        let d = model.next_dist(fpr.advance(fpr.origin(), 1, 0));
        b.iter(|| {
            let t = d.with_temperature(0.8);
            let k = t.top_k(8);
            k.sample_with(0.5, 1700)
        })
    });
    g.finish();
}

fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("gpu_executor");
    g.throughput(Throughput::Elements(3000));
    g.bench_function("prefill_3000", |b| {
        b.iter_batched(
            || {
                let model = Surrogate::new(ModelConfig::llama_13b(), 13)
                    .with_vocab(VocabInfo::from_tokenizer(Bpe::default_tokenizer()));
                let gpu = GpuExecutor::new(DeviceSpec::a100_80g(), model);
                let mut s = store();
                let f = s.create(OWNER).unwrap();
                let tokens: Vec<(u32, u32)> = (0..3000).map(|i| (i % 1000, i)).collect();
                (gpu, s, f, tokens)
            },
            |(mut gpu, mut s, f, tokens)| {
                let (r, _) = gpu.execute_batch(
                    &mut s,
                    &[PredRequest {
                        file: f,
                        owner: OWNER,
                        tokens,
                    }],
                );
                assert!(r[0].is_ok());
                (gpu, s)
            },
            BatchSize::SmallInput,
        )
    });
    g.throughput(Throughput::Elements(16));
    g.bench_function("decode_step_batch16", |b| {
        let model = Surrogate::new(ModelConfig::llama_13b(), 13)
            .with_vocab(VocabInfo::from_tokenizer(Bpe::default_tokenizer()));
        let mut gpu = GpuExecutor::new(DeviceSpec::a100_80g(), model);
        let mut s = store();
        let base = s.create(OWNER).unwrap();
        s.append(base, OWNER, &entries(512)).unwrap();
        let files: Vec<_> = (0..16).map(|_| s.fork(base, OWNER).unwrap()).collect();
        let mut pos = 512u32;
        b.iter(|| {
            let reqs: Vec<PredRequest> = files
                .iter()
                .map(|&file| PredRequest {
                    file,
                    owner: OWNER,
                    tokens: vec![(7, pos)],
                })
                .collect();
            pos += 1;
            let (r, _) = gpu.execute_batch(&mut s, &reqs);
            assert!(r.iter().all(|x| x.is_ok()));
        })
    });
    g.finish();
}

fn bench_lipscript(c: &mut Criterion) {
    use symphony_lipscript::host::MockHost;
    use symphony_lipscript::{run_with_host, InterpLimits};
    let mut g = c.benchmark_group("lipscript");
    let fib = "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } return fib(15);";
    g.bench_function("parse_and_fib15", |b| {
        b.iter(|| {
            let mut host = MockHost::new("");
            run_with_host(fib, &mut host, InterpLimits::default()).unwrap()
        })
    });
    let loop_src = "let s = 0; let i = 0; while (i < 1000) { s = s + i; i = i + 1; } return s;";
    g.throughput(Throughput::Elements(1000));
    g.bench_function("tight_loop_1000", |b| {
        b.iter(|| {
            let mut host = MockHost::new("");
            run_with_host(loop_src, &mut host, InterpLimits::default()).unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_kvfs,
    bench_tokenizer,
    bench_model,
    bench_executor,
    bench_lipscript
);
criterion_main!(benches);
