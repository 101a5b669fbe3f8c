//! Chunked-prefill equivalence (the continuous-batching correctness
//! contract): splitting a prefill into fixed-size chunks may only change
//! *timing*, never *results*. For any prompt and any chunk size, the
//! chunked execution must produce the identical surrogate distributions
//! and leave identical KVFS page contents behind.

use proptest::prelude::*;
use symphony_gpu::{DeviceSpec, GpuExecutor, PredRequest};
use symphony_kvfs::{KvStore, KvStoreConfig, OwnerId};
use symphony_model::{ModelConfig, Surrogate, TokenId};

const U1: OwnerId = OwnerId(1);

fn setup() -> (GpuExecutor, KvStore) {
    let model = Surrogate::new(ModelConfig::tiny(), 7);
    (
        GpuExecutor::new(DeviceSpec::test_device(), model),
        KvStore::new(KvStoreConfig::for_tests()),
    )
}

fn positioned(tokens: &[TokenId]) -> Vec<(TokenId, u32)> {
    tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_equals_unchunked_dists_and_pages(
        tokens in proptest::collection::vec(0u32..500, 1..60),
        chunk in 1usize..17,
    ) {
        let (mut gpu, mut store) = setup();
        let whole = store.create(U1).unwrap();
        let split = store.create(U1).unwrap();
        let all = positioned(&tokens);

        // One-shot prefill.
        let (res, _) = gpu.execute_batch(
            &mut store,
            &[PredRequest { file: whole, owner: U1, tokens: all.clone() }],
        );
        let one_shot: Vec<_> = res[0].as_ref().unwrap().iter().collect();

        // The same prompt, `chunk` tokens per iteration.
        let mut chunked = Vec::new();
        for piece in all.chunks(chunk) {
            let (res, _) = gpu.execute_batch(
                &mut store,
                &[PredRequest { file: split, owner: U1, tokens: piece.to_vec() }],
            );
            chunked.extend(res[0].as_ref().unwrap().iter());
        }

        // Identical surrogate distributions...
        prop_assert_eq!(&one_shot, &chunked);
        // ...and identical KVFS contents: same entries (token, position,
        // fingerprint chain) and same page layout.
        let ea = store.read_all_unchecked(whole).unwrap();
        let eb = store.read_all_unchecked(split).unwrap();
        prop_assert_eq!(&ea, &eb);
        let (sa, sb) = (store.stat(whole).unwrap(), store.stat(split).unwrap());
        prop_assert_eq!(sa.len, sb.len);
        prop_assert_eq!(sa.pages, sb.pages);
        store.verify().unwrap();
    }

    #[test]
    fn chunked_continuation_matches_after_cached_prefix(
        prefix in proptest::collection::vec(0u32..500, 1..20),
        rest in proptest::collection::vec(0u32..500, 1..20),
        chunk in 1usize..8,
    ) {
        // Chunking a pred that starts on a non-empty file (mid-program KV
        // reuse) is equally exact.
        let (mut gpu, mut store) = setup();
        let whole = store.create(U1).unwrap();
        let split = store.create(U1).unwrap();
        let mut all = prefix.clone();
        all.extend(&rest);
        let all = positioned(&all);
        let (p, r) = all.split_at(prefix.len());
        for f in [whole, split] {
            let (res, _) = gpu.execute_batch(
                &mut store,
                &[PredRequest { file: f, owner: U1, tokens: p.to_vec() }],
            );
            res[0].as_ref().unwrap();
        }
        let (res, _) = gpu.execute_batch(
            &mut store,
            &[PredRequest { file: whole, owner: U1, tokens: r.to_vec() }],
        );
        let one_shot: Vec<_> = res[0].as_ref().unwrap().iter().collect();
        let mut chunked = Vec::new();
        for piece in r.chunks(chunk) {
            let (res, _) = gpu.execute_batch(
                &mut store,
                &[PredRequest { file: split, owner: U1, tokens: piece.to_vec() }],
            );
            chunked.extend(res[0].as_ref().unwrap().iter());
        }
        prop_assert_eq!(&one_shot, &chunked);
        prop_assert_eq!(
            store.read_all_unchecked(whole).unwrap(),
            store.read_all_unchecked(split).unwrap()
        );
    }
}
