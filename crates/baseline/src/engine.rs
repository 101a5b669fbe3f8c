//! The continuous-batching prompt-serving engine.
//!
//! One engine implementation serves as both baselines:
//!
//! - **vLLM-like**: optimistic admission (prompt pages + per-sequence
//!   headroom), automatic prefix caching, LRU cache eviction under
//!   allocation pressure, and preemption-by-recompute on decode OOM.
//! - **TGI-like**: conservative admission (reserves pages for the full
//!   `max_tokens` budget up front) and no prefix reuse.
//!
//! Each scheduler iteration builds one GPU batch from every runnable
//! sequence (prompt prefills for the newly admitted, one decode token for
//! the rest), executes it on the shared simulated GPU, and advances virtual
//! time by the batch's roofline duration.

use std::collections::VecDeque;

use symphony_gpu::{DeviceSpec, ExecError, GpuExecutor, PredRequest};
use symphony_kvfs::{FileId, KvError, KvStore, KvStoreConfig, OwnerId};
use symphony_model::surrogate::VocabInfo;
use symphony_model::{Dist, ModelConfig, Preds, Surrogate, TokenId};
use symphony_sim::{EventQueue, Rng, SimTime};
use symphony_tokenizer::Bpe;

use crate::api::{Completion, PromptRequest, RunStats};
use crate::cache::PrefixCache;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Display name (`"vllm-like"` / `"tgi-like"`).
    pub name: &'static str,
    /// Served model shape.
    pub model: ModelConfig,
    /// Surrogate model seed (match Symphony's for output comparisons).
    pub model_seed: u64,
    /// Simulated accelerator.
    pub device: DeviceSpec,
    /// Tokens per KV page.
    pub page_tokens: usize,
    /// Overrides the device-derived GPU KV budget.
    pub gpu_kv_bytes_override: Option<u64>,
    /// Enable automatic prefix caching (vLLM) or not (TGI).
    pub prefix_cache: bool,
    /// Enable preemption-by-recompute on decode OOM (vLLM).
    pub preemption: bool,
    /// Reserve pages for the whole `max_tokens` budget at admission (TGI).
    pub conservative_admission: bool,
    /// Maximum sequences batched per iteration.
    pub max_batch: usize,
    /// Engine RNG seed (per-request sampling streams derive from it).
    pub seed: u64,
}

impl EngineConfig {
    /// The vLLM-like configuration on the paper's setup.
    pub fn vllm_like() -> Self {
        EngineConfig {
            name: "vllm-like",
            model: ModelConfig::llama_13b(),
            model_seed: 13,
            device: DeviceSpec::a100_80g(),
            page_tokens: 16,
            gpu_kv_bytes_override: None,
            prefix_cache: true,
            preemption: true,
            conservative_admission: false,
            max_batch: 64,
            seed: 42,
        }
    }

    /// vLLM as the paper evaluated it (2024-era): PagedAttention and
    /// continuous batching, but **no automatic prefix caching** (the feature
    /// was off by default at the time). The strongest contemporary variant
    /// is [`EngineConfig::vllm_like`].
    pub fn vllm_noapc() -> Self {
        EngineConfig {
            name: "vllm-noapc",
            prefix_cache: false,
            ..Self::vllm_like()
        }
    }

    /// The TGI-like configuration on the paper's setup.
    pub fn tgi_like() -> Self {
        EngineConfig {
            name: "tgi-like",
            prefix_cache: false,
            preemption: false,
            conservative_admission: true,
            ..Self::vllm_like()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Needs its prompt suffix prefetched through `pred`.
    Prefill,
    /// Generating one token per iteration.
    Decode,
}

struct Seq {
    req: PromptRequest,
    file: FileId,
    /// Prompt tokens covered by the prefix cache at admission.
    cached: usize,
    produced: Vec<TokenId>,
    /// Token to feed at the next decode step.
    next_token: Option<TokenId>,
    first_token_at: Option<SimTime>,
    phase: Phase,
    /// Pages promised to this sequence but possibly not yet allocated
    /// (admission reservation; see `reservation_pages`).
    reserved: usize,
    rng: Rng,
}

enum Ev {
    Arrive(usize),
    StepDone,
}

/// A running batch: sequence request IDs in batch order plus results.
struct Inflight {
    seq_ids: Vec<u64>,
    results: Vec<Result<Preds, ExecError>>,
}

/// The prompt-serving engine.
pub struct Engine {
    cfg: EngineConfig,
    gpu: GpuExecutor,
    store: KvStore,
    cache: Option<PrefixCache>,
    owner: OwnerId,
    eos: TokenId,
    vocab_hint: u32,
    stats: RunStats,
    /// Consecutive scheduler iterations in which no sequence advanced.
    stalled_steps: u32,
}

const ENGINE_OWNER: OwnerId = OwnerId(1);

impl Engine {
    /// Builds an engine.
    pub fn new(cfg: EngineConfig) -> Self {
        let tokenizer = Bpe::default_tokenizer();
        let model = Surrogate::new(cfg.model, cfg.model_seed)
            .with_vocab(VocabInfo::from_tokenizer(tokenizer));
        let gpu_kv_bytes = cfg
            .gpu_kv_bytes_override
            .unwrap_or_else(|| cfg.device.kv_budget_bytes(&cfg.model));
        let store = KvStore::new(KvStoreConfig::from_bytes(
            gpu_kv_bytes,
            0,
            0,
            cfg.model.kv_bytes_per_token(),
            cfg.page_tokens,
        ));
        let cache = cfg
            .prefix_cache
            .then(|| PrefixCache::new(cfg.page_tokens, ENGINE_OWNER));
        Engine {
            gpu: GpuExecutor::new(cfg.device, model),
            store,
            cache,
            owner: ENGINE_OWNER,
            eos: tokenizer.specials().eos,
            vocab_hint: tokenizer.specials().bos,
            stats: RunStats::default(),
            stalled_steps: 0,
            cfg,
        }
    }

    /// The engine's display name.
    pub fn name(&self) -> &'static str {
        self.cfg.name
    }

    /// Serves a request trace to completion; returns per-request completions
    /// (in finish order) and aggregate statistics.
    pub fn run(&mut self, mut requests: Vec<PromptRequest>) -> (Vec<Completion>, RunStats) {
        requests.sort_by_key(|r| (r.arrival, r.id));
        let mut events: EventQueue<Ev> = EventQueue::new();
        for (i, r) in requests.iter().enumerate() {
            events.schedule(r.arrival, Ev::Arrive(i));
        }
        let mut waiting: VecDeque<Seq> = VecDeque::new();
        let mut running: Vec<Seq> = Vec::new();
        let mut inflight: Option<Inflight> = None;
        let mut completions = Vec::with_capacity(requests.len());

        while let Some((now, ev)) = events.pop() {
            match ev {
                Ev::Arrive(i) => {
                    let req = requests[i].clone();
                    let rng = Rng::derive(self.cfg.seed, &[req.id]);
                    waiting.push_back(self.make_seq(req, rng));
                }
                Ev::StepDone => {
                    let batch = inflight.take().expect("one batch in flight");
                    self.apply_step(batch, &mut running, &mut waiting, &mut completions, now);
                }
            }
            if inflight.is_none() {
                self.admit(&mut waiting, &mut running, &mut completions, now);
                if let Some((batch, duration)) = self.build_and_exec(&mut running) {
                    inflight = Some(batch);
                    events.schedule(now + duration, Ev::StepDone);
                }
            }
        }
        debug_assert!(running.is_empty() && waiting.is_empty());
        self.stats.completed = completions.len() as u64;
        self.stats.makespan = completions
            .iter()
            .map(|c| c.finished_at)
            .max()
            .unwrap_or(SimTime::ZERO)
            .duration_since(SimTime::ZERO);
        if let Some(cache) = &self.cache {
            self.stats.cache_evictions = cache.evictions();
        }
        (completions, self.stats)
    }

    /// Read access to the underlying store (tests).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Total virtual time the GPU spent busy.
    pub fn gpu_busy(&self) -> symphony_sim::SimDuration {
        self.gpu.metrics().busy
    }

    fn make_seq(&mut self, req: PromptRequest, rng: Rng) -> Seq {
        Seq {
            req,
            file: FileId(0), // assigned at admission
            cached: 0,
            produced: Vec::new(),
            next_token: None,
            first_token_at: None,
            phase: Phase::Prefill,
            reserved: 0,
            rng,
        }
    }

    /// Pages a sequence must be able to allocate: the prompt suffix it will
    /// prefill plus a decode reserve (the whole `max_tokens` budget under
    /// conservative admission; one page under optimistic admission).
    fn reservation_pages(&self, prefill_tokens: usize, max_tokens: usize) -> usize {
        let pt = self.cfg.page_tokens;
        let reserve = if self.cfg.conservative_admission {
            max_tokens
        } else {
            pt
        };
        (prefill_tokens + reserve).div_ceil(pt)
    }

    fn admit(
        &mut self,
        waiting: &mut VecDeque<Seq>,
        running: &mut Vec<Seq>,
        completions: &mut Vec<Completion>,
        now: SimTime,
    ) {
        while running.len() < self.cfg.max_batch {
            let Some(seq) = waiting.front() else { break };
            // Prefix-cache lookup (bounded to leave at least one token to
            // prefill, so every sequence gets a distribution). Eviction can
            // remove the matched entry, so re-look-up after each eviction.
            // Pages already promised to running sequences but not yet
            // allocated; admission must not double-book them.
            let outstanding: usize = running.iter().map(|s| s.reserved).sum();
            let (hit, covered, needed) = loop {
                let hit = self.cache.as_mut().and_then(|c| c.lookup(&seq.req.prompt));
                let covered = hit
                    .map(|h| h.covered.min(seq.req.prompt.len().saturating_sub(1)))
                    .unwrap_or(0);
                let needed =
                    self.reservation_pages(seq.req.prompt.len() - covered, seq.req.max_tokens);
                if self.store.gpu_pages_free() >= outstanding + needed {
                    break (hit, covered, needed);
                }
                let evicted = self
                    .cache
                    .as_mut()
                    .is_some_and(|c| c.evict_lru(&mut self.store));
                if !evicted {
                    break (hit, covered, needed);
                }
            };
            if self.store.gpu_pages_free() < outstanding + needed {
                if running.is_empty() && outstanding == 0 {
                    // Nothing will ever free enough memory: fail the request.
                    let seq = waiting.pop_front().expect("checked front");
                    completions.push(Completion {
                        id: seq.req.id,
                        arrival: seq.req.arrival,
                        first_token_at: None,
                        finished_at: now,
                        tokens: Vec::new(),
                        cached_prompt_tokens: 0,
                        failed: true,
                    });
                    continue;
                }
                break;
            }
            let mut seq = waiting.pop_front().expect("checked front");
            let file = match hit {
                Some(h) if covered > 0 => {
                    let f = self
                        .store
                        .fork(h.file, self.owner)
                        .expect("cache files are owned by the engine");
                    self.store
                        .truncate(f, self.owner, covered)
                        .expect("covered <= cached length");
                    f
                }
                _ => self.store.create(self.owner).expect("create is infallible"),
            };
            seq.file = file;
            seq.cached = covered;
            seq.reserved = needed;
            self.stats.prompt_tokens += seq.req.prompt.len() as u64;
            self.stats.cached_prompt_tokens += covered as u64;
            running.push(seq);
        }
    }

    /// Builds one iteration batch from the running set and executes it.
    /// Returns `None` when nothing is runnable.
    fn build_and_exec(
        &mut self,
        running: &mut [Seq],
    ) -> Option<(Inflight, symphony_sim::SimDuration)> {
        let mut seq_ids = Vec::new();
        let mut reqs = Vec::new();
        for seq in running.iter() {
            match seq.phase {
                Phase::Prefill => {
                    let tokens: Vec<(TokenId, u32)> = seq.req.prompt[seq.cached..]
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| (t, (seq.cached + i) as u32))
                        .collect();
                    seq_ids.push(seq.req.id);
                    reqs.push(PredRequest {
                        file: seq.file,
                        owner: self.owner,
                        tokens,
                    });
                }
                Phase::Decode => {
                    let tok = seq.next_token.expect("decode seq has a pending token");
                    let pos = (seq.req.prompt.len() + seq.produced.len() - 1) as u32;
                    seq_ids.push(seq.req.id);
                    reqs.push(PredRequest {
                        file: seq.file,
                        owner: self.owner,
                        tokens: vec![(tok, pos)],
                    });
                }
            }
        }
        if reqs.is_empty() {
            return None;
        }
        let (results, report) = self.gpu.execute_batch(&mut self.store, &reqs);
        // Floor the step duration: a fully-failed batch (e.g. every append
        // hit OOM) reports zero work, and a zero-length step would spin the
        // event loop at one instant forever.
        let duration = report
            .duration
            .max(symphony_sim::SimDuration::from_micros(50));
        Some((Inflight { seq_ids, results }, duration))
    }

    fn sample(seq: &mut Seq, dist: &Dist, vocab_hint: u32) -> TokenId {
        if seq.req.temperature == 0.0 {
            dist.argmax()
        } else {
            let d = dist.with_temperature(seq.req.temperature);
            d.sample_with(seq.rng.next_f64(), vocab_hint)
        }
    }

    fn apply_step(
        &mut self,
        batch: Inflight,
        running: &mut Vec<Seq>,
        waiting: &mut VecDeque<Seq>,
        completions: &mut Vec<Completion>,
        now: SimTime,
    ) {
        let mut finished: Vec<u64> = Vec::new();
        let mut preempted: Vec<u64> = Vec::new();
        let mut progressed = false;
        for (sid, result) in batch.seq_ids.iter().zip(batch.results) {
            let seq = running
                .iter_mut()
                .find(|s| s.req.id == *sid)
                .expect("batched seq is running");
            match result {
                Ok(preds) => {
                    progressed = true;
                    let dist = preds.last().expect("non-empty pred");
                    if seq.phase == Phase::Prefill {
                        seq.phase = Phase::Decode;
                        // Prompt pages are now physically allocated; keep
                        // only the decode reserve booked.
                        seq.reserved = self.reservation_pages(0, seq.req.max_tokens);
                    }
                    let tok = Self::sample(seq, &dist, self.vocab_hint);
                    if tok == self.eos {
                        finished.push(*sid);
                        continue;
                    }
                    if seq.first_token_at.is_none() {
                        seq.first_token_at = Some(now);
                    }
                    seq.produced.push(tok);
                    seq.next_token = Some(tok);
                    if seq.produced.len() >= seq.req.max_tokens {
                        finished.push(*sid);
                    }
                }
                Err(ExecError::Kv(KvError::NoGpuMemory)) => {
                    // Memory pressure: evict cache; preempt if allowed.
                    let mut freed = false;
                    while self.store.gpu_pages_free() == 0 {
                        let evicted = self
                            .cache
                            .as_mut()
                            .is_some_and(|c| c.evict_lru(&mut self.store));
                        if !evicted {
                            break;
                        }
                        freed = true;
                    }
                    if !freed && self.cfg.preemption {
                        preempted.push(*sid);
                    }
                    // Otherwise retry the same token next iteration.
                }
                Err(_) => {
                    // Unexpected executor failure: fail the request.
                    finished.push(*sid);
                }
            }
        }
        // Livelock breaker: if several consecutive iterations made zero
        // progress (every append OOMed and nothing could be evicted), force
        // a preemption-by-recompute of the newest sequence so the rest can
        // move — the last-resort behaviour real engines implement.
        if progressed {
            self.stalled_steps = 0;
        } else {
            self.stalled_steps += 1;
            if self.stalled_steps >= 3 {
                if let Some(seq) = running.last() {
                    preempted.push(seq.req.id);
                }
                self.stalled_steps = 0;
            }
        }
        for sid in finished {
            let idx = running
                .iter()
                .position(|s| s.req.id == sid)
                .expect("finished seq present");
            let seq = running.remove(idx);
            self.finish(seq, completions, now);
        }
        for sid in preempted {
            let Some(idx) = running.iter().position(|s| s.req.id == sid) else {
                continue;
            };
            let mut seq = running.remove(idx);
            let _ = self.store.remove(seq.file, self.owner);
            seq.file = FileId(0);
            seq.cached = 0;
            seq.produced.clear();
            seq.next_token = None;
            seq.first_token_at = None;
            seq.phase = Phase::Prefill;
            seq.reserved = 0;
            self.stats.preemptions += 1;
            waiting.push_front(seq);
        }
    }

    fn finish(&mut self, seq: Seq, completions: &mut Vec<Completion>, now: SimTime) {
        self.stats.generated_tokens += seq.produced.len() as u64;
        completions.push(Completion {
            id: seq.req.id,
            arrival: seq.req.arrival,
            first_token_at: seq.first_token_at,
            finished_at: now,
            tokens: seq.produced,
            cached_prompt_tokens: seq.cached,
            failed: false,
        });
        match &mut self.cache {
            // Keep only the prompt in the cached file.
            Some(cache)
                if self
                    .store
                    .truncate(seq.file, self.owner, seq.req.prompt.len())
                    .is_ok() =>
            {
                cache.insert(&mut self.store, seq.file, &seq.req.prompt);
            }
            _ => {
                let _ = self.store.remove(seq.file, self.owner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A preset shrunk to the tiny model on the test device.
    fn small(preset: EngineConfig) -> EngineConfig {
        EngineConfig {
            model: ModelConfig::tiny(),
            model_seed: 7,
            device: DeviceSpec::test_device(),
            page_tokens: 4,
            max_batch: 16,
            ..preset
        }
    }

    fn reqs(bpe: &Bpe, prompts: &[(&str, u64)]) -> Vec<PromptRequest> {
        prompts
            .iter()
            .map(|&(p, id)| PromptRequest {
                id,
                arrival: SimTime::ZERO,
                prompt: bpe.encode(p),
                max_tokens: 16,
                temperature: 0.0,
            })
            .collect()
    }

    #[test]
    fn serves_requests_to_completion() {
        let mut e = Engine::new(small(EngineConfig::vllm_like()));
        let bpe = Bpe::default_tokenizer();
        let (completions, stats) = e.run(reqs(
            bpe,
            &[("the cache design of the system", 1), ("another prompt", 2)],
        ));
        assert_eq!(completions.len(), 2);
        assert_eq!(stats.completed, 2);
        assert!(stats.generated_tokens > 0);
        for c in &completions {
            assert!(c.finished_at > c.arrival);
            if !c.tokens.is_empty() {
                assert!(c.first_token_at.is_some());
            }
        }
        e.store().verify().unwrap();
    }

    #[test]
    fn greedy_output_is_deterministic_and_engine_agnostic() {
        let bpe = Bpe::default_tokenizer();
        let run = |cfg: EngineConfig| {
            let mut e = Engine::new(cfg);
            let (mut c, _) = e.run(reqs(bpe, &[("a deterministic prompt about tokens", 1)]));
            c.pop().unwrap().tokens
        };
        let v1 = run(small(EngineConfig::vllm_like()));
        let v2 = run(small(EngineConfig::vllm_like()));
        let t1 = run(small(EngineConfig::tgi_like()));
        assert_eq!(v1, v2, "same engine, same output");
        assert_eq!(v1, t1, "same model semantics across engines");
    }

    #[test]
    fn prefix_cache_hits_on_repeated_document() {
        let bpe = Bpe::default_tokenizer();
        let doc = "the shared document context that is long enough to span pages ".repeat(4);
        let requests: Vec<PromptRequest> = (0..6)
            .map(|i| PromptRequest {
                id: i,
                arrival: SimTime::ZERO + symphony_sim::SimDuration::from_millis(i * 200),
                prompt: bpe.encode(&format!("{doc} query number {i}")),
                max_tokens: 8,
                temperature: 0.0,
            })
            .collect();
        let mut vllm = Engine::new(small(EngineConfig::vllm_like()));
        let (_, vstats) = vllm.run(requests.clone());
        assert!(
            vstats.cached_prompt_tokens > 0,
            "later requests should hit the doc prefix"
        );
        let mut tgi = Engine::new(small(EngineConfig::tgi_like()));
        let (_, tstats) = tgi.run(requests);
        assert_eq!(tstats.cached_prompt_tokens, 0, "TGI never caches");
        assert!(vstats.cache_hit_rate() > tstats.cache_hit_rate());
    }

    #[test]
    fn cache_hit_preserves_output() {
        let bpe = Bpe::default_tokenizer();
        let doc = "document text for equivalence checking repeated often ".repeat(3);
        let mk = |id: u64, at_ms: u64| PromptRequest {
            id,
            arrival: SimTime::ZERO + symphony_sim::SimDuration::from_millis(at_ms),
            prompt: bpe.encode(&format!("{doc} same query")),
            max_tokens: 12,
            temperature: 0.0,
        };
        // Request 2 arrives after request 1 finished; it hits the cache but
        // must produce identical output for the identical prompt.
        let mut e = Engine::new(small(EngineConfig::vllm_like()));
        let (completions, stats) = e.run(vec![mk(1, 0), mk(2, 60_000)]);
        assert!(stats.cached_prompt_tokens > 0, "second request must hit");
        let a = completions.iter().find(|c| c.id == 1).unwrap();
        let b = completions.iter().find(|c| c.id == 2).unwrap();
        assert_eq!(a.tokens, b.tokens, "cache reuse must not change output");
        assert!(b.cached_prompt_tokens > 0);
    }

    #[test]
    fn batching_overlaps_concurrent_requests() {
        let bpe = Bpe::default_tokenizer();
        // 8 simultaneous requests should finish much sooner than 8x a single
        // request's latency thanks to batched decoding.
        let single: Vec<PromptRequest> = reqs(bpe, &[("prompt one two three", 1)]);
        let mut e1 = Engine::new(small(EngineConfig::tgi_like()));
        let (c1, _) = e1.run(single);
        let single_latency = c1[0].latency();
        let batch: Vec<PromptRequest> = (0..8)
            .map(|i| PromptRequest {
                id: i,
                arrival: SimTime::ZERO,
                prompt: bpe.encode("prompt one two three"),
                max_tokens: 16,
                temperature: 0.0,
            })
            .collect();
        let mut e8 = Engine::new(small(EngineConfig::tgi_like()));
        let (c8, _) = e8.run(batch);
        let worst = c8.iter().map(|c| c.latency()).max().unwrap();
        assert!(
            worst.as_secs_f64() < single_latency.as_secs_f64() * 4.0,
            "8 batched requests should not cost 8x: worst={worst} single={single_latency}"
        );
    }

    #[test]
    fn memory_pressure_evicts_cache_and_completes() {
        let bpe = Bpe::default_tokenizer();
        let mut cfg = small(EngineConfig::vllm_like());
        // Small pool: 24 pages of 4 tokens (tiny model: 512 B/token).
        cfg.gpu_kv_bytes_override = Some(24 * 4 * 512);
        let mut e = Engine::new(cfg);
        // Several distinct documents so the cache fills and must evict.
        let requests: Vec<PromptRequest> = (0..8)
            .map(|i| PromptRequest {
                id: i,
                arrival: SimTime::ZERO + symphony_sim::SimDuration::from_millis(i * 300),
                prompt: bpe.encode(&format!(
                    "distinct document number {i} with plenty of words to fill pages \
                     and then some more words to make it longer"
                )),
                max_tokens: 8,
                temperature: 0.0,
            })
            .collect();
        let (completions, stats) = e.run(requests);
        assert_eq!(completions.len(), 8, "all requests complete despite pressure");
        assert!(stats.cache_evictions > 0, "cache must have been evicted");
        e.store().verify().unwrap();
    }

    #[test]
    fn oversized_prompt_fails_cleanly() {
        let mut cfg = small(EngineConfig::tgi_like());
        cfg.gpu_kv_bytes_override = Some(4 * 4 * 512); // 4 pages = 16 tokens
        let mut e = Engine::new(cfg);
        let bpe = Bpe::default_tokenizer();
        let (completions, _) = e.run(vec![PromptRequest {
            id: 1,
            arrival: SimTime::ZERO,
            prompt: bpe.encode(&"far too long a prompt ".repeat(20)),
            max_tokens: 4,
            temperature: 0.0,
        }]);
        assert_eq!(completions.len(), 1);
        assert!(completions[0].failed, "request must be marked failed");
        assert!(completions[0].tokens.is_empty(), "failed request, empty output");
        e.store().verify().unwrap();
    }
}
