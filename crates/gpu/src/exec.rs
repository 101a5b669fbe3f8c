//! The batch executor: turns `pred` requests into distributions, KV entries
//! and virtual time.

use symphony_kvfs::{FileId, KvEntry, KvError, KvStore, OwnerId, Residency, SwapReport};
use symphony_model::{Dist, Surrogate, TokenId, WorkEstimate};
use symphony_sim::{SimDuration, SimTime};
use symphony_telemetry::{Counter, MetricsRegistry};

use crate::device::DeviceSpec;

/// One `pred` call inside a batch: run `tokens` through the model on top of
/// the context cached in `file`.
#[derive(Debug, Clone)]
pub struct PredRequest {
    /// KV file holding the cached context; receives the new entries.
    pub file: FileId,
    /// Owner on whose behalf the append is performed.
    pub owner: OwnerId,
    /// `(token, absolute position)` pairs, in context order.
    pub tokens: Vec<(TokenId, u32)>,
}

/// Result of one `pred` request: a distribution per input token.
#[derive(Debug, Clone, PartialEq)]
pub struct PredResult {
    /// `dists[i]` is the next-token distribution after `tokens[..=i]`.
    pub dists: Vec<Dist>,
}

/// Why a single request inside a batch failed (the batch itself proceeds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The KV file was missing or the append failed.
    Kv(KvError),
    /// The file has pages swapped out of the GPU tier.
    NotResident,
    /// The request carried no tokens.
    EmptyRequest,
    /// A transient execution fault hit this request (injected or hardware);
    /// its work was lost and no KV entries were appended. Retryable.
    Faulted,
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::Kv(e) => write!(f, "kv error: {e}"),
            ExecError::NotResident => write!(f, "file not resident in GPU tier"),
            ExecError::EmptyRequest => write!(f, "pred with no tokens"),
            ExecError::Faulted => write!(f, "transient execution fault"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Timing and work report for one executed batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchReport {
    /// Virtual time the batch occupied the GPU.
    pub duration: SimDuration,
    /// Requests in the batch (including failed ones).
    pub requests: usize,
    /// New tokens processed.
    pub new_tokens: u64,
    /// Cached context tokens attended over.
    pub past_tokens: u64,
    /// Time the roofline attributed to compute.
    pub compute_time: SimDuration,
    /// Time the roofline attributed to HBM traffic.
    pub memory_time: SimDuration,
}

/// Cumulative executor metrics — a point-in-time snapshot of the executor's
/// counters in the unified metrics registry (`gpu.*`).
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuMetrics {
    /// Batches executed.
    pub batches: u64,
    /// Total new tokens processed.
    pub tokens: u64,
    /// Total busy time.
    pub busy: SimDuration,
    /// Total requests served (successful only).
    pub requests_ok: u64,
    /// Requests that failed inside batches.
    pub requests_failed: u64,
    /// Requests lost to transient execution faults (subset of failed).
    pub requests_faulted: u64,
}

/// Live counter handles into the metrics registry backing [`GpuMetrics`].
#[derive(Debug, Clone)]
struct GpuCounters {
    batches: Counter,
    tokens: Counter,
    busy_ns: Counter,
    requests_ok: Counter,
    requests_failed: Counter,
    requests_faulted: Counter,
}

impl GpuCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        GpuCounters {
            batches: registry.counter("gpu.batches"),
            tokens: registry.counter("gpu.tokens"),
            busy_ns: registry.counter("gpu.busy_ns"),
            requests_ok: registry.counter("gpu.requests_ok"),
            requests_failed: registry.counter("gpu.requests_failed"),
            requests_faulted: registry.counter("gpu.requests_faulted"),
        }
    }
}

/// One direction of the host link: a DMA engine that runs beside the SMs,
/// busy until `free_at`. A pure function of virtual time.
#[derive(Debug)]
struct CopyLane {
    free_at: SimTime,
    busy_ns: Counter,
}

impl CopyLane {
    /// Queues a transfer that may start at `not_before` behind whatever
    /// the lane already carries; returns its completion time.
    fn reserve(&mut self, not_before: SimTime, transfer: SimDuration) -> SimTime {
        if transfer == SimDuration::ZERO {
            return not_before;
        }
        let done = not_before.max(self.free_at) + transfer;
        self.free_at = done;
        self.busy_ns.add(transfer.as_nanos());
        done
    }
}

/// The simulated GPU executor.
#[derive(Debug)]
pub struct GpuExecutor {
    device: DeviceSpec,
    model: Surrogate,
    counters: GpuCounters,
    /// Host→device and device→host copy lanes (PCIe is full duplex), so KV
    /// swap traffic overlaps compute instead of extending a batch.
    h2d: CopyLane,
    d2h: CopyLane,
}

impl GpuExecutor {
    /// Creates an executor for a device/model pair with a private metrics
    /// registry.
    pub fn new(device: DeviceSpec, model: Surrogate) -> Self {
        GpuExecutor::with_registry(device, model, &MetricsRegistry::new())
    }

    /// Creates an executor whose counters live in `registry` under the
    /// `gpu.*` names.
    pub fn with_registry(device: DeviceSpec, model: Surrogate, registry: &MetricsRegistry) -> Self {
        GpuExecutor {
            device,
            model,
            counters: GpuCounters::register(registry),
            h2d: CopyLane {
                free_at: SimTime::ZERO,
                busy_ns: registry.counter("gpu.copy.h2d_busy_ns"),
            },
            d2h: CopyLane {
                free_at: SimTime::ZERO,
                busy_ns: registry.counter("gpu.copy.d2h_busy_ns"),
            },
        }
    }

    /// The device spec.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The surrogate model.
    pub fn model(&self) -> &Surrogate {
        &self.model
    }

    /// Cumulative metrics (a snapshot of the `gpu.*` counters).
    pub fn metrics(&self) -> GpuMetrics {
        GpuMetrics {
            batches: self.counters.batches.get(),
            tokens: self.counters.tokens.get(),
            busy: SimDuration::from_nanos(self.counters.busy_ns.get()),
            requests_ok: self.counters.requests_ok.get(),
            requests_failed: self.counters.requests_failed.get(),
            requests_faulted: self.counters.requests_faulted.get(),
        }
    }

    /// Roofline time for a batch's accumulated work.
    pub fn batch_time(&self, work: &WorkEstimate) -> SimDuration {
        let (c, m) = self.roofline_parts(work);
        SimDuration::from_nanos(self.device.batch_overhead_ns) + c.max(m)
    }

    fn roofline_parts(&self, work: &WorkEstimate) -> (SimDuration, SimDuration) {
        let compute = work.flops / (self.device.peak_flops * self.device.mfu);
        let memory = work.total_bytes() as f64 / self.device.hbm_bandwidth;
        (
            SimDuration::from_secs_f64(compute),
            SimDuration::from_secs_f64(memory),
        )
    }

    /// The ridge of this device × model roofline, in tokens per iteration:
    /// the most new tokens whose linear-layer compute (`2 × params` FLOPs
    /// each) still hides under the one weight stream every iteration pays
    /// (`params × dtype_bytes` over HBM). Up to the ridge a token is free;
    /// past it every token lengthens the iteration for the whole batch.
    /// `params` cancels, so the ridge is a property of the device and the
    /// weight precision: 78 on an A100-80G, 132 on an H100, in FP16. The
    /// scheduler reads its per-iteration token budget from here, so the
    /// policy cannot drift from the cost model above.
    pub fn ridge_tokens(&self) -> usize {
        let dtype_bytes = f64::from(self.model.config().dtype_bytes);
        let ridge = dtype_bytes * self.device.peak_flops * self.device.mfu
            / (2.0 * self.device.hbm_bandwidth);
        (ridge as usize).max(1)
    }

    /// Books a swap-in's traffic on the host→device lane, starting no
    /// earlier than `not_before`; returns when the last byte has landed.
    /// DRAM tokens cross PCIe, disk tokens the (slower) NVMe lane.
    pub fn copy_in(
        &mut self,
        not_before: SimTime,
        moved: SwapReport,
        bytes_per_token: u64,
    ) -> SimTime {
        let transfer = self.copy_time(moved, bytes_per_token);
        self.h2d.reserve(not_before, transfer)
    }

    /// Books a swap-out's traffic on the device→host lane; returns when
    /// the GPU pages it vacates are actually free. Clean drops move
    /// nothing and complete at `not_before`.
    pub fn copy_out(
        &mut self,
        not_before: SimTime,
        moved: SwapReport,
        bytes_per_token: u64,
    ) -> SimTime {
        let transfer = self.copy_time(moved, bytes_per_token);
        self.d2h.reserve(not_before, transfer)
    }

    fn copy_time(&self, moved: SwapReport, bytes_per_token: u64) -> SimDuration {
        self.device
            .transfer_time(moved.dram_tokens as u64 * bytes_per_token)
            + self
                .device
                .disk_transfer_time(moved.disk_tokens as u64 * bytes_per_token)
    }

    /// Executes a batch of `pred` requests against the KV store.
    ///
    /// Each request independently succeeds or fails; a failed request does
    /// not abort the batch (its work simply is not charged). For every
    /// successful request the file gains one [`KvEntry`] per input token and
    /// the result carries one [`Dist`] per input token.
    pub fn execute_batch(
        &mut self,
        store: &mut KvStore,
        requests: &[PredRequest],
    ) -> (Vec<Result<PredResult, ExecError>>, BatchReport) {
        self.execute_batch_with_faults(store, requests, &[])
    }

    /// [`GpuExecutor::execute_batch`] with per-request transient faults.
    ///
    /// `faulted[i]` marks request `i` as hit by a transient execution fault:
    /// it performs no model work, appends nothing, and reports
    /// [`ExecError::Faulted`]. Indices beyond `faulted.len()` are unfaulted,
    /// so an empty slice means a clean batch.
    pub fn execute_batch_with_faults(
        &mut self,
        store: &mut KvStore,
        requests: &[PredRequest],
        faulted: &[bool],
    ) -> (Vec<Result<PredResult, ExecError>>, BatchReport) {
        let fpr = self.model.fingerprinter();
        let mut results = Vec::with_capacity(requests.len());
        let mut work = WorkEstimate::default();
        let mut new_tokens = 0u64;
        let mut past_tokens = 0u64;

        for (i, req) in requests.iter().enumerate() {
            if faulted.get(i).copied().unwrap_or(false) {
                results.push(Err(ExecError::Faulted));
                self.counters.requests_failed.inc();
                self.counters.requests_faulted.inc();
                continue;
            }
            if req.tokens.is_empty() {
                results.push(Err(ExecError::EmptyRequest));
                self.counters.requests_failed.inc();
                continue;
            }
            let resident = match store.residency(req.file) {
                Ok(Residency::Gpu) | Ok(Residency::Empty) => true,
                Ok(_) => false,
                Err(e) => {
                    results.push(Err(ExecError::Kv(e)));
                    self.counters.requests_failed.inc();
                    continue;
                }
            };
            if !resident {
                results.push(Err(ExecError::NotResident));
                self.counters.requests_failed.inc();
                continue;
            }
            // Fail fast if the entries cannot fit: computing distributions
            // for a doomed append would waste both model work and wall time.
            match store.can_append(req.file, req.tokens.len()) {
                Ok(true) => {}
                Ok(false) => {
                    results.push(Err(ExecError::Kv(KvError::NoGpuMemory)));
                    self.counters.requests_failed.inc();
                    continue;
                }
                Err(e) => {
                    results.push(Err(ExecError::Kv(e)));
                    self.counters.requests_failed.inc();
                    continue;
                }
            }
            // `can_append` above vouched for the file, but surface any
            // late lookup failure as a typed per-request error rather than
            // panicking the executor (lint rule k1).
            let (past, tail) = match (store.len(req.file), store.tail_fingerprint(req.file)) {
                (Ok(len), Ok(tail)) => (len as u64, tail),
                (Err(e), _) | (_, Err(e)) => {
                    results.push(Err(ExecError::Kv(e)));
                    self.counters.requests_failed.inc();
                    continue;
                }
            };
            let mut fp = tail.unwrap_or_else(|| fpr.origin());

            let mut dists = Vec::with_capacity(req.tokens.len());
            let mut entries = Vec::with_capacity(req.tokens.len());
            for &(tok, pos) in &req.tokens {
                fp = fpr.advance(fp, tok, pos);
                dists.push(self.model.next_dist(fp));
                entries.push(KvEntry::new(tok, pos, fp));
            }
            match store.append(req.file, req.owner, &entries) {
                Ok(()) => {
                    work.accumulate(
                        &self
                            .model
                            .config()
                            .forward_work(req.tokens.len() as u64, past),
                    );
                    new_tokens += req.tokens.len() as u64;
                    past_tokens += past;
                    self.counters.requests_ok.inc();
                    results.push(Ok(PredResult { dists }));
                }
                Err(e) => {
                    self.counters.requests_failed.inc();
                    results.push(Err(ExecError::Kv(e)));
                }
            }
        }

        let duration = if new_tokens > 0 {
            self.batch_time(&work)
        } else {
            SimDuration::ZERO
        };
        let (compute_time, memory_time) = self.roofline_parts(&work);
        self.counters.batches.inc();
        self.counters.tokens.add(new_tokens);
        self.counters.busy_ns.add(duration.as_nanos());

        (
            results,
            BatchReport {
                duration,
                requests: requests.len(),
                new_tokens,
                past_tokens,
                compute_time,
                memory_time,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_kvfs::KvStoreConfig;
    use symphony_model::ModelConfig;

    const U1: OwnerId = OwnerId(1);

    fn setup() -> (GpuExecutor, KvStore) {
        let model = Surrogate::new(ModelConfig::tiny(), 7);
        (
            GpuExecutor::new(DeviceSpec::test_device(), model),
            KvStore::new(KvStoreConfig::for_tests()),
        )
    }

    fn req(file: FileId, tokens: Vec<(TokenId, u32)>) -> PredRequest {
        PredRequest {
            file,
            owner: U1,
            tokens,
        }
    }

    #[test]
    fn pred_appends_entries_and_returns_dists() {
        let (mut gpu, mut store) = setup();
        let f = store.create(U1).unwrap();
        let (res, report) = gpu.execute_batch(&mut store, &[req(f, vec![(1, 0), (2, 1), (3, 2)])]);
        let out = res[0].as_ref().unwrap();
        assert_eq!(out.dists.len(), 3);
        assert_eq!(store.len(f).unwrap(), 3);
        assert_eq!(report.new_tokens, 3);
        assert!(report.duration.as_nanos() >= gpu.device().batch_overhead_ns);
        store.verify().unwrap();
    }

    #[test]
    fn incremental_pred_equals_one_shot() {
        // KV-reuse invariant at the executor level: feeding a prompt in two
        // pred calls yields the same final distribution as one call.
        let (mut gpu, mut store) = setup();
        let a = store.create(U1).unwrap();
        let b = store.create(U1).unwrap();
        let (res_one, _) =
            gpu.execute_batch(&mut store, &[req(a, vec![(5, 0), (6, 1), (7, 2)])]);
        let (res_first, _) = gpu.execute_batch(&mut store, &[req(b, vec![(5, 0), (6, 1)])]);
        let (res_second, _) = gpu.execute_batch(&mut store, &[req(b, vec![(7, 2)])]);
        let one = res_one[0].as_ref().unwrap();
        let _ = res_first[0].as_ref().unwrap();
        let second = res_second[0].as_ref().unwrap();
        assert_eq!(one.dists[2], second.dists[0]);
        store.verify().unwrap();
    }

    #[test]
    fn forked_file_continues_identically() {
        let (mut gpu, mut store) = setup();
        let a = store.create(U1).unwrap();
        gpu.execute_batch(&mut store, &[req(a, vec![(5, 0), (6, 1)])]);
        let b = store.fork(a, U1).unwrap();
        let (ra, _) = gpu.execute_batch(&mut store, &[req(a, vec![(9, 2)])]);
        let (rb, _) = gpu.execute_batch(&mut store, &[req(b, vec![(9, 2)])]);
        assert_eq!(
            ra[0].as_ref().unwrap().dists[0],
            rb[0].as_ref().unwrap().dists[0]
        );
        store.verify().unwrap();
    }

    #[test]
    fn batching_amortises_weight_reads() {
        let model = Surrogate::new(ModelConfig::llama_13b(), 7);
        let gpu = GpuExecutor::new(DeviceSpec::a100_80g(), model);
        let cfg = ModelConfig::llama_13b();
        // One decode step, batch of 1 vs batch of 8.
        let single = gpu.batch_time(&cfg.forward_work(1, 500));
        let mut batch8 = symphony_model::WorkEstimate::default();
        for _ in 0..8 {
            batch8.accumulate(&cfg.forward_work(1, 500));
        }
        let eight = gpu.batch_time(&batch8);
        // 8x the tokens for well under 2x the time.
        assert!(
            eight.as_secs_f64() < single.as_secs_f64() * 2.0,
            "batching should amortise: single={single} batch8={eight}"
        );
        // Sanity: single-stream 13B decode lands around 13 ms.
        let ms = single.as_millis_f64();
        assert!((10.0..20.0).contains(&ms), "decode step = {ms} ms");
    }

    #[test]
    fn prefill_3000_tokens_takes_fraction_of_second() {
        let model = Surrogate::new(ModelConfig::llama_13b(), 7);
        let gpu = GpuExecutor::new(DeviceSpec::a100_80g(), model);
        let t = gpu
            .batch_time(&ModelConfig::llama_13b().forward_work(3000, 0))
            .as_secs_f64();
        assert!((0.2..1.5).contains(&t), "prefill took {t}s");
    }

    #[test]
    fn cached_prefix_speeds_up_suffix() {
        let model = Surrogate::new(ModelConfig::llama_13b(), 7);
        let gpu = GpuExecutor::new(DeviceSpec::a100_80g(), model);
        let cfg = ModelConfig::llama_13b();
        let cold = gpu.batch_time(&cfg.forward_work(3_020, 0));
        let warm = gpu.batch_time(&cfg.forward_work(20, 3_000));
        assert!(
            warm.as_secs_f64() * 5.0 < cold.as_secs_f64(),
            "cache hit should be much faster: warm={warm} cold={cold}"
        );
    }

    #[test]
    fn ridge_is_where_linear_compute_meets_the_weight_stream() {
        let ridge = |device: DeviceSpec, cfg: ModelConfig| {
            GpuExecutor::new(device, Surrogate::new(cfg, 7)).ridge_tokens()
        };
        assert_eq!(ridge(DeviceSpec::a100_80g(), ModelConfig::llama_13b()), 78);
        // `params` cancels: the ridge belongs to the device and the dtype.
        assert_eq!(ridge(DeviceSpec::a100_80g(), ModelConfig::llama_7b()), 78);
        assert_eq!(ridge(DeviceSpec::h100_80g(), ModelConfig::llama_13b()), 132);
        // Never zero, however compute-starved the device: a zero budget
        // would schedule nothing.
        let starved = DeviceSpec {
            peak_flops: 1e9,
            ..DeviceSpec::a100_80g()
        };
        assert_eq!(ridge(starved, ModelConfig::llama_13b()), 1);
    }

    #[test]
    fn ridge_is_the_knee_of_chunked_prefill_time() {
        // On the real cost function: a 2 048-token prefill cut at the ridge
        // costs about what the unchunked pass costs (every chunk's compute
        // hides under the weight stream it needs anyway), and cut at half
        // the ridge about twice that (half of every stream is idle compute).
        let cfg = ModelConfig::llama_13b();
        let gpu = GpuExecutor::new(DeviceSpec::a100_80g(), Surrogate::new(cfg, 7));
        let chunked = |chunk: u64| -> f64 {
            cfg.chunked_prefill_work(2_048, 0, chunk)
                .iter()
                .map(|w| gpu.batch_time(w).as_secs_f64())
                .sum()
        };
        let whole = chunked(2_048);
        let ridge = gpu.ridge_tokens() as u64;
        assert!(
            chunked(ridge) <= whole * 1.1,
            "ridge-sized chunks: {} s against {whole} s unchunked",
            chunked(ridge)
        );
        assert!(
            chunked(ridge / 2) >= whole * 1.8,
            "half-ridge chunks: {} s against {whole} s unchunked",
            chunked(ridge / 2)
        );
    }

    #[test]
    fn failed_requests_do_not_abort_batch() {
        let (mut gpu, mut store) = setup();
        let good = store.create(U1).unwrap();
        let missing = FileId(999);
        let (res, report) = gpu.execute_batch(
            &mut store,
            &[
                req(missing, vec![(1, 0)]),
                req(good, vec![(1, 0)]),
                req(good, vec![]),
            ],
        );
        assert_eq!(res[0], Err(ExecError::Kv(KvError::NotFound)));
        assert!(res[1].is_ok());
        assert_eq!(res[2], Err(ExecError::EmptyRequest));
        assert_eq!(report.new_tokens, 1);
        assert_eq!(gpu.metrics().requests_ok, 1);
        assert_eq!(gpu.metrics().requests_failed, 2);
        store.verify().unwrap();
    }

    #[test]
    fn faulted_requests_do_no_work() {
        let (mut gpu, mut store) = setup();
        let a = store.create(U1).unwrap();
        let b = store.create(U1).unwrap();
        let (res, report) = gpu.execute_batch_with_faults(
            &mut store,
            &[req(a, vec![(1, 0)]), req(b, vec![(1, 0)])],
            &[true, false],
        );
        assert_eq!(res[0], Err(ExecError::Faulted));
        assert!(res[1].is_ok());
        assert_eq!(store.len(a).unwrap(), 0, "faulted request must not append");
        assert_eq!(store.len(b).unwrap(), 1);
        assert_eq!(report.new_tokens, 1);
        assert_eq!(gpu.metrics().requests_faulted, 1);
        assert_eq!(gpu.metrics().requests_failed, 1);
        assert_eq!(gpu.metrics().requests_ok, 1);
        store.verify().unwrap();
    }

    #[test]
    fn swapped_out_file_rejected() {
        let (mut gpu, mut store) = setup();
        let f = store.create(U1).unwrap();
        gpu.execute_batch(&mut store, &[req(f, vec![(1, 0)])]);
        store.swap_out(f, U1).unwrap();
        let (res, _) = gpu.execute_batch(&mut store, &[req(f, vec![(2, 1)])]);
        assert_eq!(res[0], Err(ExecError::NotResident));
        store.verify().unwrap();
    }

    #[test]
    fn disk_resident_file_rejected() {
        let (mut gpu, mut store) = setup();
        let f = store.create(U1).unwrap();
        gpu.execute_batch(&mut store, &[req(f, vec![(1, 0)])]);
        store.demote_to_disk(f, U1).unwrap();
        assert_eq!(store.residency(f).unwrap(), Residency::Disk);
        let (res, _) = gpu.execute_batch(&mut store, &[req(f, vec![(2, 1)])]);
        assert_eq!(res[0], Err(ExecError::NotResident));
        store.verify().unwrap();
    }

    #[test]
    fn copy_lanes_queue_per_direction_and_run_beside_each_other() {
        let (mut gpu, _) = setup();
        let t0 = SimTime::from_nanos(1_000);
        let dram = SwapReport {
            dram_tokens: 1_000,
            ..SwapReport::default()
        };
        let disk = SwapReport {
            disk_tokens: 1_000,
            ..SwapReport::default()
        };
        let one = gpu.copy_in(t0, dram, 2);
        assert!(one > t0);
        // Same lane: the second transfer queues behind the first.
        let two = gpu.copy_in(t0, dram, 2);
        assert_eq!(two - one, one - t0);
        // Full duplex: the other direction is idle and starts at once.
        assert_eq!(gpu.copy_out(t0, dram, 2), one);
        // Disk tokens cross the slower NVMe lane.
        let t1 = SimTime::from_nanos(10_000_000_000);
        assert!(gpu.copy_in(t1, disk, 2) - t1 > one - t0);
        // Clean drops move nothing and do not wait for the lane.
        let clean = SwapReport {
            dropped_tokens: 1_000,
            ..SwapReport::default()
        };
        assert_eq!(gpu.copy_out(t0, clean, 2), t0);
    }

    #[test]
    fn metrics_accumulate() {
        let (mut gpu, mut store) = setup();
        let f = store.create(U1).unwrap();
        gpu.execute_batch(&mut store, &[req(f, vec![(1, 0)])]);
        gpu.execute_batch(&mut store, &[req(f, vec![(2, 1)])]);
        let m = gpu.metrics();
        assert_eq!(m.batches, 2);
        assert_eq!(m.tokens, 2);
        assert!(m.busy.as_nanos() > 0);
    }
}
