//! Analytic cost accounting for forward passes.
//!
//! A forward pass over `new_tokens` with `past_tokens` of cached context
//! produces a [`WorkEstimate`]: FLOPs plus the bytes that must move through
//! HBM. The GPU simulator combines estimates across a batch (weights are
//! read **once per batch**, which is exactly why batching pays) and applies
//! a roofline rule to produce virtual time.

use serde::Serialize;

use crate::config::ModelConfig;

/// Work performed by (part of) a forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct WorkEstimate {
    /// Floating-point operations.
    pub flops: f64,
    /// Weight bytes that must be streamed from HBM (per batch, not per
    /// sequence; the GPU executor charges this once).
    pub weight_bytes: u64,
    /// KV-cache bytes read.
    pub kv_read_bytes: u64,
    /// KV-cache bytes written.
    pub kv_write_bytes: u64,
}

impl WorkEstimate {
    /// Accumulates per-sequence work (weight traffic is `max`ed, not summed,
    /// since one weight stream serves the whole batch).
    pub fn accumulate(&mut self, other: &WorkEstimate) {
        self.flops += other.flops;
        self.weight_bytes = self.weight_bytes.max(other.weight_bytes);
        self.kv_read_bytes += other.kv_read_bytes;
        self.kv_write_bytes += other.kv_write_bytes;
    }

    /// Total HBM traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.kv_read_bytes + self.kv_write_bytes
    }
}

/// A sequential I/O lane with fixed per-operation latency and streaming
/// bandwidth — the analytic cost model for the KVFS disk tier's NVMe link
/// (the third level of the storage hierarchy, below HBM and DRAM). Swap
/// traffic that crosses this lane is charged `base_latency + bytes/bw`,
/// which keeps disk swap-in visibly more expensive than a PCIe DRAM swap
/// of the same size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IoLane {
    /// Streaming bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Fixed latency per operation in seconds (seek/submission overhead).
    pub base_latency_s: f64,
}

impl IoLane {
    /// A datacenter NVMe SSD: ~3.5 GB/s sequential, ~100 µs access.
    pub fn nvme() -> Self {
        IoLane {
            bandwidth: 3.5e9,
            base_latency_s: 100e-6,
        }
    }

    /// Seconds to move `bytes` across the lane. Zero bytes cost nothing —
    /// a no-op swap must not be charged the base latency.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.base_latency_s + bytes as f64 / self.bandwidth
    }
}

impl ModelConfig {
    /// Estimates the work of running `new_tokens` through the model with
    /// `past_tokens` of context already cached.
    ///
    /// - Linear layers: `2 × params` FLOPs per new token.
    /// - Attention: `4 × layers × hidden` FLOPs per (new token, context
    ///   token) pair, with the triangular prefill structure accounted for by
    ///   using the average context length.
    /// - KV traffic: the cached context is read once and each new token's KV
    ///   entry is written once.
    pub fn forward_work(&self, new_tokens: u64, past_tokens: u64) -> WorkEstimate {
        if new_tokens == 0 {
            return WorkEstimate::default();
        }
        let n = new_tokens as f64;
        let avg_ctx = past_tokens as f64 + (n + 1.0) / 2.0;
        let flops_linear = 2.0 * self.params * n;
        let flops_attn =
            4.0 * self.num_layers as f64 * self.hidden_size as f64 * n * avg_ctx;
        let kv = self.kv_bytes_per_token();
        WorkEstimate {
            flops: flops_linear + flops_attn,
            weight_bytes: self.weight_bytes(),
            kv_read_bytes: (past_tokens + new_tokens / 2) * kv,
            kv_write_bytes: new_tokens * kv,
        }
    }

    /// Estimates the work of the same prefill split into `chunk`-token
    /// iterations, as the continuous-batching executor runs it: the
    /// `k`-th chunk sees all earlier chunks as cached past.
    ///
    /// Attention FLOPs are *identical* to the unchunked prefill — splitting
    /// Σ over the triangular prefill structure is exact — so chunking's
    /// only throughput cost is re-streaming the weights once per extra
    /// iteration (visible here as `weight_bytes` being per-iteration; the
    /// caller pays it `ceil(new/chunk)` times instead of once).
    // lint:allow(u1): the reference chunk decomposition the chunked-prefill tests compare the cost function against
    pub fn chunked_prefill_work(
        &self,
        new_tokens: u64,
        past_tokens: u64,
        chunk: u64,
    ) -> Vec<WorkEstimate> {
        let chunk = chunk.max(1);
        let mut out = Vec::new();
        let mut done = 0;
        while done < new_tokens {
            let take = chunk.min(new_tokens - done);
            out.push(self.forward_work(take, past_tokens + done));
            done += take;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_tokens_zero_work() {
        let w = ModelConfig::llama_13b().forward_work(0, 500);
        assert_eq!(w, WorkEstimate::default());
    }

    #[test]
    fn decode_is_bandwidth_bound_prefill_is_compute_bound() {
        let c = ModelConfig::llama_13b();
        // A100: 312 TFLOPS FP16, 2 TB/s HBM.
        let flops_rate = 312e12;
        let bw = 2e12;
        let decode = c.forward_work(1, 1000);
        let prefill = c.forward_work(3000, 0);
        let decode_compute = decode.flops / flops_rate;
        let decode_mem = decode.total_bytes() as f64 / bw;
        let prefill_compute = prefill.flops / flops_rate;
        let prefill_mem = prefill.total_bytes() as f64 / bw;
        assert!(
            decode_mem > decode_compute * 10.0,
            "decode should be memory bound: mem={decode_mem} compute={decode_compute}"
        );
        assert!(
            prefill_compute > prefill_mem,
            "prefill should be compute bound: compute={prefill_compute} mem={prefill_mem}"
        );
    }

    #[test]
    fn prefill_cost_scales_superlinearly_in_context() {
        let c = ModelConfig::llama_13b();
        let short = c.forward_work(1000, 0).flops;
        let long = c.forward_work(2000, 0).flops;
        assert!(long > 2.0 * short, "attention should grow quadratically");
    }

    #[test]
    fn accumulate_maxes_weights_sums_rest() {
        let c = ModelConfig::llama_13b();
        let mut batch = WorkEstimate::default();
        let a = c.forward_work(1, 100);
        let b = c.forward_work(1, 200);
        batch.accumulate(&a);
        batch.accumulate(&b);
        assert_eq!(batch.weight_bytes, c.weight_bytes());
        assert_eq!(batch.kv_write_bytes, a.kv_write_bytes + b.kv_write_bytes);
        assert!((batch.flops - (a.flops + b.flops)).abs() < 1.0);
    }

    #[test]
    fn chunked_prefill_preserves_attention_flops_exactly() {
        // Σ_k 4LH·c_k·(past_k + (c_k+1)/2) telescopes to the unchunked
        // n·(past + (n+1)/2): chunking may never change the attention work,
        // only when it happens.
        let c = ModelConfig::llama_13b();
        for (n, past, chunk) in [(1024, 0, 256), (1000, 0, 256), (777, 123, 100), (5, 0, 8)] {
            let whole = c.forward_work(n, past);
            let chunks = c.chunked_prefill_work(n, past, chunk);
            let sum_flops: f64 = chunks.iter().map(|w| w.flops).sum();
            let rel = (sum_flops - whole.flops).abs() / whole.flops;
            assert!(rel < 1e-12, "n={n} chunk={chunk}: rel error {rel}");
            let sum_writes: u64 = chunks.iter().map(|w| w.kv_write_bytes).sum();
            assert_eq!(sum_writes, whole.kv_write_bytes);
        }
    }

    #[test]
    fn chunking_tax_is_weight_restreaming() {
        // Each chunk is its own iteration, so the weights stream once per
        // chunk instead of once per prefill — that is the entire
        // throughput cost of bounding inter-token latency.
        let c = ModelConfig::llama_13b();
        let chunks = c.chunked_prefill_work(1024, 0, 256);
        assert_eq!(chunks.len(), 4);
        for w in &chunks {
            assert_eq!(w.weight_bytes, c.weight_bytes());
        }
        // Uneven tail chunk still covers every token.
        let uneven = c.chunked_prefill_work(1000, 0, 256);
        assert_eq!(uneven.len(), 4);
        let total: u64 = uneven
            .iter()
            .map(|w| w.kv_write_bytes / c.kv_bytes_per_token())
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn io_lane_charges_latency_plus_bandwidth() {
        let lane = IoLane::nvme();
        assert_eq!(lane.transfer_seconds(0), 0.0, "no-op moves are free");
        let small = lane.transfer_seconds(1);
        assert!(small >= lane.base_latency_s, "every real op pays the seek");
        let big = lane.transfer_seconds(3_500_000_000);
        assert!(
            (big - (lane.base_latency_s + 1.0)).abs() < 1e-9,
            "one bandwidth-second of bytes takes ~1s: {big}"
        );
        // The NVMe lane is far slower than any PCIe link we model.
        assert!(lane.bandwidth < 25e9);
    }

    #[test]
    fn cached_prefix_removes_prefill_compute() {
        // The whole point of prompt caching: pred over the suffix with a
        // cached 3000-token prefix does far less work than full prefill.
        let c = ModelConfig::llama_13b();
        let full = c.forward_work(3_020, 0);
        let cached = c.forward_work(20, 3_000);
        assert!(cached.flops < full.flops / 20.0);
    }
}
