//! Model shape configurations.
//!
//! Shapes follow the published Llama family so the cost model reproduces the
//! real prefill/decode asymmetry (weight traffic dominates decode, FLOPs
//! dominate prefill). The `tiny` preset keeps unit tests fast.

use serde::Serialize;

/// Architecture and size parameters of a served model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"llama-13b"`.
    pub name: &'static str,
    /// Total parameter count (used directly by the cost model).
    pub params: f64,
    /// Transformer layer count.
    pub num_layers: u32,
    /// Hidden (embedding) dimension.
    pub hidden_size: u32,
    /// Attention head count.
    pub num_heads: u32,
    /// KV head count (`< num_heads` for grouped-query attention).
    pub num_kv_heads: u32,
    /// Per-head dimension.
    pub head_dim: u32,
    /// Vocabulary size used for cost accounting (the surrogate emits a
    /// sparse distribution but real logits are `vocab_size` wide).
    pub vocab_size: u32,
    /// Bytes per tensor element (2 for FP16/BF16).
    pub dtype_bytes: u32,
    /// Mean generated-response length the surrogate's EOS dynamics target.
    pub mean_output_tokens: u32,
}

impl ModelConfig {
    /// Llama-2 13B — the model used in the paper's Figure 3.
    pub fn llama_13b() -> Self {
        ModelConfig {
            name: "llama-13b",
            params: 13.0e9,
            num_layers: 40,
            hidden_size: 5120,
            num_heads: 40,
            num_kv_heads: 40,
            head_dim: 128,
            vocab_size: 32_000,
            dtype_bytes: 2,
            mean_output_tokens: 128,
        }
    }

    /// A miniature shape for unit tests: cheap, tiny KV footprint.
    pub fn tiny() -> Self {
        ModelConfig {
            name: "tiny",
            params: 1.0e6,
            num_layers: 2,
            hidden_size: 64,
            num_heads: 4,
            num_kv_heads: 4,
            head_dim: 16,
            vocab_size: 2_000,
            dtype_bytes: 2,
            mean_output_tokens: 16,
        }
    }

    /// Returns a copy with a different target mean output length.
    pub fn with_mean_output_tokens(mut self, n: u32) -> Self {
        self.mean_output_tokens = n.max(1);
        self
    }

    /// Bytes of KV cache stored per token: `2 (K and V) × layers × kv_heads ×
    /// head_dim × dtype_bytes`.
    ///
    /// For Llama-13B this is ~0.78 MiB/token, which is what makes the
    /// Figure 3 setup interesting: 100 documents × 3000 tokens of KV
    /// (~240 GB) cannot fit beside 26 GB of weights in 80 GB of HBM — only
    /// about 20 documents can, hence the LIP's top-20 pinning policy.
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.num_layers as u64
            * self.num_kv_heads as u64
            * self.head_dim as u64
            * self.dtype_bytes as u64
    }

    /// Bytes occupied by the weights.
    pub fn weight_bytes(&self) -> u64 {
        (self.params * self.dtype_bytes as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama_13b_kv_footprint_matches_published_value() {
        let c = ModelConfig::llama_13b();
        // 2 * 40 * 40 * 128 * 2 = 819,200 bytes ≈ 0.78 MiB per token.
        assert_eq!(c.kv_bytes_per_token(), 819_200);
        // Weights: 26 GB in FP16.
        assert_eq!(c.weight_bytes(), 26_000_000_000);
    }

    #[test]
    fn gqa_shrinks_kv() {
        let full = ModelConfig::llama_13b();
        // Grouped-query attention: 8 KV heads serve all 40 query heads.
        let gqa = ModelConfig {
            num_kv_heads: 8,
            ..full
        };
        assert_eq!(gqa.kv_bytes_per_token() * 5, full.kv_bytes_per_token());
    }

    #[test]
    fn figure3_capacity_story_holds() {
        // The Fig. 3 setup: ~20 of 100 3000-token documents fit in an A100-80G
        // beside the 13B weights. Verify with 10% activation reserve.
        let c = ModelConfig::llama_13b();
        let hbm: u64 = 80_000_000_000;
        let budget = hbm - c.weight_bytes() - hbm / 10;
        let doc_bytes = 3_000 * c.kv_bytes_per_token();
        let docs_that_fit = budget / doc_bytes;
        assert!(
            (15..=25).contains(&docs_that_fit),
            "expected ~20 docs to fit, got {docs_that_fit}"
        );
    }

    #[test]
    fn with_mean_output_tokens_clamps() {
        assert_eq!(ModelConfig::tiny().with_mean_output_tokens(0).mean_output_tokens, 1);
        assert_eq!(ModelConfig::tiny().with_mean_output_tokens(64).mean_output_tokens, 64);
    }
}
