//! GPU device specifications.

use serde::Serialize;
use symphony_model::{IoLane, ModelConfig};
use symphony_sim::SimDuration;

/// Published characteristics of a simulated accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceSpec {
    /// Device name, e.g. `"a100-80g"`.
    pub name: &'static str,
    /// HBM capacity in bytes.
    pub hbm_bytes: u64,
    /// HBM bandwidth in bytes/second.
    pub hbm_bandwidth: f64,
    /// Peak dense FP16 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Model FLOPs utilisation: achievable fraction of peak in serving
    /// kernels (0.4–0.6 is typical for well-tuned stacks).
    pub mfu: f64,
    /// Host↔device PCIe bandwidth in bytes/second (KV swap traffic).
    pub pcie_bandwidth: f64,
    /// Fixed per-batch overhead (kernel launches, scheduling) in
    /// nanoseconds.
    pub batch_overhead_ns: u64,
    /// Fraction of HBM reserved for activations and fragmentation slack.
    pub activation_reserve: f64,
    /// NVMe lane for disk-tier KV swap traffic (latency + bandwidth).
    pub nvme: IoLane,
}

impl DeviceSpec {
    /// NVIDIA A100 80 GB SXM — the paper's evaluation device.
    pub fn a100_80g() -> Self {
        DeviceSpec {
            name: "a100-80g",
            hbm_bytes: 80_000_000_000,
            hbm_bandwidth: 2.0e12,
            peak_flops: 312e12,
            mfu: 0.5,
            pcie_bandwidth: 25e9,
            batch_overhead_ns: 200_000,
            activation_reserve: 0.10,
            nvme: IoLane::nvme(),
        }
    }

    /// A tiny virtual device for tests: enough room for toy models, fast
    /// constants so virtual timings stay readable.
    pub fn test_device() -> Self {
        DeviceSpec {
            name: "test-device",
            hbm_bytes: 10_000_000,
            hbm_bandwidth: 1e9,
            peak_flops: 1e12,
            mfu: 0.5,
            pcie_bandwidth: 1e8,
            batch_overhead_ns: 1_000,
            activation_reserve: 0.10,
            // 4× slower than the test PCIe link, same access latency as a
            // real SSD: disk swaps stay visibly more expensive in tests.
            nvme: IoLane {
                bandwidth: 2.5e7,
                base_latency_s: 100e-6,
            },
        }
    }

    /// HBM bytes available for KV cache after weights and the activation
    /// reserve.
    ///
    /// # Panics
    ///
    /// Panics if the model's weights do not fit on the device.
    pub fn kv_budget_bytes(&self, model: &ModelConfig) -> u64 {
        let reserve = (self.hbm_bytes as f64 * self.activation_reserve) as u64;
        let weights = model.weight_bytes();
        assert!(
            weights + reserve < self.hbm_bytes,
            "model {} does not fit on {}",
            model.name,
            self.name
        );
        self.hbm_bytes - weights - reserve
    }

    /// Time to move `bytes` across PCIe.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.pcie_bandwidth)
    }

    /// Time to move `bytes` across the NVMe lane (disk-tier swap traffic).
    pub fn disk_transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.nvme.transfer_seconds(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_fits_about_twenty_documents_of_llama13b_kv() {
        // The capacity arithmetic behind Figure 3's "top 20" policy.
        let dev = DeviceSpec::a100_80g();
        let model = ModelConfig::llama_13b();
        let budget = dev.kv_budget_bytes(&model);
        let docs = budget / (3_000 * model.kv_bytes_per_token());
        assert!((15..=25).contains(&docs), "docs={docs}");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_model_rejected() {
        DeviceSpec::test_device().kv_budget_bytes(&ModelConfig::llama_13b());
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let dev = DeviceSpec::a100_80g();
        let one = dev.transfer_time(25_000_000_000);
        assert!((one.as_secs_f64() - 1.0).abs() < 1e-9);
        let half = dev.transfer_time(12_500_000_000);
        assert!((half.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn presets_are_distinct() {
        assert_ne!(DeviceSpec::a100_80g(), DeviceSpec::test_device());
        assert!(DeviceSpec::test_device().hbm_bytes < DeviceSpec::a100_80g().hbm_bytes);
    }
}
