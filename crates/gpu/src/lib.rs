//! Simulated GPU: device specifications and a batch executor.
//!
//! The executor is shared by *every* serving system in the workspace — the
//! Symphony kernel and both baselines — so performance comparisons isolate
//! architectural differences rather than substrate differences.
//!
//! Time comes from a roofline rule: a batch takes
//! `overhead + max(flops / (peak_flops × mfu), bytes / hbm_bandwidth)`,
//! where weights are streamed **once per batch** (the reason batching wins)
//! and KV traffic is summed per sequence. With the Llama-13B/A100 presets
//! this lands on the familiar regime: single-stream decode ≈ 13 ms/token
//! (weight-bandwidth bound), 3000-token prefill ≈ 0.5 s (compute bound).
//!
//! KV swap traffic does not ride on batches: the executor has one
//! host→device and one device→host copy lane ([`GpuExecutor::copy_in`],
//! [`GpuExecutor::copy_out`]), each a busy-until timestamp over the
//! device's PCIe/NVMe bandwidth, so transfers overlap compute and queue
//! only behind each other.
//!
//! # Examples
//!
//! ```
//! use symphony_gpu::{DeviceSpec, GpuExecutor, PredRequest};
//! use symphony_kvfs::{KvStore, KvStoreConfig, OwnerId};
//! use symphony_model::{ModelConfig, Surrogate};
//!
//! let model = Surrogate::new(ModelConfig::tiny(), 1);
//! let mut gpu = GpuExecutor::new(DeviceSpec::a100_80g(), model);
//! let mut store = KvStore::new(KvStoreConfig::for_tests());
//! let owner = OwnerId(1);
//! let file = store.create(owner).unwrap();
//! let (results, report) = gpu.execute_batch(
//!     &mut store,
//!     &[PredRequest { file, owner, tokens: vec![(3, 0), (4, 1)] }],
//! );
//! let dists = results[0].as_ref().unwrap();
//! assert_eq!(dists.dists.len(), 2);
//! assert!(report.duration.as_nanos() > 0);
//! assert_eq!(store.len(file).unwrap(), 2);
//! ```

pub mod device;
pub mod exec;

pub use device::DeviceSpec;
pub use exec::{BatchReport, ExecError, GpuExecutor, GpuMetrics, PredRequest, PredResult};
