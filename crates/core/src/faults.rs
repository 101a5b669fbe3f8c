//! Deterministic fault injection (§6 "reliability" — chaos testing the
//! kernel's containment story).
//!
//! A [`FaultPlan`] names per-site fault rates; a [`FaultInjector`] draws
//! from its **own** seeded RNG stream, independent of the kernel's
//! workload RNG. Two properties make the injection deterministic and
//! non-invasive:
//!
//! - **Seed isolation.** The injector's stream is seeded from the kernel
//!   seed XOR a fixed salt, so enabling faults never perturbs workload draws
//!   (tool latencies, model sampling) for the *surviving* operations.
//! - **Rate gating.** A site whose rate is `0.0` makes *no* RNG draw at
//!   all, so an all-zero plan is byte-identical to no plan — asserted by
//!   the chaos suite.
//!
//! Sites are drawn in kernel event order on the virtual clock, so a given
//! `(seed, plan, workload)` triple always faults the same operations.

use symphony_sim::Rng;
use symphony_telemetry::{Counter, MetricsRegistry};

/// Salt XORed into the kernel seed for the injector's RNG stream.
const FAULT_STREAM_SALT: u64 = 0x000F_A017_5EED_u64;

/// What happens to a tool-call attempt selected for fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ToolFaultKind {
    /// The attempt fails after its sampled latency (a 5xx, say).
    Fail,
    /// The attempt hangs for `stall_factor ×` its sampled latency; with a
    /// per-call timeout this converts to [`crate::SysError::Timeout`],
    /// without one it just runs long.
    Hang,
}

/// Per-site fault rates, all in `[0, 1]` per operation. `default()` is
/// all-zero: no faults, no RNG draws.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability a tool-call attempt faults.
    pub tool_fault_rate: f64,
    /// Of faulted attempts, the fraction that *hang* rather than fail.
    pub tool_hang_fraction: f64,
    /// Latency multiplier for hung attempts.
    pub tool_stall_factor: f64,
    /// Probability one `pred` request in a batch transiently faults (work
    /// lost, no KV appended, retryable).
    pub pred_fault_rate: f64,
    /// Probability a KV swap-in (explicit or offload-restore) fails.
    pub swap_in_fault_rate: f64,
    /// Probability an IPC `send_msg` is silently dropped.
    pub ipc_drop_rate: f64,
    /// Deterministic kill point: the *kernel itself* crashes at exactly the
    /// Nth syscall boundary (1-based; the machine dies mid-run, and
    /// recovery replays the WAL). No RNG draw — the kill-at-every-boundary
    /// chaos sweep iterates this.
    pub crash_at_boundary: Option<u64>,
}

impl FaultPlan {
    /// No faults anywhere (the kernel default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when every rate is zero — the injector then never draws.
    pub fn is_none(&self) -> bool {
        self.tool_fault_rate == 0.0
            && self.pred_fault_rate == 0.0
            && self.swap_in_fault_rate == 0.0
            && self.ipc_drop_rate == 0.0
            && self.crash_at_boundary.is_none()
    }

    /// Checks every probability is a real number in `[0, 1]` (and the
    /// stall factor a finite non-negative multiplier). An out-of-range
    /// rate would silently skew the gate — `>= 1.0` faults everything,
    /// `NaN` compares false and faults nothing — so the injector refuses
    /// to build from an invalid plan.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("tool_fault_rate", self.tool_fault_rate),
            ("tool_hang_fraction", self.tool_hang_fraction),
            ("pred_fault_rate", self.pred_fault_rate),
            ("swap_in_fault_rate", self.swap_in_fault_rate),
            ("ipc_drop_rate", self.ipc_drop_rate),
        ];
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("fault plan: {name} = {rate} is not in [0, 1]"));
            }
        }
        if !self.tool_stall_factor.is_finite() || self.tool_stall_factor < 0.0 {
            return Err(format!(
                "fault plan: tool_stall_factor = {} is not a finite non-negative multiplier",
                self.tool_stall_factor
            ));
        }
        if self.crash_at_boundary == Some(0) {
            return Err("fault plan: crash_at_boundary is 1-based; 0 never fires".to_string());
        }
        Ok(())
    }
}

/// Live counter handles into the metrics registry (`faults.*`).
#[derive(Debug, Clone)]
struct FaultCounters {
    tool_failures: Counter,
    tool_hangs: Counter,
    pred_faults: Counter,
    swap_in_failures: Counter,
    ipc_drops: Counter,
    kernel_crashes: Counter,
}

impl FaultCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        FaultCounters {
            tool_failures: registry.counter("faults.tool_failures"),
            tool_hangs: registry.counter("faults.tool_hangs"),
            pred_faults: registry.counter("faults.pred_faults"),
            swap_in_failures: registry.counter("faults.swap_in_failures"),
            ipc_drops: registry.counter("faults.ipc_drops"),
            kernel_crashes: registry.counter("faults.kernel_crashes"),
        }
    }
}

/// Draws fault decisions from a dedicated RNG stream.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Builds an injector whose counters live in `registry` under the
    /// `faults.*` names.
    ///
    /// # Panics
    ///
    /// Panics if [`FaultPlan::validate`] rejects the plan — an out-of-range
    /// rate is a boot-time configuration error, not a runtime condition.
    pub fn with_registry(plan: FaultPlan, kernel_seed: u64, registry: &MetricsRegistry) -> Self {
        if let Err(msg) = plan.validate() {
            // lint:allow(k1): an invalid fault plan is a boot-time config
            // error surfaced before any LIP runs, not a kernel-path panic.
            panic!("{msg}");
        }
        FaultInjector {
            plan,
            rng: Rng::new(kernel_seed ^ FAULT_STREAM_SALT),
            counters: FaultCounters::register(registry),
        }
    }

    /// The configured plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one tool-call attempt. `None` = run normally.
    pub fn tool_attempt(&mut self) -> Option<ToolFaultKind> {
        if self.plan.tool_fault_rate == 0.0 {
            return None;
        }
        if self.rng.next_f64() >= self.plan.tool_fault_rate {
            return None;
        }
        // Second draw picks the flavour; gated so hang_fraction == 0 costs
        // one draw per *faulted* attempt only.
        let hang = self.plan.tool_hang_fraction > 0.0
            && self.rng.next_f64() < self.plan.tool_hang_fraction;
        if hang {
            self.counters.tool_hangs.inc();
            Some(ToolFaultKind::Hang)
        } else {
            self.counters.tool_failures.inc();
            Some(ToolFaultKind::Fail)
        }
    }

    /// Stall multiplier applied to hung attempts.
    pub fn stall_factor(&self) -> f64 {
        if self.plan.tool_stall_factor > 1.0 {
            self.plan.tool_stall_factor
        } else {
            10.0
        }
    }

    /// Decides whether one `pred` request in a batch faults.
    pub fn pred_request(&mut self) -> bool {
        if self.plan.pred_fault_rate == 0.0 {
            return false;
        }
        let hit = self.rng.next_f64() < self.plan.pred_fault_rate;
        if hit {
            self.counters.pred_faults.inc();
        }
        hit
    }

    /// Decides whether one KV swap-in fails.
    pub fn swap_in(&mut self) -> bool {
        if self.plan.swap_in_fault_rate == 0.0 {
            return false;
        }
        let hit = self.rng.next_f64() < self.plan.swap_in_fault_rate;
        if hit {
            self.counters.swap_in_failures.inc();
        }
        hit
    }

    /// Decides whether the kernel crashes at syscall boundary `boundary`
    /// (1-based, counted across the whole run): at the `crash_at_boundary`
    /// kill point, without an RNG draw, so sweeping it over every boundary
    /// perturbs nothing else.
    pub fn kernel_crash(&mut self, boundary: u64) -> bool {
        let hit = self.plan.crash_at_boundary == Some(boundary);
        if hit {
            self.counters.kernel_crashes.inc();
        }
        hit
    }

    /// Decides whether one IPC message is dropped.
    pub fn ipc_send(&mut self) -> bool {
        if self.plan.ipc_drop_rate == 0.0 {
            return false;
        }
        let hit = self.rng.next_f64() < self.plan.ipc_drop_rate;
        if hit {
            self.counters.ipc_drops.inc();
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_telemetry::MetricValue;

    /// An injector and the registry its `faults.*` counters live in.
    fn injector(plan: FaultPlan, seed: u64) -> (FaultInjector, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        (
            FaultInjector::with_registry(plan, seed, &registry),
            registry,
        )
    }

    /// One `faults.*` counter's value.
    fn count(registry: &MetricsRegistry, name: &str) -> u64 {
        registry
            .counter_value(&format!("faults.{name}"))
            .unwrap_or(0)
    }

    #[test]
    fn zero_plan_never_draws_or_faults() {
        let (mut inj, registry) = injector(FaultPlan::none(), 42);
        for b in 0..100 {
            assert!(inj.tool_attempt().is_none());
            assert!(!inj.pred_request());
            assert!(!inj.swap_in());
            assert!(!inj.ipc_send());
            assert!(!inj.kernel_crash(b + 1));
        }
        for (name, value) in registry.snapshot().entries {
            assert_eq!(value, MetricValue::Counter(0), "{name}");
        }
        // No draws consumed: the stream equals a fresh one.
        let mut fresh = Rng::new(42 ^ FAULT_STREAM_SALT);
        assert_eq!(inj.rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn deterministic_kill_point_fires_without_a_draw() {
        let plan = FaultPlan {
            crash_at_boundary: Some(3),
            ..FaultPlan::default()
        };
        let (mut inj, registry) = injector(plan, 42);
        assert!(!inj.kernel_crash(1));
        assert!(!inj.kernel_crash(2));
        assert!(inj.kernel_crash(3));
        assert!(!inj.kernel_crash(4));
        assert_eq!(count(&registry, "kernel_crashes"), 1);
        let mut fresh = Rng::new(42 ^ FAULT_STREAM_SALT);
        assert_eq!(inj.rng.next_u64(), fresh.next_u64(), "no draws consumed");
    }

    #[test]
    fn validate_accepts_boundary_rates() {
        let plan = FaultPlan {
            tool_fault_rate: 1.0,
            pred_fault_rate: 0.0,
            ipc_drop_rate: 0.5,
            crash_at_boundary: Some(1),
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_and_nan() {
        let negative = FaultPlan {
            swap_in_fault_rate: -0.1,
            ..FaultPlan::default()
        };
        assert!(negative.validate().unwrap_err().contains("swap_in_fault_rate"));
        let above_one = FaultPlan {
            pred_fault_rate: 1.5,
            ..FaultPlan::default()
        };
        assert!(above_one.validate().unwrap_err().contains("pred_fault_rate"));
        let nan = FaultPlan {
            ipc_drop_rate: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(nan.validate().unwrap_err().contains("ipc_drop_rate"));
        let bad_stall = FaultPlan {
            tool_stall_factor: f64::INFINITY,
            ..FaultPlan::default()
        };
        assert!(bad_stall.validate().unwrap_err().contains("tool_stall_factor"));
        let zero_boundary = FaultPlan {
            crash_at_boundary: Some(0),
            ..FaultPlan::default()
        };
        assert!(zero_boundary.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn injector_refuses_invalid_plan() {
        let _ = injector(
            FaultPlan {
                tool_fault_rate: 2.0,
                ..FaultPlan::default()
            },
            1,
        );
    }

    #[test]
    fn rates_are_respected_statistically() {
        let plan = FaultPlan {
            tool_fault_rate: 0.3,
            pred_fault_rate: 0.1,
            ..FaultPlan::default()
        };
        let (mut inj, registry) = injector(plan, 7);
        let mut tool_hits = 0;
        let mut pred_hits = 0;
        for _ in 0..10_000 {
            if inj.tool_attempt().is_some() {
                tool_hits += 1;
            }
            if inj.pred_request() {
                pred_hits += 1;
            }
        }
        assert!((2700..3300).contains(&tool_hits), "tool_hits={tool_hits}");
        assert!((800..1200).contains(&pred_hits), "pred_hits={pred_hits}");
        assert_eq!(count(&registry, "tool_failures"), tool_hits);
        assert_eq!(count(&registry, "pred_faults"), pred_hits);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan {
            tool_fault_rate: 0.5,
            tool_hang_fraction: 0.4,
            swap_in_fault_rate: 0.2,
            ipc_drop_rate: 0.2,
            ..FaultPlan::default()
        };
        let (mut a, ra) = injector(plan, 99);
        let (mut b, rb) = injector(plan, 99);
        for _ in 0..1000 {
            assert_eq!(a.tool_attempt(), b.tool_attempt());
            assert_eq!(a.swap_in(), b.swap_in());
            assert_eq!(a.ipc_send(), b.ipc_send());
        }
        assert_eq!(ra.snapshot(), rb.snapshot());
        assert!(count(&ra, "tool_hangs") > 0, "hang flavour exercised");
    }

    #[test]
    fn hang_fraction_splits_flavours() {
        let plan = FaultPlan {
            tool_fault_rate: 1.0,
            tool_hang_fraction: 1.0,
            ..FaultPlan::default()
        };
        let (mut inj, registry) = injector(plan, 3);
        for _ in 0..10 {
            assert_eq!(inj.tool_attempt(), Some(ToolFaultKind::Hang));
        }
        assert_eq!(count(&registry, "tool_hangs"), 10);
        assert_eq!(count(&registry, "tool_failures"), 0);
    }
}
