//! Resilience mechanisms: per-tool circuit breakers and the
//! `resilience.*` counters.
//!
//! Breakers run entirely on the virtual clock, so their state transitions
//! are deterministic for a given `(seed, plan, workload)` and show up
//! byte-identically in kernel stats across same-seed runs. A `pred` the KV
//! pool cannot hold is not handled here: the kernel answers it with
//! `Kv(NoGpuMemory)` and overload is the program's policy.

use std::collections::BTreeMap;

use symphony_sim::{SimDuration, SimTime};
use symphony_telemetry::{Counter, MetricsRegistry};

/// Circuit-breaker configuration, applied per tool name.
///
/// The breaker counts *whole-call* outcomes (after retries), not individual
/// attempts: a call that succeeds on its third attempt resets the streak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failed calls that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting a half-open trial.
    pub cooldown: SimDuration,
}

impl BreakerPolicy {
    /// A breaker tripping after `failure_threshold` failures with the given
    /// cooldown.
    pub fn new(failure_threshold: u32, cooldown: SimDuration) -> Self {
        BreakerPolicy {
            failure_threshold: failure_threshold.max(1),
            cooldown,
        }
    }
}

/// One tool's breaker state machine: Closed → Open → HalfOpen → {Closed, Open}.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed { consecutive_failures: u32 },
    /// Calls fast-fail until the cooldown expires on the virtual clock.
    Open { until: SimTime },
    /// One trial call is in flight; its outcome decides the next state.
    HalfOpen,
}

/// A serialisable view of one breaker's state, used by the kernel WAL to
/// checkpoint and restore the bank across crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerStateView {
    /// Calls flow; `consecutive_failures` failures so far.
    Closed {
        /// Consecutive whole-call failures counted toward the threshold.
        consecutive_failures: u32,
    },
    /// Fast-failing until the cooldown expires.
    Open {
        /// Virtual time at which the cooldown expires.
        until: SimTime,
    },
    /// A trial call was in flight.
    HalfOpen,
}

/// The admission verdict for a tool call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerVerdict {
    /// Proceed normally.
    Allow,
    /// Proceed as the single half-open trial.
    AllowTrial,
    /// Fast-fail with `SysError::Unavailable`.
    Reject,
}

/// All per-tool breakers plus trip counters.
#[derive(Debug)]
pub struct BreakerBank {
    policy: BreakerPolicy,
    states: BTreeMap<String, BreakerState>,
    trips: Counter,
    rejections: Counter,
}

impl BreakerBank {
    /// A bank where every tool starts closed, with a private metrics
    /// registry.
    pub fn new(policy: BreakerPolicy) -> Self {
        BreakerBank::with_registry(policy, &MetricsRegistry::new())
    }

    /// A bank whose trip/rejection counters live in `registry` under the
    /// `resilience.breaker_*` names (shared with [`ResilienceCounters`]).
    pub fn with_registry(policy: BreakerPolicy, registry: &MetricsRegistry) -> Self {
        BreakerBank {
            policy,
            states: BTreeMap::new(),
            trips: registry.counter("resilience.breaker_trips"),
            rejections: registry.counter("resilience.breaker_rejections"),
        }
    }

    /// Times the breaker tripped open.
    pub fn trips(&self) -> u64 {
        self.trips.get()
    }

    /// Calls fast-failed while open.
    pub fn rejections(&self) -> u64 {
        self.rejections.get()
    }

    /// Gate a call to `tool` at `now`.
    pub fn admit(&mut self, tool: &str, now: SimTime) -> BreakerVerdict {
        let state = self
            .states
            .entry(tool.to_string())
            .or_insert(BreakerState::Closed {
                consecutive_failures: 0,
            });
        match *state {
            BreakerState::Closed { .. } => BreakerVerdict::Allow,
            BreakerState::Open { until } => {
                if now >= until {
                    *state = BreakerState::HalfOpen;
                    BreakerVerdict::AllowTrial
                } else {
                    self.rejections.inc();
                    BreakerVerdict::Reject
                }
            }
            // A trial is already in flight; other callers keep fast-failing
            // until it reports back.
            BreakerState::HalfOpen => {
                self.rejections.inc();
                BreakerVerdict::Reject
            }
        }
    }

    /// Report a whole call's outcome. `completed_at` is when the call (with
    /// all its retries) finished on the virtual clock; an open breaker's
    /// cooldown runs from there.
    pub fn report(&mut self, tool: &str, success: bool, completed_at: SimTime) {
        let state = self
            .states
            .entry(tool.to_string())
            .or_insert(BreakerState::Closed {
                consecutive_failures: 0,
            });
        if success {
            *state = BreakerState::Closed {
                consecutive_failures: 0,
            };
            return;
        }
        let trip = match *state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.policy.failure_threshold {
                    true
                } else {
                    *state = BreakerState::Closed {
                        consecutive_failures: n,
                    };
                    false
                }
            }
            // A failed half-open trial re-opens immediately.
            BreakerState::HalfOpen => true,
            // Late report while open (call was in flight when it tripped):
            // extend the cooldown.
            BreakerState::Open { .. } => true,
        };
        if trip {
            self.trips.inc();
            *state = BreakerState::Open {
                until: completed_at + self.policy.cooldown,
            };
        }
    }

    /// Every tool's current state, in name order, for checkpointing.
    pub fn export_states(&self) -> Vec<(String, BreakerStateView)> {
        self.states
            .iter()
            .map(|(tool, s)| {
                let view = match *s {
                    BreakerState::Closed {
                        consecutive_failures,
                    } => BreakerStateView::Closed {
                        consecutive_failures,
                    },
                    BreakerState::Open { until } => BreakerStateView::Open { until },
                    BreakerState::HalfOpen => BreakerStateView::HalfOpen,
                };
                (tool.clone(), view)
            })
            .collect()
    }

    /// Replaces the bank's states with a checkpointed snapshot. Trip and
    /// rejection counters are process-lifetime metrics and are not restored.
    pub fn import_states(&mut self, states: Vec<(String, BreakerStateView)>) {
        self.states = states
            .into_iter()
            .map(|(tool, view)| {
                let s = match view {
                    BreakerStateView::Closed {
                        consecutive_failures,
                    } => BreakerState::Closed {
                        consecutive_failures,
                    },
                    BreakerStateView::Open { until } => BreakerState::Open { until },
                    BreakerStateView::HalfOpen => BreakerState::HalfOpen,
                };
                (tool, s)
            })
            .collect();
    }
}

/// Live counter handles into the metrics registry (`resilience.*` names).
/// The breaker counters are registered here too, so they read 0 on a
/// kernel without breakers; a [`BreakerBank::with_registry`] increments the
/// same entries.
#[derive(Debug, Clone)]
pub(crate) struct ResilienceCounters {
    pub(crate) tool_retries: Counter,
    pub(crate) tool_calls_exhausted: Counter,
    pub(crate) tool_timeouts: Counter,
    pub(crate) deadline_kills: Counter,
}

impl ResilienceCounters {
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        registry.counter("resilience.breaker_trips");
        registry.counter("resilience.breaker_rejections");
        ResilienceCounters {
            tool_retries: registry.counter("resilience.tool_retries"),
            tool_calls_exhausted: registry.counter("resilience.tool_calls_exhausted"),
            tool_timeouts: registry.counter("resilience.tool_timeouts"),
            deadline_kills: registry.counter("resilience.deadline_kills"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn breaker_trips_after_threshold_and_cools_down() {
        let mut bank = BreakerBank::new(BreakerPolicy::new(3, SimDuration::from_millis(100)));
        // Two failures: still closed.
        bank.report("api", false, at(1));
        bank.report("api", false, at(2));
        assert_eq!(bank.admit("api", at(3)), BreakerVerdict::Allow);
        assert_eq!(bank.trips(), 0);
        // Third consecutive failure trips it.
        bank.report("api", false, at(3));
        assert_eq!(bank.trips(), 1);
        assert_eq!(bank.admit("api", at(50)), BreakerVerdict::Reject);
        assert_eq!(bank.rejections(), 1);
        // Cooldown over: one half-open trial, others still rejected.
        assert_eq!(bank.admit("api", at(103)), BreakerVerdict::AllowTrial);
        assert_eq!(bank.admit("api", at(104)), BreakerVerdict::Reject);
        // Trial succeeds: closed again.
        bank.report("api", true, at(110));
        assert_eq!(bank.admit("api", at(111)), BreakerVerdict::Allow);
    }

    #[test]
    fn failed_trial_reopens() {
        let mut bank = BreakerBank::new(BreakerPolicy::new(1, SimDuration::from_millis(10)));
        bank.report("api", false, at(0));
        assert_eq!(bank.trips(), 1);
        assert_eq!(bank.admit("api", at(15)), BreakerVerdict::AllowTrial);
        bank.report("api", false, at(16));
        assert_eq!(bank.trips(), 2);
        assert_eq!(bank.admit("api", at(20)), BreakerVerdict::Reject);
        assert_eq!(
            bank.admit("api", at(26)),
            BreakerVerdict::AllowTrial,
            "cooldown from completion time"
        );
    }

    #[test]
    fn success_resets_streak() {
        let mut bank = BreakerBank::new(BreakerPolicy::new(2, SimDuration::from_millis(10)));
        bank.report("api", false, at(0));
        bank.report("api", true, at(1));
        bank.report("api", false, at(2));
        assert_eq!(bank.trips(), 0, "streak broken by success");
    }

    #[test]
    fn breakers_are_per_tool() {
        let mut bank = BreakerBank::new(BreakerPolicy::new(1, SimDuration::from_secs(1)));
        bank.report("bad", false, at(0));
        assert_eq!(bank.admit("bad", at(1)), BreakerVerdict::Reject);
        assert_eq!(bank.admit("good", at(1)), BreakerVerdict::Allow);
    }
}
