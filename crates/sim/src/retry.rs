//! Retry policies with exponential backoff and deterministic jitter.
//!
//! Lives in the simulation substrate because a policy is pure arithmetic
//! over [`SimDuration`] plus draws from the seeded [`Rng`]: given the same
//! policy, attempt index and RNG state, the backoff schedule is always the
//! same — which is what lets the kernel charge retries to the virtual clock
//! and still replay runs bit-identically.

use crate::rng::Rng;
use crate::time::SimDuration;

/// Largest effective jitter amplitude: just under 1, so the scale factor
/// `1 + jitter·u`, `u ∈ [-1, 1]`, stays strictly positive.
const JITTER_MAX: f64 = 1.0 - 1e-9;

/// How failed attempts of an operation are retried.
///
/// The delay before retry `k` (1-based count of failures so far) is
/// `base_backoff * multiplier^(k-1)`, capped at `max_backoff`, then scaled
/// by a jitter factor drawn uniformly from `[1 - jitter, 1 + jitter]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_backoff: SimDuration,
    /// Growth factor per subsequent retry.
    pub multiplier: f64,
    /// Upper bound on any single backoff delay (pre-jitter).
    pub max_backoff: SimDuration,
    /// Jitter amplitude as a fraction of the delay, in `[0, 1]`. Zero means
    /// no RNG draw is made and the schedule is a pure function of the
    /// attempt index.
    pub jitter: f64,
}

impl RetryPolicy {
    /// A single attempt: never retry.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            multiplier: 1.0,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// Exponential policy: `max_attempts` total attempts, doubling from
    /// `base_backoff` up to `64 * base_backoff`, with ±10% jitter.
    pub fn exponential(max_attempts: u32, base_backoff: SimDuration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff,
            multiplier: 2.0,
            max_backoff: base_backoff * 64,
            jitter: 0.1,
        }
    }

    /// Whether another attempt is allowed after `failures` failed attempts.
    pub fn should_retry(&self, failures: u32) -> bool {
        failures < self.max_attempts
    }

    /// The backoff delay after the `failures`-th failed attempt (1-based).
    /// Draws at most one jitter sample from `rng` (none when `jitter == 0`).
    pub fn backoff_after(&self, failures: u32, rng: &mut Rng) -> SimDuration {
        debug_assert!(failures >= 1, "backoff is between attempts");
        let exp = failures.saturating_sub(1).min(63);
        let raw = self.base_backoff * self.multiplier.powi(exp as i32);
        let capped = raw.min(self.max_backoff);
        if self.jitter == 0.0 {
            return capped;
        }
        // Clamp the amplitude into [0, 1): a policy built with jitter >= 1
        // could otherwise draw scale <= 0 and zero the backoff entirely,
        // turning exponential backoff into an immediate-retry hot loop.
        let jitter = self.jitter.clamp(0.0, JITTER_MAX);
        let scale = 1.0 + jitter * (2.0 * rng.next_f64() - 1.0);
        // Keep the delay strictly positive whenever the unjittered delay
        // was: a near-zero scale must not truncate below one nanosecond.
        (capped * scale).max(SimDuration::from_nanos(1).min(capped))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p` with its jitter off: a deterministic schedule, no RNG draws.
    fn exact(p: RetryPolicy) -> RetryPolicy {
        RetryPolicy { jitter: 0.0, ..p }
    }

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.should_retry(1));
    }

    #[test]
    fn exponential_schedule_without_jitter() {
        let p = exact(RetryPolicy::exponential(4, SimDuration::from_millis(10)));
        let mut rng = Rng::new(1);
        assert_eq!(p.backoff_after(1, &mut rng), SimDuration::from_millis(10));
        assert_eq!(p.backoff_after(2, &mut rng), SimDuration::from_millis(20));
        assert_eq!(p.backoff_after(3, &mut rng), SimDuration::from_millis(40));
        assert!(p.should_retry(3));
        assert!(!p.should_retry(4));
    }

    #[test]
    fn backoff_caps_at_max() {
        let mut p = exact(RetryPolicy::exponential(10, SimDuration::from_millis(10)));
        p.max_backoff = SimDuration::from_millis(25);
        let mut rng = Rng::new(1);
        assert_eq!(p.backoff_after(5, &mut rng), SimDuration::from_millis(25));
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy::exponential(5, SimDuration::from_millis(100));
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        for k in 1..5 {
            let da = p.backoff_after(k, &mut a);
            let db = p.backoff_after(k, &mut b);
            assert_eq!(da, db, "same seed, same schedule");
            let nominal = SimDuration::from_millis(100) * 2.0f64.powi(k as i32 - 1);
            let lo = nominal.as_secs_f64() * 0.9;
            let hi = nominal.as_secs_f64() * 1.1;
            assert!(
                (lo..=hi).contains(&da.as_secs_f64()),
                "jittered backoff {da} outside ±10% of {nominal}"
            );
        }
    }

    #[test]
    fn oversized_jitter_never_zeroes_backoff() {
        // Regression: jitter >= 1 could draw scale <= 0, and the old
        // `scale.max(0.0)` then silently produced a zero backoff.
        for jitter in [1.0, 1.5, 10.0] {
            let mut p = RetryPolicy::exponential(5, SimDuration::from_millis(10));
            p.jitter = jitter;
            let mut rng = Rng::new(11);
            for k in 1..5 {
                for _ in 0..200 {
                    let d = p.backoff_after(k, &mut rng);
                    assert!(
                        d > SimDuration::ZERO,
                        "jitter={jitter} k={k}: backoff collapsed to zero"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_jitter_draws_nothing_from_rng() {
        let p = exact(RetryPolicy::exponential(3, SimDuration::from_millis(5)));
        let mut rng = Rng::new(4);
        let before = rng.next_u64();
        let mut rng = Rng::new(4);
        let _ = p.backoff_after(1, &mut rng);
        let _ = p.backoff_after(2, &mut rng);
        assert_eq!(rng.next_u64(), before, "jitter-free policy must not consume RNG");
    }
}
