//! The benchmark's only wall-clock source.
//!
//! Every host-time number symbench reports — epoch rates, span
//! durations, probe timings, set-up time — is a difference of two
//! [`now`] readings. Virtual-time numbers never touch this module: they
//! come from the `at_ns` stamps the server puts on its frames.

use std::time::Instant;

/// Reads the host's monotonic clock.
pub fn now() -> Instant {
    // lint:allow(d1): a benchmark exists to time real host work; this is the single wall-clock read in benchmark/ and it never feeds a simulated decision
    Instant::now()
}

/// Nanoseconds elapsed since `start`, as a float for rate arithmetic.
pub fn ns_since(start: Instant) -> f64 {
    now().duration_since(start).as_nanos() as f64
}

/// Runs `f`, returning its result and the host nanoseconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, ns_since(start))
}
