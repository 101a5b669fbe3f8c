//! Deterministic pseudo-random number generation.
//!
//! The simulator implements its own xoshiro256** generator rather than using
//! an external crate so that streams are stable across platforms and
//! dependency upgrades — experiment outputs in `EXPERIMENTS.md` must be
//! regenerable bit-for-bit. A substream made with [`Rng::derive`] is a pure
//! function of a seed and a key path — no generator's history enters it —
//! so each simulated component (arrivals, tool latency, a LIP thread's
//! sampling) owns its stream, runs stay comparable when one component
//! changes, and a re-executed component draws what it drew before.

/// A deterministic xoshiro256** PRNG with splitmix64 seeding.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// Advances a splitmix64 state and returns the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The substream named by `keys` under `seed`: a splitmix64 chain
    /// that folds each key into the state in turn, then seeds a generator
    /// from the result.
    ///
    /// It reads no generator, so it is the same stream whatever was drawn
    /// anywhere before it — the kernel seeds a LIP thread with
    /// `derive(seed, &[pid, ordinal])`, and a re-executed thread draws what
    /// it drew before the crash. Each fold step is a bijection of the key
    /// for a fixed state and of the state for a fixed key, so key paths of
    /// one length that differ anywhere give distinct first words.
    pub fn derive(seed: u64, keys: &[u64]) -> Rng {
        let state = keys.iter().fold(seed, |state, &key| {
            let mut sm = state ^ key;
            splitmix64(&mut sm)
        });
        Rng::new(state)
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `(0, 1]`, suitable for `ln()`.
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range: empty range [{lo}, {hi})");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire); the retry loop rejects the biased
        // region, which is vanishingly small for the span sizes we use.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            let lowbits = m as u64;
            if lowbits >= span.wrapping_neg() % span {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `usize` index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(0, n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Returns a standard normal variate (Box–Muller).
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64_open();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_pure_and_keyed() {
        let mut a = Rng::derive(7, &[3, 0]);
        let mut b = Rng::derive(7, &[3, 0]);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Every key takes part: change any one, or the seed, and the stream
        // moves.
        let first = |seed, keys: &[u64]| Rng::derive(seed, keys).next_u64();
        let base = first(7, &[3, 0]);
        for (seed, keys) in [(7, [3, 1]), (7, [4, 0]), (8, [3, 0]), (7, [0, 3])] {
            assert_ne!(first(seed, &keys), base, "{seed} {keys:?}");
        }
        assert_ne!(first(7, &[]), first(7, &[0]));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = Rng::new(11);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = r.gen_range(5, 15);
            assert!((5..15).contains(&x));
            seen[(x - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        Rng::new(0).gen_range(3, 3);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::new(13);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng::new(17);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.next_gaussian();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}
