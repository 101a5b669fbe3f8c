//! Order statistics, the percentile rule, and the output digest.

/// Percentiles a `_pNN` metric may fall back to, highest first, in
/// permille so rank arithmetic stays in integers.
const LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts ascending; NaNs (never produced here) would sort last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// 1-based nearest-rank index of the `permille` percentile among `n`.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), (p * 10.0).round() as usize) - 1]
}

/// The highest percentile no greater than `want` that still has at
/// least [`MIN_BEYOND`] samples above it, and its value. A tail
/// estimate resting on fewer samples than that is one outlier's
/// position, not a percentile. Falls back to the median when even p75
/// is not supported.
pub fn tail(sorted: &[f64], want: f64) -> (f64, f64) {
    let n = sorted.len();
    let want = (want * 10.0).round() as usize;
    let permille = LADDER_PERMILLE
        .iter()
        .copied()
        .filter(|&pm| pm <= want)
        .find(|&pm| n >= rank(n, pm) + MIN_BEYOND)
        .unwrap_or(500);
    let p = permille as f64 / 10.0;
    (p, percentile(sorted, p))
}

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Quartiles by linear interpolation between order statistics.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    sort(&mut v);
    let at = |q: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        n: v.len(),
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// FNV-1a/64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into a running FNV-1a/64 state.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Digest of per-session stream hashes taken in session order, so two
/// transports that deliver the same bytes to the same sessions agree no
/// matter how their frames interleaved on the wire.
pub fn digest_sessions(per_session: impl Iterator<Item = u64>) -> u64 {
    per_session.fold(FNV_OFFSET, |acc, h| fnv1a(acc, &h.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: exactly ten lie beyond p99.
        assert_eq!(tail(&ramp(1000), 99.0), (99.0, 990.0));
        // 999 samples: only 9.99 beyond p99, so fall back to p95.
        assert_eq!(tail(&ramp(999), 99.0).0, 95.0);
        // 100 samples support p90 and nothing higher.
        assert_eq!(tail(&ramp(100), 99.0), (90.0, 90.0));
        // 40 samples support p75.
        assert_eq!(tail(&ramp(40), 99.0).0, 75.0);
        // Too few for any tail: the median.
        assert_eq!(tail(&ramp(12), 99.0).0, 50.0);
        // A p50 request is never raised.
        assert_eq!(tail(&ramp(100_000), 50.0).0, 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 3.0, 4.0, 5));
        assert!((q.iqr_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn digest_depends_on_session_order_not_on_grouping() {
        let a = fnv1a(FNV_OFFSET, b"hello ");
        assert_eq!(fnv1a(a, b"world"), fnv1a(FNV_OFFSET, b"hello world"));
        assert_ne!(
            digest_sessions([1u64, 2].into_iter()),
            digest_sessions([2u64, 1].into_iter())
        );
    }
}
