//! Statistics collection for experiments.
//!
//! Three collectors with different memory/fidelity trade-offs:
//!
//! - [`OnlineStats`] — O(1) memory Welford mean/variance.
//! - [`Series`] — retains every sample for exact percentiles; the experiment
//!   harness uses it for latency distributions (sample counts are modest).
//! - [`Histogram`] — log-spaced buckets for unbounded streams.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance via Welford's algorithm.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another collector into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A sample series retaining every value; supports exact percentiles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series { samples: Vec::new() }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Exact percentile by nearest-rank (`q` in `[0, 1]`); `None` when empty.
    ///
    /// Clones and sorts the samples on every call; use [`Series::percentiles`]
    /// when several quantiles of the same series are needed.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.percentiles(std::slice::from_ref(&q)).pop().flatten()
    }

    /// Exact nearest-rank percentiles for several `q`s at once, sorting the
    /// samples a single time. Returns one entry per requested quantile;
    /// every entry is `None` when the series is empty.
    pub fn percentiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        if self.samples.is_empty() {
            return vec![None; qs.len()];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        qs.iter()
            .map(|&q| {
                let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len());
                Some(sorted[rank - 1])
            })
            .collect()
    }

    /// Median (p50).
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Raw access to the samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Log-spaced histogram for positive values.
///
/// Bucket `i` covers `[base * ratio^i, base * ratio^(i+1))`; values below
/// `base` land in bucket 0 and values beyond the last bucket saturate into it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    base: f64,
    ratio: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `base > 0`, `ratio > 1`, and `buckets > 0`.
    pub fn new(base: f64, ratio: f64, buckets: usize) -> Self {
        assert!(base > 0.0 && ratio > 1.0 && buckets > 0, "bad histogram shape");
        Histogram {
            base,
            ratio,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// A default latency histogram: 1µs to ~1000s in 5% steps (in seconds).
    pub fn latency_seconds() -> Self {
        Histogram::new(1e-6, 1.05, 430)
    }

    /// Records a value.
    pub fn add(&mut self, x: f64) {
        let idx = if x <= self.base {
            0
        } else {
            // The log-division estimate can land one bucket off at exact
            // bucket edges (`ln(ratio^k)/ln(ratio)` computes to k ± ulp and
            // truncation turns k - ulp into k-1), so correct it against the
            // exact edges: bucket i must satisfy ratio^i <= x/base < ratio^(i+1).
            let mut i = ((x / self.base).ln() / self.ratio.ln()) as usize;
            if self.base * self.ratio.powi(i as i32 + 1) <= x {
                i += 1;
            } else if self.base * self.ratio.powi(i as i32) > x {
                i = i.saturating_sub(1);
            }
            i
        };
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate percentile (`q` in `[0, 1]`): upper edge of the bucket
    /// where the rank lands. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.base * self.ratio.powi(i as i32 + 1));
            }
        }
        Some(self.base * self.ratio.powi(self.counts.len() as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_matches_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn series_percentiles_exact() {
        let mut s = Series::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.99), Some(99.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.max(), Some(100.0));
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn series_empty() {
        let s = Series::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn histogram_percentile_brackets_truth() {
        let mut h = Histogram::latency_seconds();
        // 1000 samples uniform on [1ms, 2ms].
        for i in 0..1000 {
            h.add(0.001 + 0.001 * (i as f64 / 1000.0));
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!((0.0013..0.0018).contains(&p50), "p50={p50}");
        assert_eq!(h.total(), 1000);
        assert_eq!(Histogram::new(1.0, 2.0, 4).percentile(0.5), None);
    }

    #[test]
    fn histogram_bucket_edges_are_exact() {
        // Regression: a sample sitting exactly on a bucket edge
        // `base * ratio^k` belongs to bucket k ([base·r^k, base·r^(k+1))),
        // but the raw log-truncation index could come out as k-1. A single
        // sample at the edge must therefore report the bucket-k upper edge
        // as every percentile.
        for k in 1..60 {
            let mut h = Histogram::new(1.0, 2.0, 64);
            let edge = 2.0f64.powi(k);
            h.add(edge);
            let expect = 2.0f64.powi(k + 1);
            let got = h.percentile(1.0).unwrap();
            assert_eq!(got, expect, "k={k}: got {got}, expected {expect}");
        }
        // Non-power-of-two ratios too (the latency histogram's 1.05 steps).
        let h0 = Histogram::latency_seconds();
        for k in [1, 7, 100, 250, 400] {
            let mut h = h0.clone();
            let edge = 1e-6 * 1.05f64.powi(k);
            h.add(edge);
            let got = h.percentile(1.0).unwrap();
            let expect = 1e-6 * 1.05f64.powi(k + 1);
            assert!(
                (got - expect).abs() < 1e-12 * expect.abs(),
                "k={k}: got {got}, expected {expect}"
            );
        }
        // Just below the edge still lands in bucket k-1.
        let mut h = Histogram::new(1.0, 2.0, 64);
        h.add(8.0 * (1.0 - 1e-12));
        assert_eq!(h.percentile(1.0).unwrap(), 8.0);
    }

    #[test]
    fn series_batch_percentiles_match_per_call() {
        let mut s = Series::new();
        for i in (1..=500).rev() {
            s.add(i as f64 * 0.5);
        }
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        let batch = s.percentiles(&qs);
        for (q, got) in qs.iter().zip(&batch) {
            assert_eq!(*got, s.percentile(*q), "q={q}");
        }
        assert_eq!(Series::new().percentiles(&qs), vec![None; qs.len()]);
    }

    #[test]
    fn histogram_saturates_extremes() {
        let mut h = Histogram::new(1.0, 2.0, 4);
        h.add(0.001);
        h.add(1e12);
        assert_eq!(h.total(), 2);
        assert!(h.percentile(1.0).unwrap() <= 16.0 + 1e-9);
    }
}
