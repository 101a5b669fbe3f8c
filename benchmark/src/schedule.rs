//! Seeded open-loop arrival schedules in virtual time.

use symphony_sim::{PoissonProcess, Rng};

/// Virtual arrival instants (ns) of `n` sessions: a Poisson process of
/// `rate_per_s` sessions per virtual second starting at `start_ns`.
/// A rate of zero puts every arrival at `start_ns`: a burst.
pub fn poisson_arrivals(rng: &mut Rng, start_ns: u64, rate_per_s: f64, n: usize) -> Vec<u64> {
    if rate_per_s <= 0.0 {
        return vec![start_ns; n];
    }
    let process = PoissonProcess::new(rate_per_s);
    let mut at = start_ns;
    (0..n)
        .map(|_| {
            at += process.next_gap(rng).as_nanos();
            at
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_schedules() {
        let a = poisson_arrivals(&mut Rng::new(7), 1_000, 30.0, 256);
        let b = poisson_arrivals(&mut Rng::new(7), 1_000, 30.0, 256);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = poisson_arrivals(&mut Rng::new(7), 0, 30.0, 256);
        let b = poisson_arrivals(&mut Rng::new(8), 0, 30.0, 256);
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_monotone_start_late_and_match_the_rate() {
        let start = 5_000_000_000;
        let a = poisson_arrivals(&mut Rng::new(3), start, 50.0, 4000);
        assert!(a[0] >= start);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span_s = (a[a.len() - 1] - start) as f64 / 1e9;
        let rate = a.len() as f64 / span_s;
        assert!((rate - 50.0).abs() < 5.0, "empirical rate {rate}");
    }

    #[test]
    fn zero_rate_is_a_burst() {
        assert_eq!(poisson_arrivals(&mut Rng::new(1), 42, 0.0, 3), vec![42; 3]);
    }
}
