//! Order statistics and the seeded arrival schedule.
//!
//! Percentiles use the nearest-rank definition: `p` of `n` sorted samples
//! is the sample at rank `ceil(p/100 * n)`. A percentile is only printed
//! when at least [`MIN_BEYOND`] samples lie beyond its rank; a run too
//! short for its tail is refused instead of reporting a tail that one
//! sample decides.

use pacer_prng::Rng;

/// Samples a reported percentile needs beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples. `p * n` is formed first so whole percentiles of whole counts
/// stay exact.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Fewest samples for which percentile `p` has [`MIN_BEYOND`] beyond it.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank(p, n) >= MIN_BEYOND)
        .expect("every p < 100 has a finite minimum")
}

/// The nearest-rank percentile `p` of ascending `sorted`, without the
/// tail guard. `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(p, sorted.len()) - 1])
}

/// A sample sorted once, for repeated percentile queries.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (NaN-free by construction: every value is a
    /// measured duration, rate or count).
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The guarded nearest-rank percentile `p`.
    ///
    /// # Errors
    ///
    /// When fewer than [`MIN_BEYOND`] samples lie beyond the rank.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        let n = self.sorted.len();
        let at = rank(p, n);
        let beyond = n.saturating_sub(at);
        if n == 0 || beyond < MIN_BEYOND {
            return Err(format!(
                "p{p} of {n} sample(s) has {beyond} beyond it; {MIN_BEYOND} are needed \
                 (at least {} samples): lengthen the run",
                min_samples(p)
            ));
        }
        Ok(self.sorted[at - 1])
    }

    /// The median, with the same guard as any percentile.
    ///
    /// # Errors
    ///
    /// As [`Sample::percentile`].
    pub fn median(&self) -> Result<f64, String> {
        self.percentile(50.0)
    }

    /// Distance between the nearest-rank quartiles (unguarded: it is
    /// printed beside a metric, never reported as one).
    pub fn iqr(&self) -> f64 {
        match (
            nearest_rank(&self.sorted, 25.0),
            nearest_rank(&self.sorted, 75.0),
        ) {
            (Some(q1), Some(q3)) => q3 - q1,
            _ => 0.0,
        }
    }

    /// Unguarded median, for small samples such as repeated set-ups.
    pub fn middle(&self) -> Option<f64> {
        nearest_rank(&self.sorted, 50.0)
    }

    /// The values in ascending order.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Due times, in seconds from the start of the run, of `count` sessions
/// arriving as a Poisson process at `rate` per second.
///
/// The process is conditioned on `count` arrivals in `count / rate`
/// seconds: `count + 1` exponential gaps are scaled to sum to that
/// span, which gives exactly the uniform order statistics of a
/// conditioned Poisson process. Gaps stay exponential, so arrivals never
/// phase-lock with a periodic poll in the daemon, while the offered rate
/// is the same for every seed.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    // 1 - u is in (0, 1], so the logarithm is finite.
    let gaps: Vec<f64> = (0..=count).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let scale = (count as f64 / rate) / gaps.iter().sum::<f64>();
    let mut at = 0.0;
    gaps[..count]
        .iter()
        .map(|gap| {
            at += gap * scale;
            at
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let sample = |n: usize| Sample::new((1..=n).map(|v| v as f64).collect());
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(sample(20).median(), Ok(10.0));
        assert!(sample(19).median().is_err());
        assert_eq!(sample(100).percentile(90.0), Ok(90.0));
        assert!(sample(99).percentile(90.0).is_err());
        assert!(sample(999).percentile(99.0).is_err());
        assert_eq!(sample(1000).percentile(99.0), Ok(990.0));
        assert!(Sample::new(Vec::new()).median().is_err());
        let refused = sample(50).percentile(99.0).unwrap_err();
        assert!(refused.contains("lengthen the run"), "{refused}");
    }

    #[test]
    fn iqr_is_the_quartile_distance() {
        let s = Sample::new(vec![8.0, 1.0, 4.0, 2.0, 6.0, 3.0, 7.0, 5.0]);
        assert_eq!(s.values()[0], 1.0);
        assert_eq!(s.iqr(), 6.0 - 2.0);
        assert_eq!(Sample::new(vec![3.0]).iqr(), 0.0);
        assert_eq!(Sample::new(vec![]).iqr(), 0.0);
        assert_eq!(Sample::new(vec![2.0, 9.0, 4.0]).middle(), Some(4.0));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_hits_the_rate() {
        let a = poisson_schedule(7, 50.0, 1000);
        assert_eq!(a, poisson_schedule(7, 50.0, 1000));
        assert_ne!(a, poisson_schedule(8, 50.0, 1000));
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        for seed in 1..=20 {
            let due = poisson_schedule(seed, 50.0, 1000);
            let mean_rate = due.len() as f64 / due[due.len() - 1];
            assert!(
                (mean_rate / 50.0 - 1.0).abs() < 0.05,
                "seed {seed}: mean rate {mean_rate}"
            );
            // Exponential gaps: the coefficient of variation is near 1,
            // far from the 0 of a fixed-period schedule.
            let gaps: Vec<f64> = std::iter::once(due[0])
                .chain(due.windows(2).map(|w| w[1] - w[0]))
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            let cv = var.sqrt() / mean;
            assert!((0.85..1.15).contains(&cv), "seed {seed}: cv {cv}");
        }
    }
}
