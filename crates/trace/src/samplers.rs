//! Random samplers used by the workload generators.
//!
//! The paper's synthetic traces (Table 3) use exponential or Pareto
//! inter-arrival times ("Pareto … with a finite mean and infinite
//! variance", i.e. shape between 1 and 2) and Zipf-distributed stack
//! distances for temporal locality.

use pc_units::SimDuration;
use rand::Rng;

/// An inter-arrival time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GapDistribution {
    /// Exponential gaps (a Poisson arrival process; no burstiness).
    Exponential {
        /// Mean inter-arrival time.
        mean: SimDuration,
    },
    /// Pareto gaps: bursty arrivals with finite mean, infinite variance.
    Pareto {
        /// Mean inter-arrival time.
        mean: SimDuration,
        /// Shape parameter α; must satisfy `1 < α ≤ 2` for a finite mean
        /// and infinite variance as in the paper.
        shape: f64,
    },
}

impl GapDistribution {
    /// Exponential gaps with the given mean.
    #[must_use]
    pub fn exponential(mean: SimDuration) -> Self {
        GapDistribution::Exponential { mean }
    }

    /// Pareto gaps with the given mean and the paper-style shape of 1.3.
    #[must_use]
    pub fn pareto(mean: SimDuration) -> Self {
        GapDistribution::Pareto { mean, shape: 1.3 }
    }

    /// The configured mean gap.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        match *self {
            GapDistribution::Exponential { mean } | GapDistribution::Pareto { mean, .. } => mean,
        }
    }

    /// Draws one inter-arrival gap.
    ///
    /// # Panics
    ///
    /// Panics if a Pareto shape ≤ 1 was configured (infinite mean).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match *self {
            GapDistribution::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
            }
            GapDistribution::Pareto { mean, shape } => {
                assert!(shape > 1.0, "Pareto shape must exceed 1 for a finite mean");
                // mean = scale * shape / (shape - 1)  =>  scale below.
                let scale = mean.as_secs_f64() * (shape - 1.0) / shape;
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                SimDuration::from_secs_f64(scale / u.powf(1.0 / shape))
            }
        }
    }
}

/// A Zipf(θ) sampler over ranks `1..=n`, used for stack-distance temporal
/// locality: small ranks (recently-used blocks) are drawn most often.
///
/// A draw inverts the CDF in O(1) expected time with a guide table (the
/// "indexed search" of Chen & Asau, 1974): bucket `j` of `K` equal-width
/// buckets of `[0, 1)` records the first rank whose CDF reaches `j / K`,
/// and the draw scans forward from its bucket's rank. It returns exactly
/// the rank a binary search over the CDF returns (see DESIGN.md §7.6).
///
/// # Examples
///
/// ```
/// use pc_trace::ZipfSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = ZipfSampler::new(100, 0.99);
/// let mut rng = StdRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=100).contains(&rank));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    /// `cdf[i]` = P(rank ≤ i + 1); the last entry is exactly 1.
    cdf: Vec<f64>,
    /// `K = n.next_power_of_two()` entries: `guide[j]` is the first
    /// index `i` with `cdf[i] ≥ j / K`.
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Builds a sampler over ranks `1..=n` with exponent `theta`
    /// (`P(rank=k) ∝ k^{-theta}`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds `u32::MAX`, or `theta` is negative
    /// or not finite.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-theta);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        // One merge pass over the bucket edges, which ascend. Every edge
        // is below 1 = cdf[n - 1], so the scan stays in bounds.
        let buckets = n.next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut i = 0;
        for j in 0..buckets {
            let edge = j as f64 / buckets as f64;
            while cdf[i] < edge {
                i += 1;
            }
            guide.push(u32::try_from(i).expect("Zipf rank count fits in u32"));
        }
        ZipfSampler { cdf, guide }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the sampler has a single rank.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank a uniform `u` in `[0, 1]` inverts to: one more than the
    /// index [`ZipfSampler::search`] finds.
    ///
    /// `u · K` is exact because `K` is a power of two, so bucket
    /// `j = ⌊u · K⌋` has `j / K ≤ u` and its first rank lies at or before
    /// the first `i` with `cdf[i] ≥ u`; the scan stops exactly there.
    /// (`u = 1` only arises in tests; it clamps into the last bucket.)
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let bucket = ((u * self.guide.len() as f64) as usize).min(self.guide.len() - 1);
        let mut i = self.guide[bucket] as usize;
        while self.cdf[i] < u {
            i += 1;
        }
        // A CDF entry equal to `u` with an equal neighbour: the binary
        // search may stop anywhere in that run, so ask it.
        if self.cdf[i] == u && self.cdf.get(i + 1) == Some(&u) {
            return self.search(u);
        }
        i + 1
    }

    /// The rank a binary search over the CDF finds: the decider on tied
    /// CDF entries, and the reference the guide table is tested against.
    #[cold]
    fn search(&self, u: f64) -> usize {
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_of(dist: GapDistribution, samples: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(99);
        let total: f64 = (0..samples)
            .map(|_| dist.sample(&mut rng).as_secs_f64())
            .sum();
        total / samples as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let target = SimDuration::from_millis(250);
        let m = mean_of(GapDistribution::exponential(target), 200_000);
        assert!((m - 0.25).abs() < 0.005, "mean {m}");
    }

    #[test]
    fn pareto_mean_converges_roughly() {
        // Infinite variance makes the sample mean noisy; allow a wide band.
        let target = SimDuration::from_millis(250);
        let m = mean_of(GapDistribution::pareto(target), 400_000);
        assert!((m - 0.25).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn pareto_is_burstier_than_exponential() {
        // The median Pareto gap is far below its mean (mass in rare bursts).
        let mut rng = StdRng::seed_from_u64(7);
        let dist = GapDistribution::pareto(SimDuration::from_millis(250));
        let mut gaps: Vec<f64> = (0..20_001)
            .map(|_| dist.sample(&mut rng).as_secs_f64())
            .collect();
        gaps.sort_by(f64::total_cmp);
        let median = gaps[gaps.len() / 2];
        assert!(median < 0.15, "median {median} should sit well below mean");
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn pareto_rejects_infinite_mean_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let dist = GapDistribution::Pareto {
            mean: SimDuration::from_millis(1),
            shape: 0.9,
        };
        let _ = dist.sample(&mut rng);
    }

    #[test]
    fn zipf_favours_small_ranks() {
        let zipf = ZipfSampler::new(1_000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0usize;
        let n = 50_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) <= 10 {
                head += 1;
            }
        }
        // Top-10 of 1000 ranks should take a large share under Zipf(0.99).
        assert!(head as f64 / n as f64 > 0.25);
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let zipf = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) - 1] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 800.0, "count {c}");
        }
    }

    /// Every `u` the guide table must invert as the binary search does
    /// for one sampler: each CDF value and its neighbours, each bucket
    /// edge, and 100 k seeded draws; all within `[0, 1]`.
    fn guide_probes(zipf: &ZipfSampler, seed: u64) -> Vec<f64> {
        let buckets = zipf.guide.len();
        let mut probes: Vec<f64> = zipf
            .cdf
            .iter()
            .flat_map(|&p| [p, p.next_down(), p.next_up()])
            .chain((0..buckets).map(|j| j as f64 / buckets as f64))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        probes.extend((0..100_000).map(|_| rng.gen::<f64>()));
        probes.retain(|u| (0.0..=1.0).contains(u));
        probes
    }

    #[test]
    fn guide_table_inverts_exactly_as_the_binary_search() {
        for n in [1, 2, 3, 19, 20, 128, 1_000, 4_096] {
            for theta in [0.0, 0.2, 0.5, 0.9, 0.99, 1.2] {
                let zipf = ZipfSampler::new(n, theta);
                assert_eq!(zipf.guide.len(), n.next_power_of_two());
                for u in guide_probes(&zipf, n as u64) {
                    assert_eq!(zipf.rank_of(u), zipf.search(u), "n {n} θ {theta} u {u}");
                }
            }
        }
    }

    #[test]
    fn guide_table_defers_to_the_binary_search_on_tied_cdf_entries() {
        // Past rank ~10⁴ the terms of Zipf(4) fall below half an ulp of
        // the running total, so the CDF's tail is one long run of 1.0.
        let zipf = ZipfSampler::new(65_536, 4.0);
        let tied = zipf.cdf.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(tied > 50_000, "{tied} tied neighbours");
        for u in guide_probes(&zipf, 4) {
            assert_eq!(zipf.rank_of(u), zipf.search(u), "u {u}");
        }
        // Seeded draws agree with the binary search through `sample`.
        let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for _ in 0..10_000 {
            assert_eq!(zipf.sample(&mut a), zipf.search(b.gen()));
        }
    }

    #[test]
    fn zipf_ranks_stay_in_range() {
        let zipf = ZipfSampler::new(3, 1.2);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert!((1..=3).contains(&zipf.sample(&mut rng)));
        }
    }
}
