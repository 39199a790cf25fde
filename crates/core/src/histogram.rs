//! Epoch-based inter-arrival histogram (paper §4, Figure 5).
//!
//! PA-LRU approximates each disk's cumulative distribution function of
//! request interval lengths with a simple histogram: record every gap
//! between consecutive disk requests into geometric bins; at the end of an
//! epoch, read off the `p`-quantile and reset.

use pc_units::SimDuration;

/// A histogram over interval lengths with geometric bin edges.
///
/// # Examples
///
/// ```
/// use pc_cache::IntervalHistogram;
/// use pc_units::SimDuration;
///
/// let mut h = IntervalHistogram::standard();
/// for secs in [1, 2, 4, 50] {
///     h.record(SimDuration::from_secs(secs));
/// }
/// // 75% of intervals are ≤ 4 s, so the 70% quantile is small …
/// assert!(h.quantile(0.7) <= SimDuration::from_secs(8));
/// // … while the 90% quantile reaches into the 50 s bin.
/// assert!(h.quantile(0.9) >= SimDuration::from_secs(32));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalHistogram {
    /// Upper edge of each bin; the last bin is unbounded.
    edges: Vec<SimDuration>,
    counts: Vec<u64>,
    total: u64,
}

impl IntervalHistogram {
    /// Creates a histogram with the given bin upper edges (strictly
    /// increasing); one extra unbounded bin is appended.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly increasing.
    #[must_use]
    pub fn new(edges: Vec<SimDuration>) -> Self {
        assert!(!edges.is_empty(), "need at least one bin edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bin edges must be strictly increasing"
        );
        let bins = edges.len() + 1;
        IntervalHistogram {
            edges,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// The standard bins used in the experiments: 22 geometric edges from
    /// 62.5 ms to ~36.4 h (doubling), spanning everything from busy-disk
    /// gaps to idle-all-epoch disks.
    #[must_use]
    pub fn standard() -> Self {
        IntervalHistogram::geometric(SimDuration::from_micros(62_500), 22)
    }

    /// Geometric (doubling) bins starting at `first`.
    ///
    /// # Panics
    ///
    /// Panics if `first` is zero or `bins` is zero.
    #[must_use]
    pub fn geometric(first: SimDuration, bins: usize) -> Self {
        assert!(!first.is_zero(), "first bin edge must be positive");
        assert!(bins > 0, "need at least one bin");
        let mut edges = Vec::with_capacity(bins);
        let mut e = first;
        for _ in 0..bins {
            edges.push(e);
            e = e * 2;
        }
        IntervalHistogram::new(edges)
    }

    /// Records one interval. Counts saturate instead of wrapping: a
    /// histogram that runs for the lifetime of a long-lived server must
    /// degrade (quantiles go slightly stale) rather than panic or wrap.
    pub fn record(&mut self, interval: SimDuration) {
        let bin = self.edges.partition_point(|&edge| edge < interval);
        self.counts[bin] = self.counts[bin].saturating_add(1);
        self.total = self.total.saturating_add(1);
    }

    /// Folds another histogram's counts into this one (saturating).
    ///
    /// Used to aggregate per-shard latency histograms into one
    /// service-wide distribution: shards record independently and the
    /// stats snapshot merges them, so quantiles are over *all* requests.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bin edges — merging
    /// only makes sense over one shared binning scheme.
    pub fn merge(&mut self, other: &IntervalHistogram) {
        assert!(
            self.edges == other.edges,
            "cannot merge histograms with different bin edges"
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(o);
        }
        self.total = self.total.saturating_add(other.total);
    }

    /// Number of recorded intervals.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `p`-quantile: the upper edge of the first bin at which the
    /// cumulative fraction reaches `p` (i.e. `F⁻¹(p)` on the histogram
    /// CDF approximation). With no samples, returns zero. If the quantile
    /// falls in the unbounded top bin, returns [`SimDuration::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> SimDuration {
        assert!(p > 0.0 && p <= 1.0, "quantile p must be in (0,1]");
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let target = (p * self.total as f64).ceil() as u64;
        let mut cumulative = 0;
        for (bin, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return self.edges.get(bin).copied().unwrap_or(SimDuration::MAX);
            }
        }
        SimDuration::MAX
    }

    /// Clears all counts (epoch rollover).
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    /// The cumulative fraction of intervals not exceeding each bin edge —
    /// the Figure-5 curve, as `(edge, F(edge))` pairs.
    pub fn cdf(&self) -> impl Iterator<Item = (SimDuration, f64)> + '_ {
        let mut cumulative = 0u64;
        self.edges
            .iter()
            .zip(&self.counts)
            .map(move |(&edge, &count)| {
                cumulative += count;
                let f = if self.total == 0 {
                    0.0
                } else {
                    cumulative as f64 / self.total as f64
                };
                (edge, f)
            })
    }
}

impl Default for IntervalHistogram {
    fn default() -> Self {
        IntervalHistogram::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_right_bins() {
        let mut h =
            IntervalHistogram::new(vec![SimDuration::from_secs(1), SimDuration::from_secs(10)]);
        h.record(SimDuration::from_millis(500)); // bin 0 (≤ 1 s)
        h.record(SimDuration::from_secs(1)); // bin 0 (edge inclusive)
        h.record(SimDuration::from_secs(5)); // bin 1
        h.record(SimDuration::from_secs(100)); // top (unbounded)
        assert_eq!(h.total(), 4);
        assert_eq!(h.quantile(0.5), SimDuration::from_secs(1));
        assert_eq!(h.quantile(0.75), SimDuration::from_secs(10));
        assert_eq!(h.quantile(1.0), SimDuration::MAX);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = IntervalHistogram::standard();
        assert_eq!(h.quantile(0.8), SimDuration::ZERO);
    }

    #[test]
    fn reset_clears_counts() {
        let mut h = IntervalHistogram::standard();
        h.record(SimDuration::from_secs(3));
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile(0.8), SimDuration::ZERO);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one_without_top_bin_mass() {
        let mut h = IntervalHistogram::standard();
        for s in [1u64, 1, 2, 8, 30, 100, 2000] {
            h.record(SimDuration::from_secs(s));
        }
        let cdf: Vec<_> = h.cdf().collect();
        for w in cdf.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert!(w[0].0 < w[1].0);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_tracks_an_exponential_sample() {
        // 80th percentile of exp(mean 13 s) ≈ 20.9 s; with doubling bins
        // the histogram answer lands on the enclosing edge (32 s, since
        // the edge ladder runs …16 s, 32 s…).
        let mut h = IntervalHistogram::standard();
        let mut state = 0x1234_5678_u64;
        for _ in 0..50_000 {
            // xorshift for a quick deterministic uniform
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let gap = -13.0 * (1.0 - u).max(1e-12).ln();
            h.record(SimDuration::from_secs_f64(gap));
        }
        let q = h.quantile(0.8);
        assert!(
            q >= SimDuration::from_secs(16) && q <= SimDuration::from_secs(32),
            "quantile {q}"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_edges() {
        let _ = IntervalHistogram::new(vec![SimDuration::from_secs(2), SimDuration::from_secs(1)]);
    }

    #[test]
    fn merge_sums_counts_and_preserves_quantiles() {
        let mut a = IntervalHistogram::standard();
        let mut b = IntervalHistogram::standard();
        for s in [1u64, 2, 4] {
            a.record(SimDuration::from_secs(s));
        }
        for s in [50u64, 100, 200] {
            b.record(SimDuration::from_secs(s));
        }
        a.merge(&b);
        assert_eq!(a.total(), 6);
        // Half the mass is ≤ 4 s, the other half ≥ 50 s.
        assert!(a.quantile(0.5) <= SimDuration::from_secs(4));
        assert!(a.quantile(0.9) >= SimDuration::from_secs(50));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = IntervalHistogram::standard();
        a.record(SimDuration::from_secs(3));
        let pristine = a.clone();
        a.merge(&IntervalHistogram::standard());
        assert_eq!(a, pristine);
        let mut empty = IntervalHistogram::standard();
        empty.merge(&pristine);
        assert_eq!(empty, pristine);
        // Empty ∪ empty stays empty: the quantile degenerates to zero.
        let mut e2 = IntervalHistogram::standard();
        e2.merge(&IntervalHistogram::standard());
        assert_eq!(e2.total(), 0);
        assert_eq!(e2.quantile(0.99), SimDuration::ZERO);
    }

    #[test]
    fn single_bucket_histogram_merges_and_answers_quantiles() {
        // One finite bin plus the unbounded top bin — the degenerate
        // binning a minimal latency tracker might use.
        let edge = SimDuration::from_millis(1);
        let mut a = IntervalHistogram::new(vec![edge]);
        let mut b = IntervalHistogram::new(vec![edge]);
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_secs(9)); // top bin
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.quantile(0.5), edge);
        assert_eq!(a.quantile(1.0), SimDuration::MAX);
    }

    #[test]
    fn saturating_counts_survive_merge_without_wrapping() {
        let edge = SimDuration::from_millis(1);
        let mut a = IntervalHistogram::new(vec![edge]);
        let mut b = IntervalHistogram::new(vec![edge]);
        // Drive both histograms to the brink of overflow by merging a
        // seeded histogram into itself repeatedly (doubling), then merge
        // the two saturated sides together: counts must pin at u64::MAX,
        // never wrap to small values.
        a.record(SimDuration::from_micros(5));
        for _ in 0..64 {
            let snapshot = a.clone();
            a.merge(&snapshot);
        }
        b.record(SimDuration::from_micros(5));
        a.merge(&b);
        assert_eq!(a.total(), u64::MAX);
        // The distribution is still answerable and sane.
        assert_eq!(a.quantile(0.5), edge);
        let cdf: Vec<_> = a.cdf().collect();
        assert!((cdf[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different bin edges")]
    fn merge_rejects_mismatched_edges() {
        let mut a = IntervalHistogram::new(vec![SimDuration::from_secs(1)]);
        let b = IntervalHistogram::new(vec![SimDuration::from_secs(2)]);
        a.merge(&b);
    }
}
