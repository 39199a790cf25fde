//! The paper's Table-3 synthetic trace generator (write-policy study).
//!
//! Spatial locality is controlled by the probabilities of sequential,
//! local and random accesses; temporal locality by a Zipf distribution of
//! stack distances over each disk's recently-used blocks; arrivals by an
//! exponential or Pareto gap distribution; and the write ratio directly.

use pc_units::{BlockId, BlockNo, DiskId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::recency::RecencyStack;
use crate::{GapDistribution, IoOp, Record, Trace, ZipfSampler};

/// Configuration of the Table-3 synthetic generator.
///
/// Defaults match the paper's Table 3: 1 million requests over 20 disks of
/// 18 GB, exponential arrivals with a 250 ms mean, 50% writes, access mix
/// 10% sequential / 20% local / 70% random with a 100-block maximum local
/// distance, and Zipf temporal locality.
///
/// # Examples
///
/// ```
/// use pc_trace::{GapDistribution, SyntheticConfig, TraceStats};
/// use pc_units::SimDuration;
///
/// let trace = SyntheticConfig::default()
///     .with_requests(5_000)
///     .with_write_ratio(0.8)
///     .with_gaps(GapDistribution::pareto(SimDuration::from_millis(100)))
///     .generate(7);
/// let stats = TraceStats::of(&trace);
/// assert!(stats.write_fraction > 0.75 && stats.write_fraction < 0.85);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of requests to generate.
    pub requests: usize,
    /// Number of disks.
    pub disks: u32,
    /// Inter-arrival time distribution.
    pub gaps: GapDistribution,
    /// Fraction of requests that are writes.
    pub write_ratio: f64,
    /// Capacity of each disk, in blocks.
    pub disk_blocks: u64,
    /// Probability that a non-reuse access is sequential (previous disk
    /// block + 1).
    pub seq_probability: f64,
    /// Probability that a non-reuse access is local (within
    /// `max_local_distance`).
    pub local_probability: f64,
    /// Maximum distance of a local access, in blocks.
    pub max_local_distance: u64,
    /// Probability that an access re-uses a recently-accessed block
    /// (drawn with Zipf-distributed stack distance over a short recency
    /// stack). This is the paper's Table-3 "hit ratio" knob: reuse
    /// accesses land in any reasonably-sized cache, the rest follow the
    /// sequential/local/random spatial mix over fresh blocks and miss.
    pub reuse_probability: f64,
    /// Zipf exponent for stack distances.
    pub zipf_theta: f64,
    /// Capacity of the per-disk recency stack the Zipf distances index.
    pub stack_depth: usize,
    /// Maximum transfer length of a sequential access, in blocks
    /// (lengths are drawn uniformly from `1..=max`; 1 = single-block
    /// requests only).
    pub max_run_blocks: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            requests: 1_000_000,
            disks: 20,
            gaps: GapDistribution::exponential(SimDuration::from_millis(250)),
            write_ratio: 0.5,
            disk_blocks: 18_000_000_000 / 8_192,
            seq_probability: 0.1,
            local_probability: 0.2,
            max_local_distance: 100,
            reuse_probability: 0.5,
            zipf_theta: 0.99,
            stack_depth: 128,
            max_run_blocks: 8,
        }
    }
}

impl SyntheticConfig {
    /// Sets the request count.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Sets the write ratio (0.0..=1.0).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]`.
    #[must_use]
    pub fn with_write_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "write ratio must be in [0,1]");
        self.write_ratio = ratio;
        self
    }

    /// Sets the inter-arrival distribution.
    #[must_use]
    pub fn with_gaps(mut self, gaps: GapDistribution) -> Self {
        self.gaps = gaps;
        self
    }

    /// Sets the number of disks.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero.
    #[must_use]
    pub fn with_disks(mut self, disks: u32) -> Self {
        assert!(disks > 0, "need at least one disk");
        self.disks = disks;
        self
    }

    /// Generates a trace deterministically from a seed.
    ///
    /// Collects [`SyntheticConfig::stream`], so the eager and streaming
    /// paths produce identical records by construction.
    ///
    /// # Panics
    ///
    /// Panics if the spatial probabilities sum to more than 1 or
    /// `stack_depth` is zero.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Trace {
        let mut trace = Trace::with_capacity(self.disks, self.requests);
        for record in self.stream(seed) {
            trace.push(record);
        }
        trace
    }

    /// Lazily generates the trace, one record per `next()` call, without
    /// materializing anything.
    ///
    /// This is the load-generator entry point: an online client can draw
    /// requests for hours from a fixed-size iterator (set `requests` to
    /// `usize::MAX` for an effectively unbounded stream). The stream and
    /// [`SyntheticConfig::generate`] perform the identical sequence of RNG
    /// draws, so for the same seed they yield the same records.
    ///
    /// # Panics
    ///
    /// Panics if the spatial probabilities sum to more than 1 or
    /// `stack_depth` is zero.
    #[must_use]
    pub fn stream(&self, seed: u64) -> SyntheticStream {
        assert!(
            self.seq_probability + self.local_probability <= 1.0 + 1e-12,
            "sequential + local probabilities must not exceed 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = ZipfSampler::new(self.stack_depth.max(1), self.zipf_theta);
        let last_block: Vec<u64> = (0..self.disks)
            .map(|_| rng.gen_range(0..self.disk_blocks))
            .collect();
        let stacks = vec![RecencyStack::new(self.stack_depth); self.disks as usize];
        SyntheticStream {
            cfg: self.clone(),
            rng,
            zipf,
            now: SimTime::ZERO,
            last_block,
            stacks,
            remaining: self.requests,
        }
    }
}

/// Lazy record iterator over a [`SyntheticConfig`] — see
/// [`SyntheticConfig::stream`].
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    cfg: SyntheticConfig,
    rng: StdRng,
    zipf: ZipfSampler,
    now: SimTime,
    last_block: Vec<u64>,
    stacks: Vec<RecencyStack>,
    remaining: usize,
}

impl Iterator for SyntheticStream {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let cfg = &self.cfg;
        let rng = &mut self.rng;
        self.now += cfg.gaps.sample(rng);
        let disk = rng.gen_range(0..cfg.disks);
        let d = disk as usize;
        let stack = &mut self.stacks[d];
        let mut run = 1u64;
        let block = if rng.gen::<f64>() < cfg.reuse_probability && !stack.is_empty() {
            // Temporal reuse: Zipf stack distance from the top.
            let depth = self.zipf.sample(rng).min(stack.len());
            stack.promote(depth)
        } else {
            let spatial: f64 = rng.gen();
            let block = if spatial < cfg.seq_probability {
                // Sequential accesses stream a multi-block run.
                run = rng.gen_range(1..=cfg.max_run_blocks.max(1));
                ((self.last_block[d] + 1) % cfg.disk_blocks).min(cfg.disk_blocks - run)
            } else if spatial < cfg.seq_probability + cfg.local_probability {
                let dist = rng.gen_range(1..=cfg.max_local_distance);
                (self.last_block[d] + dist) % cfg.disk_blocks
            } else {
                rng.gen_range(0..cfg.disk_blocks)
            };
            // A spatial access may land on a stacked block.
            stack.touch(block);
            block
        };
        self.last_block[d] = block + run - 1;
        let op = if rng.gen::<f64>() < cfg.write_ratio {
            IoOp::Write
        } else {
            IoOp::Read
        };
        Some(Record {
            time: self.now,
            block: BlockId::new(DiskId::new(disk), BlockNo::new(block)),
            blocks: run,
            op,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStats;

    #[test]
    fn respects_request_and_disk_counts() {
        let t = SyntheticConfig::default()
            .with_requests(3_000)
            .with_disks(5)
            .generate(1);
        assert_eq!(t.len(), 3_000);
        assert_eq!(t.disk_count(), 5);
    }

    #[test]
    fn write_ratio_is_honoured() {
        for ratio in [0.0, 0.25, 1.0] {
            let t = SyntheticConfig::default()
                .with_requests(8_000)
                .with_write_ratio(ratio)
                .generate(2);
            let s = TraceStats::of(&t);
            assert!(
                (s.write_fraction - ratio).abs() < 0.02,
                "got {} wanted {ratio}",
                s.write_fraction
            );
        }
    }

    #[test]
    fn mean_gap_tracks_configuration() {
        let t = SyntheticConfig::default()
            .with_requests(20_000)
            .with_gaps(GapDistribution::exponential(SimDuration::from_millis(50)))
            .generate(3);
        let s = TraceStats::of(&t);
        let m = s.mean_interarrival.as_millis_f64();
        assert!((m - 50.0).abs() < 3.0, "mean gap {m}ms");
    }

    #[test]
    fn deterministic_for_same_seed_distinct_for_different() {
        let cfg = SyntheticConfig::default().with_requests(1_000);
        assert_eq!(cfg.generate(9), cfg.generate(9));
        assert_ne!(cfg.generate(9), cfg.generate(10));
    }

    #[test]
    fn reuse_creates_temporal_locality() {
        let hot = SyntheticConfig {
            reuse_probability: 0.9,
            seq_probability: 0.0,
            local_probability: 0.0,
            ..SyntheticConfig::default()
        }
        .with_requests(10_000)
        .generate(4);
        let cold = SyntheticConfig {
            reuse_probability: 0.0,
            seq_probability: 0.0,
            local_probability: 0.0,
            ..SyntheticConfig::default()
        }
        .with_requests(10_000)
        .generate(4);
        let hot_cold = TraceStats::of(&hot).cold_fraction;
        let cold_cold = TraceStats::of(&cold).cold_fraction;
        assert!(
            hot_cold + 0.3 < cold_cold,
            "reuse {hot_cold} vs none {cold_cold}"
        );
    }

    #[test]
    fn sequential_probability_produces_adjacent_accesses() {
        let t = SyntheticConfig {
            seq_probability: 1.0,
            local_probability: 0.0,
            reuse_probability: 0.0,
            ..SyntheticConfig::default()
        }
        .with_requests(2_000)
        .with_disks(1)
        .generate(5);
        let mut adjacent = 0usize;
        let recs = t.records();
        for w in recs.windows(2) {
            // Each sequential request continues where the previous run
            // ended.
            if w[1].block.block().number() == w[0].block.block().number() + w[0].blocks {
                adjacent += 1;
            }
        }
        assert!(adjacent as f64 / (recs.len() - 1) as f64 > 0.95);
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn rejects_inconsistent_spatial_mix() {
        let cfg = SyntheticConfig {
            seq_probability: 0.8,
            local_probability: 0.8,
            ..SyntheticConfig::default()
        };
        let _ = cfg.with_requests(10).generate(0);
    }
}
