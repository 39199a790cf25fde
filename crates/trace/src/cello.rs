//! Cello96-like trace generator.
//!
//! HP's Cello96 file-server trace, as characterized by the paper: 19
//! disks, 38% writes, a 5.61 ms mean inter-arrival time, and — crucially
//! for the paper's §5.2 analysis — about 64% *cold* accesses (blocks never
//! seen before), which caps what any replacement policy can do. Request
//! gaps are tiny even for the cold-miss sub-stream, so disks rarely get a
//! chance to descend the power ladder and PA-LRU's edge over LRU is small.

use std::ops::Range;

use pc_units::{BlockId, BlockNo, DiskId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::recency::RecencyStack;
use crate::{GapDistribution, IoOp, Record, Trace, ZipfSampler};

/// Configuration of the Cello96-like generator.
///
/// Defaults match the paper's Table 2 row: 19 disks, 38% writes, 5.61 ms
/// mean inter-arrival, ~64% cold accesses. A file server's load is not
/// stationary, so the generator alternates busy and quiet phases
/// (`busy_secs`/`quiet_secs` at `quiet_factor` of the busy rate) while
/// preserving the overall mean inter-arrival time; the quiet phases are
/// where any energy headroom on Cello lives.
///
/// # Examples
///
/// ```
/// use pc_trace::{CelloConfig, TraceStats};
///
/// let stats = TraceStats::of(&CelloConfig::default().with_requests(4_000).generate(3));
/// assert_eq!(stats.disks, 19);
/// assert!(stats.write_fraction > 0.3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CelloConfig {
    /// Total number of requests.
    pub requests: usize,
    /// Number of disks.
    pub disks: u32,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// Mean inter-arrival time of the merged stream.
    pub mean_gap: SimDuration,
    /// Fraction of accesses that touch a never-before-seen block.
    pub cold_fraction: f64,
    /// Depth of the per-disk recency stack for warm re-accesses.
    pub stack_depth: usize,
    /// Zipf exponent for warm re-access stack distances.
    pub zipf_theta: f64,
    /// Zipf exponent skewing traffic across disks.
    pub disk_theta: f64,
    /// Number of busy/quiet cycles across the trace (phase lengths scale
    /// with the trace duration so any request count sees whole cycles).
    pub cycles: f64,
    /// Fraction of wall-clock spent in the quiet phase of each cycle.
    pub quiet_share: f64,
    /// Arrival-rate multiplier during quiet phases (1.0 = stationary).
    pub quiet_factor: f64,
    /// Maximum transfer length of a cold (scan/append) access, in blocks.
    pub max_run_blocks: u64,
}

impl Default for CelloConfig {
    fn default() -> Self {
        CelloConfig {
            requests: 200_000,
            disks: 19,
            write_fraction: 0.38,
            mean_gap: SimDuration::from_micros(5_610),
            cold_fraction: 0.64,
            stack_depth: 4_096,
            zipf_theta: 0.9,
            disk_theta: 0.5,
            cycles: 2.0,
            quiet_share: 0.4,
            quiet_factor: 0.01,
            max_run_blocks: 8,
        }
    }
}

impl CelloConfig {
    /// Sets the total request count.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Generates a trace deterministically from a seed.
    ///
    /// Collects [`CelloConfig::stream`], so the eager and streaming paths
    /// produce identical records by construction.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no disks, an empty recency stack
    /// or an invalid quiet phase.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Trace {
        let mut trace = Trace::with_capacity(self.disks, self.requests);
        for record in self.stream(seed) {
            trace.push(record);
        }
        trace
    }

    /// Lazily generates the trace, one record per `next()` call, in
    /// arrival order and without materializing anything: memory is the
    /// per-disk recency stacks, whatever `requests` is.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no disks, an empty recency stack
    /// or an invalid quiet phase.
    #[must_use]
    pub fn stream(&self, seed: u64) -> CelloStream {
        assert!(self.disks > 0, "need at least one disk");
        assert!(
            (0.0..1.0).contains(&self.quiet_share) && self.quiet_factor > 0.0,
            "quiet share must be in [0,1) and the quiet factor positive"
        );
        // Phase lengths scale with the expected trace duration; the
        // busy-phase rate is boosted so the configured overall mean gap
        // holds despite the quiet phases.
        let duration = self.mean_gap.as_secs_f64() * self.requests as f64;
        let cycle = duration / self.cycles.max(1e-9);
        // Quiet phase in the middle of each cycle: traces then start and
        // end inside busy phases, keeping the realized duration (and
        // hence the mean gap) unbiased.
        let quiet_len = cycle * self.quiet_share;
        let quiet_start = cycle * (1.0 - self.quiet_share) / 2.0;
        let duty = (1.0 - self.quiet_share) + self.quiet_share * self.quiet_factor;
        let busy_gap = SimDuration::from_secs_f64(self.mean_gap.as_secs_f64() * duty);
        let disks = self.disks as usize;
        CelloStream {
            cfg: self.clone(),
            rng: StdRng::seed_from_u64(seed),
            cycle,
            quiet: quiet_start..quiet_start + quiet_len,
            arrivals: GapDistribution::exponential(busy_gap),
            disk_pick: ZipfSampler::new(disks, self.disk_theta),
            stack_pick: ZipfSampler::new(self.stack_depth.max(1), self.zipf_theta),
            now: SimTime::ZERO,
            frontier: vec![0; disks],
            stacks: vec![RecencyStack::new(self.stack_depth); disks],
            remaining: self.requests,
        }
    }
}

/// Lazy record iterator over a [`CelloConfig`] — see
/// [`CelloConfig::stream`].
#[derive(Debug, Clone)]
pub struct CelloStream {
    cfg: CelloConfig,
    rng: StdRng,
    /// Length of one busy/quiet cycle, in seconds.
    cycle: f64,
    /// The quiet phase's position within a cycle, in seconds.
    quiet: Range<f64>,
    arrivals: GapDistribution,
    disk_pick: ZipfSampler,
    stack_pick: ZipfSampler,
    now: SimTime,
    /// Fresh blocks walk an allocation frontier per disk (scans, log
    /// appends, new files); warm accesses revisit the recency stack.
    frontier: Vec<u64>,
    stacks: Vec<RecencyStack>,
    remaining: usize,
}

impl Iterator for CelloStream {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let cfg = &self.cfg;
        let rng = &mut self.rng;
        // Busy/quiet modulation: inside a quiet phase the arrival rate
        // drops to `quiet_factor` (Poisson thinning).
        loop {
            self.now += self.arrivals.sample(rng);
            let cycle_pos = self.now.as_secs_f64() % self.cycle;
            if !self.quiet.contains(&cycle_pos)
                || cfg.quiet_factor >= 1.0
                || rng.gen::<f64>() < cfg.quiet_factor
            {
                break;
            }
        }
        let disk = (self.disk_pick.sample(rng) - 1) as u32;
        let d = disk as usize;
        let stack = &mut self.stacks[d];
        let cold = rng.gen::<f64>() < cfg.cold_fraction || stack.is_empty();
        let mut run = 1u64;
        let block = if cold {
            // Scans and appends stream fresh blocks in short runs. The
            // frontier only grows, so its next block was never stacked.
            run = rng.gen_range(1..=cfg.max_run_blocks.max(1));
            let first = self.frontier[d] + 1;
            self.frontier[d] += run;
            stack.push_fresh(first);
            first
        } else {
            let depth = self.stack_pick.sample(rng).min(stack.len());
            stack.promote(depth)
        };
        let op = if rng.gen::<f64>() < cfg.write_fraction {
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
    fn matches_table2_characteristics() {
        let t = CelloConfig::default().with_requests(40_000).generate(17);
        let s = TraceStats::of(&t);
        assert_eq!(s.disks, 19);
        assert!(
            (s.write_fraction - 0.38).abs() < 0.02,
            "writes {}",
            s.write_fraction
        );
        let gap = s.mean_interarrival.as_millis_f64();
        assert!((gap - 5.61).abs() < 0.6, "mean gap {gap}ms");
    }

    #[test]
    fn cold_fraction_is_dominant() {
        let s = TraceStats::of(&CelloConfig::default().with_requests(40_000).generate(5));
        assert!(
            (s.cold_fraction - 0.64).abs() < 0.05,
            "cold {}",
            s.cold_fraction
        );
    }

    #[test]
    fn traffic_is_skewed_across_disks() {
        let s = TraceStats::of(&CelloConfig::default().with_requests(40_000).generate(5));
        let busiest = s.per_disk.iter().map(|d| d.requests).max().unwrap();
        let quietest = s.per_disk.iter().map(|d| d.requests).min().unwrap();
        assert!(busiest > 2 * quietest, "{busiest} vs {quietest}");
    }

    #[test]
    fn per_disk_gaps_stay_below_spin_down_scale() {
        // Even the quietest disk sees requests every few hundred ms — far
        // below the ~10 s first spin-down threshold, the very property that
        // limits energy savings on Cello (paper §5.2).
        let s = TraceStats::of(&CelloConfig::default().with_requests(60_000).generate(5));
        for d in &s.per_disk {
            assert!(d.mean_interarrival < SimDuration::from_secs(2));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = CelloConfig::default().with_requests(2_000);
        assert_eq!(cfg.generate(4), cfg.generate(4));
        assert_ne!(cfg.generate(4), cfg.generate(5));
    }
}
