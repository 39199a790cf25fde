//! Non-stationary workload scenarios: the same request fabric as the
//! Table-3 synthetic generator, but with the parameter set scheduled over
//! **phases** so workload character shifts mid-run.
//!
//! Four scenarios cover the canonical ways production storage traffic
//! drifts:
//!
//! * `diurnal` — alternating day/night: dense broad traffic, then sparse
//!   narrow traffic with long gaps (the power-aware regime).
//! * `flash-crowd` — calm near-idle background punctuated by bursts
//!   that hammer a tiny hot set on few disks at orders of magnitude the
//!   background arrival rate.
//! * `churn` — a rotating tenant: most traffic focuses on a quarter of
//!   the disks, and the focus window advances every phase, re-faulting
//!   each new tenant's working set.
//! * `phase-change` — one abrupt regime flip: warm dense reads become a
//!   cold, sequential, write-heavy scan and stay that way.
//!
//! Phases are **request-count** scheduled, so a stream is deterministic
//! for a seed regardless of whether it feeds the simulator (virtual
//! time) or a live load generator (wall clock), and phase boundaries are
//! hit even in short smoke runs. Virtual time is continuous across phase
//! boundaries — only the sampling parameters change.

use pc_units::{BlockId, BlockNo, DiskId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::recency::RecencyStack;
use crate::{GapDistribution, IoOp, Record, Trace, ZipfSampler};

/// Which non-stationary schedule drives the phase parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Alternating dense-broad / sparse-narrow phases.
    Diurnal,
    /// Background traffic with periodic hot-set bursts.
    FlashCrowd,
    /// A focus window rotating across the disk array every phase.
    Churn,
    /// A single abrupt mid-run regime flip.
    PhaseChange,
}

impl Scenario {
    /// The scenario's canonical name (the suffix of
    /// `nonstationary:<name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Diurnal => "diurnal",
            Scenario::FlashCrowd => "flash-crowd",
            Scenario::Churn => "churn",
            Scenario::PhaseChange => "phase-change",
        }
    }

    /// All four scenarios, in canonical order.
    #[must_use]
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::Diurnal,
            Scenario::FlashCrowd,
            Scenario::Churn,
            Scenario::PhaseChange,
        ]
    }

    /// Parses a scenario name as accepted by
    /// [`Workload::parse`](crate::Workload::parse).
    #[must_use]
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name() == name)
    }
}

/// Configuration of the non-stationary generator.
///
/// # Examples
///
/// ```
/// use pc_trace::{NonStationaryConfig, Scenario, TraceStats};
///
/// let trace = NonStationaryConfig::new(Scenario::Diurnal)
///     .with_requests(5_000)
///     .generate(7);
/// assert_eq!(trace.len(), 5_000);
/// assert_eq!(TraceStats::of(&trace).disks, 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NonStationaryConfig {
    /// The phase schedule.
    pub scenario: Scenario,
    /// Number of requests to generate (`usize::MAX` = unbounded stream).
    pub requests: usize,
    /// Number of disks.
    pub disks: u32,
    /// Requests per phase. Count-based so phase boundaries are reached
    /// deterministically by any driver, simulated or live.
    pub phase_requests: usize,
    /// Capacity of each disk, in blocks.
    pub disk_blocks: u64,
}

impl NonStationaryConfig {
    /// A scenario over 20 disks with 10 000-request phases.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        NonStationaryConfig {
            scenario,
            requests: 200_000,
            disks: 20,
            phase_requests: 10_000,
            disk_blocks: 18_000_000_000 / 8_192,
        }
    }

    /// Sets the request count.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Sets the phase length, in requests.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is zero.
    #[must_use]
    pub fn with_phase_requests(mut self, requests: usize) -> Self {
        assert!(requests > 0, "phases need at least one request");
        self.phase_requests = requests;
        self
    }

    /// Generates a trace deterministically from a seed (collects
    /// [`NonStationaryConfig::stream`], so eager and lazy paths agree by
    /// construction).
    #[must_use]
    pub fn generate(&self, seed: u64) -> Trace {
        let mut trace = Trace::with_capacity(self.disks, self.requests);
        for record in self.stream(seed) {
            trace.push(record);
        }
        trace
    }

    /// Lazily streams the scenario's records — the load-generator entry
    /// point, O(recency stack) memory for any run length.
    #[must_use]
    pub fn stream(&self, seed: u64) -> NonStationaryStream {
        let mut rng = StdRng::seed_from_u64(seed);
        let last_block: Vec<u64> = (0..self.disks)
            .map(|_| rng.gen_range(0..self.disk_blocks))
            .collect();
        NonStationaryStream {
            cfg: self.clone(),
            rng,
            zipf: ZipfSampler::new(128, 0.99),
            now: SimTime::ZERO,
            last_block,
            stacks: vec![RecencyStack::new(128); self.disks as usize],
            issued: 0,
        }
    }

    /// The parameter set in force for phase `p`.
    fn phase_params(&self, p: usize) -> PhaseParams {
        let disks = self.disks;
        let quarter = (disks / 4).max(1);
        match self.scenario {
            Scenario::Diurnal => {
                if p.is_multiple_of(2) {
                    // Day: dense arrivals across the whole array.
                    PhaseParams {
                        gaps: GapDistribution::exponential(SimDuration::from_millis(60)),
                        write_ratio: 0.3,
                        reuse_probability: 0.5,
                        seq_probability: 0.1,
                        local_probability: 0.2,
                        focus: None,
                    }
                } else {
                    // Night: sparse warm traffic on a narrow disk subset —
                    // arrival gaps sit past the spin-down break-even
                    // horizon, so the rest of the array can sleep.
                    PhaseParams {
                        gaps: GapDistribution::exponential(SimDuration::from_secs(20)),
                        write_ratio: 0.1,
                        reuse_probability: 0.85,
                        seq_probability: 0.05,
                        local_probability: 0.1,
                        focus: Some(Focus {
                            lo: 0,
                            width: quarter,
                            probability: 0.9,
                        }),
                    }
                }
            }
            Scenario::FlashCrowd => {
                if p % 3 == 1 {
                    // The crowd: a hot set on two disks, dense arrivals.
                    PhaseParams {
                        gaps: GapDistribution::exponential(SimDuration::from_millis(20)),
                        write_ratio: 0.05,
                        reuse_probability: 0.9,
                        seq_probability: 0.0,
                        local_probability: 0.05,
                        focus: Some(Focus {
                            lo: 0,
                            width: 2.min(disks),
                            probability: 0.95,
                        }),
                    }
                } else {
                    // Calm background: sparse broad traffic, idle gaps
                    // long enough that spin-downs pay for themselves.
                    PhaseParams {
                        gaps: GapDistribution::exponential(SimDuration::from_secs(40)),
                        write_ratio: 0.4,
                        reuse_probability: 0.4,
                        seq_probability: 0.1,
                        local_probability: 0.2,
                        focus: None,
                    }
                }
            }
            Scenario::Churn => {
                // The active tenant's window advances each phase;
                // re-faulting the incoming tenant's blocks spikes the
                // cold-miss fraction at every boundary. Tenants arrive at
                // a lazy trickle, so the disks outside the window — and
                // between bursts, inside it — spend real time asleep.
                let lo = (p as u32 * quarter) % disks;
                PhaseParams {
                    gaps: GapDistribution::exponential(SimDuration::from_secs(25)),
                    write_ratio: 0.3,
                    reuse_probability: 0.6,
                    seq_probability: 0.1,
                    local_probability: 0.2,
                    focus: Some(Focus {
                        lo,
                        width: quarter,
                        probability: 0.8,
                    }),
                }
            }
            Scenario::PhaseChange => {
                if p == 0 {
                    // Warm dense reads.
                    PhaseParams {
                        gaps: GapDistribution::exponential(SimDuration::from_millis(50)),
                        write_ratio: 0.1,
                        reuse_probability: 0.8,
                        seq_probability: 0.05,
                        local_probability: 0.15,
                        focus: None,
                    }
                } else {
                    // After the flip: a cold, sequential, write-heavy
                    // scan with sparse arrivals — and it stays that way.
                    PhaseParams {
                        gaps: GapDistribution::exponential(SimDuration::from_millis(800)),
                        write_ratio: 0.7,
                        reuse_probability: 0.05,
                        seq_probability: 0.6,
                        local_probability: 0.2,
                        focus: None,
                    }
                }
            }
        }
    }
}

/// A disk focus window: with `probability`, the access lands on
/// `[lo, lo + width)` (mod the array size) instead of the whole array.
#[derive(Debug, Clone, Copy)]
struct Focus {
    lo: u32,
    width: u32,
    probability: f64,
}

/// One phase's sampling parameters.
#[derive(Debug, Clone)]
struct PhaseParams {
    gaps: GapDistribution,
    write_ratio: f64,
    reuse_probability: f64,
    seq_probability: f64,
    local_probability: f64,
    focus: Option<Focus>,
}

/// Lazy record iterator over a [`NonStationaryConfig`] — see
/// [`NonStationaryConfig::stream`].
#[derive(Debug, Clone)]
pub struct NonStationaryStream {
    cfg: NonStationaryConfig,
    rng: StdRng,
    zipf: ZipfSampler,
    now: SimTime,
    last_block: Vec<u64>,
    stacks: Vec<RecencyStack>,
    issued: usize,
}

impl Iterator for NonStationaryStream {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.issued >= self.cfg.requests {
            return None;
        }
        let params = self.cfg.phase_params(self.issued / self.cfg.phase_requests);
        self.issued += 1;
        let cfg = &self.cfg;
        let rng = &mut self.rng;
        self.now += params.gaps.sample(rng);
        let disk = match params.focus {
            Some(f) if rng.gen::<f64>() < f.probability => {
                (f.lo + rng.gen_range(0..f.width)) % cfg.disks
            }
            _ => rng.gen_range(0..cfg.disks),
        };
        let d = disk as usize;
        let stack = &mut self.stacks[d];
        let mut run = 1u64;
        let block = if rng.gen::<f64>() < params.reuse_probability && !stack.is_empty() {
            let depth = self.zipf.sample(rng).min(stack.len());
            stack.promote(depth)
        } else {
            let spatial: f64 = rng.gen();
            let block = if spatial < params.seq_probability {
                run = rng.gen_range(1..=8u64);
                ((self.last_block[d] + 1) % cfg.disk_blocks).min(cfg.disk_blocks - run)
            } else if spatial < params.seq_probability + params.local_probability {
                let dist = rng.gen_range(1..=100u64);
                (self.last_block[d] + dist) % cfg.disk_blocks
            } else {
                rng.gen_range(0..cfg.disk_blocks)
            };
            stack.touch(block);
            block
        };
        self.last_block[d] = block + run - 1;
        let op = if rng.gen::<f64>() < params.write_ratio {
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
    fn deterministic_for_same_seed_distinct_for_different() {
        for s in Scenario::all() {
            let cfg = NonStationaryConfig::new(s).with_requests(2_000);
            assert_eq!(cfg.generate(3), cfg.generate(3), "{}", s.name());
            assert_ne!(cfg.generate(3), cfg.generate(4), "{}", s.name());
        }
    }

    #[test]
    fn time_is_continuous_across_phase_boundaries() {
        for s in Scenario::all() {
            let t = NonStationaryConfig::new(s)
                .with_requests(3_000)
                .with_phase_requests(500)
                .generate(1);
            let recs = t.records();
            assert!(
                recs.windows(2).all(|w| w[0].time <= w[1].time),
                "{} times regressed",
                s.name()
            );
        }
    }

    #[test]
    fn diurnal_alternates_arrival_density() {
        let cfg = NonStationaryConfig::new(Scenario::Diurnal)
            .with_requests(4_000)
            .with_phase_requests(1_000);
        let t = cfg.generate(5);
        let recs = t.records();
        let span = |lo: usize, hi: usize| (recs[hi - 1].time - recs[lo].time).as_secs_f64();
        let day = span(0, 1_000);
        let night = span(1_000, 2_000);
        assert!(
            night > day * 5.0,
            "night span {night}s vs day span {day}s — phases did not alternate"
        );
    }

    #[test]
    fn churn_rotates_the_focused_disks() {
        let cfg = NonStationaryConfig::new(Scenario::Churn)
            .with_requests(2_000)
            .with_phase_requests(1_000);
        let t = cfg.generate(6);
        let recs = t.records();
        let top_disk = |lo: usize, hi: usize| {
            let mut counts = [0u32; 20];
            for r in &recs[lo..hi] {
                counts[r.block.disk().as_usize()] += 1;
            }
            (0..20).max_by_key(|&d| counts[d]).unwrap()
        };
        let first = top_disk(0, 1_000);
        let second = top_disk(1_000, 2_000);
        assert!(first < 5, "phase 0 focus in [0,5), got {first}");
        assert!(
            (5..10).contains(&second),
            "phase 1 focus in [5,10), got {second}"
        );
    }

    #[test]
    fn phase_change_flips_write_ratio_and_cold_fraction() {
        let cfg = NonStationaryConfig::new(Scenario::PhaseChange)
            .with_requests(8_000)
            .with_phase_requests(4_000);
        let t = cfg.generate(2);
        let recs = t.records();
        let writes = |lo: usize, hi: usize| {
            recs[lo..hi].iter().filter(|r| r.op == IoOp::Write).count() as f64 / (hi - lo) as f64
        };
        assert!(writes(0, 4_000) < 0.2, "warm phase is read-heavy");
        assert!(writes(4_000, 8_000) > 0.5, "scan phase is write-heavy");
    }

    #[test]
    fn stats_see_twenty_disks_and_all_requests() {
        let t = NonStationaryConfig::new(Scenario::FlashCrowd)
            .with_requests(3_000)
            .generate(9);
        let s = TraceStats::of(&t);
        assert_eq!(s.disks, 20);
        assert_eq!(t.len(), 3_000);
    }
}
