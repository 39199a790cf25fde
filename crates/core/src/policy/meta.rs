//! The adaptive meta-policy: online selection *among* the online
//! policies.
//!
//! The paper's central observation is that workload character — cold-miss
//! rates, inter-arrival distributions — is observable online and should
//! drive cache behaviour. PA-LRU applies that observation *within* one
//! policy; [`MetaPolicy`] applies it *to the choice of policy itself*,
//! in the spirit of AWRP's adaptive weight-ranking: it wraps the online
//! policy family, keeps exactly one sub-policy live, and at every epoch
//! boundary re-scores the whole family against the epoch's aggregate
//! statistics (hit ratio, cold-miss fraction, miss-gap distribution),
//! switching champions when another policy's smoothed weight clears the
//! incumbent's by a hysteresis margin.
//!
//! Epochs are **access-count** based, not time based: the serving layer
//! stamps arrivals with wall-clock micros while the simulator replays
//! virtual record times, and a count-based boundary lands on the same
//! access in both worlds. That is what makes switch decisions — and
//! therefore whole reports — byte-identical across runs.
//!
//! A switch must not dump the cache: the wrapper mirrors the resident set
//! (slot, block, last access) and warms the incoming sub-policy by
//! replaying the miss protocol (`on_access(None)` + `on_insert`) over the
//! residents in recency order, oldest first. The cache contents are
//! untouched; only the bookkeeping changes hands.

use pc_units::{BlockId, SimTime};

use crate::policy::{OnlinePolicy, PaLruConfig};
use crate::table::Slot;
use crate::{BloomFilter, IntervalHistogram, ReplacementPolicy};

use super::MetaStats;

/// Index of the starting champion in [`OnlinePolicy::ALL`], the
/// candidate family in fixed score order (ties break toward the lower
/// index): `lru`, the paper's baseline.
const INITIAL: usize = 0;

/// Tuning knobs for [`MetaPolicy`].
///
/// The defaults pair a 1024-access epoch with an exponentially smoothed
/// weight table (decay ½) and a 0.05 switch margin: long enough to see a
/// regime, reactive enough to catch a phase change within a couple of
/// epochs, and sticky enough that stationary workloads converge to one
/// champion and stay there.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaConfig {
    /// Epoch length, in cache accesses (block granularity).
    pub epoch_accesses: u64,
    /// How much a challenger's smoothed weight must exceed the
    /// incumbent's before the meta-policy switches.
    pub margin: f64,
    /// Exponential smoothing factor for the weight table (fraction of
    /// the *old* weight kept each epoch).
    pub decay: f64,
    /// Cache capacity in blocks, for the sub-policies that size ghost
    /// structures (ARC, MQ, LIRS, 2Q).
    pub capacity: usize,
    /// Classification parameters handed to the PA sub-policies. Its
    /// interval threshold also splits miss gaps into "long" and short:
    /// the power break-even horizon that makes the PA variants worth
    /// their bookkeeping.
    pub pa: PaLruConfig,
}

impl MetaConfig {
    /// A configuration for a cache of `capacity` blocks whose PA
    /// sub-policies classify with `pa`.
    #[must_use]
    pub fn new(capacity: usize, pa: PaLruConfig) -> Self {
        MetaConfig {
            epoch_accesses: 1024,
            margin: 0.05,
            decay: 0.5,
            capacity,
            pa,
        }
    }
}

/// A resident block as the wrapper mirrors it: enough to replay the miss
/// protocol into a fresh sub-policy on a switch.
#[derive(Debug, Clone, Copy)]
struct Resident {
    block: BlockId,
    last: SimTime,
    seq: u64,
}

/// Aggregate statistics for the current epoch.
#[derive(Debug)]
struct EpochWindow {
    accesses: u64,
    hits: u64,
    misses: u64,
    cold: u64,
    gaps: IntervalHistogram,
    last_miss: Option<SimTime>,
}

impl EpochWindow {
    fn new() -> Self {
        EpochWindow {
            accesses: 0,
            hits: 0,
            misses: 0,
            cold: 0,
            gaps: IntervalHistogram::standard(),
            last_miss: None,
        }
    }

    fn reset(&mut self) {
        self.accesses = 0;
        self.hits = 0;
        self.misses = 0;
        self.cold = 0;
        self.gaps.reset();
        // last_miss survives the roll: gaps spanning an epoch boundary
        // are still real gaps.
    }
}

/// The adaptive meta-policy — see the module documentation above.
///
/// # Examples
///
/// ```
/// use pc_cache::policy::{MetaConfig, MetaPolicy, PaLruConfig};
/// use pc_cache::{BlockCache, WritePolicy};
///
/// let meta = MetaPolicy::new(MetaConfig::new(1024, PaLruConfig::default()));
/// let cache = BlockCache::new(1024, Box::new(meta), WritePolicy::WriteBack);
/// assert_eq!(cache.policy_name(), "meta");
/// let stats = cache.meta_stats().expect("meta policy exposes gauges");
/// assert_eq!(stats.active, "lru");
/// assert_eq!(stats.switches, 0);
/// ```
pub struct MetaPolicy {
    config: MetaConfig,
    active: Box<dyn ReplacementPolicy>,
    active_idx: usize,
    /// Smoothed per-candidate weights (AWRP-style ranking state).
    weights: [f64; OnlinePolicy::ALL.len()],
    /// Slot-indexed mirror of the resident set.
    resident: Vec<Option<Resident>>,
    seq: u64,
    epoch: EpochWindow,
    bloom: BloomFilter,
    switches: u64,
    epochs: u64,
}

impl std::fmt::Debug for MetaPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaPolicy")
            .field("active", &OnlinePolicy::ALL[self.active_idx].name())
            .field("switches", &self.switches)
            .field("epochs", &self.epochs)
            .finish_non_exhaustive()
    }
}

impl MetaPolicy {
    /// Creates a meta-policy starting on LRU with a uniform weight table.
    #[must_use]
    pub fn new(config: MetaConfig) -> Self {
        let bloom = BloomFilter::new(config.pa.bloom_bits, config.pa.bloom_hashes);
        let active = OnlinePolicy::ALL[INITIAL].build(config.capacity, &config.pa);
        MetaPolicy {
            config,
            active,
            active_idx: INITIAL,
            weights: [0.5; OnlinePolicy::ALL.len()],
            resident: Vec::new(),
            seq: 0,
            epoch: EpochWindow::new(),
            bloom,
            switches: 0,
            epochs: 0,
        }
    }

    /// The live sub-policy's canonical name.
    #[must_use]
    pub fn active_name(&self) -> &'static str {
        OnlinePolicy::ALL[self.active_idx].name()
    }

    /// Number of champion switches so far.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of completed selection epochs.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    fn remember(&mut self, slot: Slot, block: BlockId, time: SimTime) {
        let idx = slot.index();
        if idx >= self.resident.len() {
            self.resident.resize(idx + 1, None);
        }
        self.seq += 1;
        self.resident[idx] = Some(Resident {
            block,
            last: time,
            seq: self.seq,
        });
    }

    /// Rolls the epoch: score every candidate against the window's
    /// features, fold the scores into the smoothed weights, and switch
    /// champions if a challenger clears the incumbent by the margin.
    fn roll_epoch(&mut self, time: SimTime) {
        let w = &self.epoch;
        let hit_ratio = w.hits as f64 / w.accesses.max(1) as f64;
        let cold_fraction = w.cold as f64 / w.misses.max(1) as f64;
        let long_gap = if w.gaps.total() == 0 {
            // No recorded miss gap this epoch: either everything hit or
            // misses are rarer than the epoch itself — the disks idle
            // long, which is exactly the power-aware regime.
            1.0
        } else {
            let mut below = 0.0;
            for (edge, f) in w.gaps.cdf() {
                if edge < self.config.pa.interval_threshold {
                    below = f;
                } else {
                    break;
                }
            }
            1.0 - below
        };

        let scores = candidate_scores(hit_ratio, cold_fraction, long_gap);
        let keep = self.config.decay;
        for (weight, score) in self.weights.iter_mut().zip(scores) {
            *weight = keep * *weight + (1.0 - keep) * score;
        }

        let mut best = 0;
        for i in 1..OnlinePolicy::ALL.len() {
            if self.weights[i] > self.weights[best] {
                best = i;
            }
        }
        if best != self.active_idx
            && self.weights[best] > self.weights[self.active_idx] + self.config.margin
        {
            self.switch_to(best, time);
        }

        self.epochs += 1;
        self.epoch.reset();
    }

    /// Hands the resident set to a freshly built candidate, replaying the
    /// miss protocol in recency order (oldest first) so the incoming
    /// policy's recency structures agree with reality.
    fn switch_to(&mut self, idx: usize, _time: SimTime) {
        let mut warm: Vec<(u64, Slot, BlockId, SimTime)> = self
            .resident
            .iter()
            .enumerate()
            .filter_map(|(slot, r)| r.map(|r| (r.seq, Slot::new(slot as u32), r.block, r.last)))
            .collect();
        warm.sort_unstable_by_key(|&(seq, ..)| seq);
        let mut next = OnlinePolicy::ALL[idx].build(self.config.capacity, &self.config.pa);
        for &(_, slot, block, last) in &warm {
            next.on_access(None, block, last);
            next.on_insert(slot, block, last);
        }
        self.active = next;
        self.active_idx = idx;
        self.switches += 1;
    }
}

impl ReplacementPolicy for MetaPolicy {
    fn name(&self) -> String {
        "meta".into()
    }

    fn on_access(&mut self, slot: Option<Slot>, block: BlockId, time: SimTime) {
        // Roll on the boundary *before* the access, so a switch always
        // lands between complete access cycles (never between a miss's
        // on_access and its on_insert).
        if self.epoch.accesses >= self.config.epoch_accesses {
            self.roll_epoch(time);
        }
        self.epoch.accesses += 1;
        match slot {
            Some(s) => {
                self.epoch.hits += 1;
                if let Some(r) = self.resident.get_mut(s.index()).and_then(Option::as_mut) {
                    self.seq += 1;
                    r.last = time;
                    r.seq = self.seq;
                }
            }
            None => {
                self.epoch.misses += 1;
                if !self.bloom.insert_check(block) {
                    self.epoch.cold += 1;
                }
                if let Some(last) = self.epoch.last_miss {
                    self.epoch.gaps.record(time.saturating_since(last));
                }
                self.epoch.last_miss = Some(time);
            }
        }
        self.active.on_access(slot, block, time);
    }

    fn evict(&mut self) -> Slot {
        let slot = self.active.evict();
        if let Some(r) = self.resident.get_mut(slot.index()) {
            *r = None;
        }
        slot
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, time: SimTime) {
        self.remember(slot, block, time);
        self.active.on_insert(slot, block, time);
    }

    fn on_prefetch_insert(&mut self, slot: Slot, block: BlockId, time: SimTime) {
        self.remember(slot, block, time);
        self.active.on_prefetch_insert(slot, block, time);
    }

    fn meta_stats(&self) -> Option<MetaStats> {
        Some(MetaStats {
            active: self.active_name().to_owned(),
            switches: self.switches,
            epochs: self.epochs,
        })
    }
}

/// The per-epoch affinity of every candidate for the observed regime,
/// each in roughly `[0, 1.25]`:
///
/// * recency policies score with the hit ratio (dense warm reuse),
/// * FIFO only becomes competitive when cold streams dominate (where
///   every policy degenerates to the same miss sequence anyway),
/// * the adaptive structures (ARC, LIRS) gain when the workload is warm
///   but the hit ratio is poor — the thrash/scan regimes they resist,
/// * each PA variant takes its base policy's score scaled by the
///   long-gap fraction, crossing 1 when half the miss gaps clear the
///   break-even point: above that the classifier's priority protection
///   pays; below it, it is pure overhead.
fn candidate_scores(h: f64, c: f64, g: f64) -> [f64; OnlinePolicy::ALL.len()] {
    let warm = 1.0 - c;
    let lru = 0.60 + 0.40 * h;
    let fifo = 0.30 + 0.40 * c;
    let arc = 0.55 + 0.45 * warm * (1.0 - h);
    let mq = 0.50 + 0.50 * h * warm;
    let lirs = 0.45 + 0.45 * warm * (1.0 - h);
    let two_q = 0.45 + 0.35 * warm;
    let pa = 0.70 + 0.60 * g;
    [
        lru,
        fifo,
        arc,
        mq,
        lirs,
        two_q,
        lru * pa,
        arc * pa,
        mq * pa,
        lirs * pa,
        two_q * pa,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{blk, Feeder};

    fn meta(epoch: u64) -> MetaPolicy {
        MetaPolicy::new(MetaConfig {
            epoch_accesses: epoch,
            ..MetaConfig::new(1024, PaLruConfig::default())
        })
    }

    #[test]
    fn starts_on_lru_with_no_switches() {
        let m = meta(64);
        assert_eq!(m.name(), "meta");
        assert_eq!(m.active_name(), "lru");
        let s = m.meta_stats().unwrap();
        assert_eq!((s.active.as_str(), s.switches, s.epochs), ("lru", 0, 0));
    }

    #[test]
    fn sparse_warm_traffic_switches_to_a_power_aware_policy() {
        // A small warm set re-accessed with 60 s gaps: every miss gap is
        // far past the 10 s break-even, so the PA multiplier lifts pa-lru
        // over lru within a few epochs.
        let mut m = meta(32);
        let mut f = Feeder::new();
        for i in 0..400u64 {
            let t = SimTime::from_secs(i * 60);
            f.access(&mut m, blk(0, i % 3), t);
        }
        assert!(m.switches() > 0, "expected a champion switch");
        assert!(
            m.active_name().starts_with("pa-"),
            "active {}",
            m.active_name()
        );
    }

    #[test]
    fn decisions_are_deterministic() {
        let drive = || {
            let mut m = meta(16);
            let mut f = Feeder::new();
            let mut log = Vec::new();
            for i in 0..600u64 {
                // Dense phase then sparse phase.
                let gap = if i < 300 { 1 } else { 120 };
                f.access(&mut m, blk(0, i % 7), SimTime::from_secs(i * gap));
                log.push(m.active_name());
            }
            (log, m.switches(), m.epochs())
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn switch_hands_over_the_resident_set() {
        let mut m = meta(8);
        let mut f = Feeder::new();
        let cap = 4usize;
        // Warm four blocks with long gaps until a switch happens.
        let mut i = 0u64;
        while m.switches() == 0 {
            f.access_bounded(&mut m, cap, blk(0, i % 4), SimTime::from_secs(i * 30));
            i += 1;
            assert!(i < 10_000, "never switched");
        }
        // The new sub-policy must evict only genuinely resident blocks,
        // and all four of them exactly once.
        let mut evicted = Vec::new();
        for _ in 0..4 {
            evicted.push(f.evict(&mut m));
        }
        evicted.sort_unstable_by_key(|b| b.block().number());
        let mut expect: Vec<_> = (0..4).map(|n| blk(0, n)).collect();
        expect.sort_unstable_by_key(|b| b.block().number());
        assert_eq!(evicted, expect);
    }

    #[test]
    fn stationary_dense_traffic_stays_on_one_champion() {
        let mut m = meta(64);
        let mut f = Feeder::new();
        // Dense 1 s warm reuse: lru-friendly, never long-gap.
        for i in 0..4_000u64 {
            f.access(&mut m, blk(0, i % 9), SimTime::from_secs(i));
        }
        assert!(m.epochs() > 10);
        assert!(m.switches() <= 1, "thrashing: {} switches", m.switches());
    }
}
