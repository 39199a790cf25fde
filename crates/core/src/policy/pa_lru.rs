//! PA-LRU — the on-line power-aware replacement algorithm (paper §4).
//!
//! PA-LRU couples the per-disk [`DiskClassifier`] (Bloom-filter cold-miss
//! tracking + epoch interval histograms, Figure 5) with two LRU stacks:
//! LRU0 holds blocks of *regular* disks, LRU1 blocks of *priority* disks
//! (few cold accesses, long idle intervals — disks that can actually
//! sleep if their working set stays cached). Eviction always drains LRU0
//! first, so priority-disk blocks survive longer and their disks' idle
//! periods stretch into the deep power modes.

use pc_diskmodel::{ModeId, PowerModel};
use pc_units::{BlockId, DiskId, SimDuration, SimTime};

use crate::policy::{DiskClassifier, OnlinePolicy, PairedList, ReplacementPolicy};
use crate::table::Slot;

/// Tuning knobs for PA classification (used by [`PaLru`] and the generic
/// [`Pa`](crate::policy::Pa) wrapper).
///
/// The defaults are the paper's §5.1 settings: 15-minute epochs, p = 80%,
/// α = 50%, and T equal to the break-even time of the first NAP mode.
#[derive(Debug, Clone, PartialEq)]
pub struct PaLruConfig {
    /// Epoch length for reclassification.
    pub epoch: SimDuration,
    /// Cumulative probability p at which the interval CDF is probed.
    pub quantile: f64,
    /// Maximum cold-access fraction α for the priority class.
    pub cold_threshold: f64,
    /// Minimum `F⁻¹(p)` for the priority class (the paper sets this to
    /// NAP1's break-even time).
    pub interval_threshold: SimDuration,
    /// Bloom filter size, in bits.
    pub bloom_bits: usize,
    /// Bloom filter hash count.
    pub bloom_hashes: u32,
}

impl PaLruConfig {
    /// The paper's settings against a concrete power model: T = the
    /// break-even time of the shallowest low-power mode.
    #[must_use]
    pub fn for_power_model(power: &PowerModel) -> Self {
        let first_low = ModeId::new(1.min(power.mode_count() - 1));
        PaLruConfig {
            interval_threshold: power.break_even(first_low),
            ..PaLruConfig::default()
        }
    }
}

impl Default for PaLruConfig {
    fn default() -> Self {
        PaLruConfig {
            epoch: SimDuration::from_secs(15 * 60),
            quantile: 0.8,
            cold_threshold: 0.5,
            interval_threshold: SimDuration::from_secs(10),
            bloom_bits: 1 << 22,
            bloom_hashes: 4,
        }
    }
}

/// The power-aware LRU replacement policy.
///
/// # Examples
///
/// ```
/// use pc_cache::policy::{PaLru, PaLruConfig};
/// use pc_cache::{BlockCache, WritePolicy};
///
/// let pa = PaLru::new(PaLruConfig::default());
/// let cache = BlockCache::new(1024, Box::new(pa), WritePolicy::WriteBack);
/// assert_eq!(cache.policy_name(), "pa-lru");
/// ```
#[derive(Debug)]
pub struct PaLru {
    classifier: DiskClassifier,
    /// The two LRU stacks sharing one set of link arrays: list 0 holds
    /// regular-class blocks (drained first), list 1 priority-class ones.
    stacks: PairedList,
}

/// [`PairedList`] index of the regular-class stack.
const LRU0: usize = 0;
/// [`PairedList`] index of the priority-class stack.
const LRU1: usize = 1;

impl PaLru {
    /// Creates PA-LRU with the given configuration.
    #[must_use]
    pub fn new(config: PaLruConfig) -> Self {
        PaLru {
            classifier: DiskClassifier::new(config),
            stacks: PairedList::new(),
        }
    }

    /// Whether `disk` is currently classified as priority.
    #[must_use]
    pub fn is_priority(&self, disk: DiskId) -> bool {
        self.classifier.is_priority(disk)
    }

    /// Number of completed classification epochs.
    #[must_use]
    pub fn epochs_completed(&self) -> u64 {
        self.classifier.epochs_completed()
    }

    /// Sizes of (LRU0, LRU1).
    #[cfg(test)]
    #[must_use]
    pub fn stack_sizes(&self) -> (usize, usize) {
        (self.stacks.len(LRU0), self.stacks.len(LRU1))
    }

    /// Test-only hook: force a disk's class.
    #[cfg(test)]
    pub(crate) fn force_priority(&mut self, disk: DiskId) {
        self.classifier.force_priority(disk);
    }

    /// Places (or re-homes) a slot at the top of the stack matching its
    /// disk's current class.
    fn place(&mut self, slot: Slot, disk: DiskId) {
        self.stacks.remove(slot);
        let which = if self.is_priority(disk) { LRU1 } else { LRU0 };
        self.stacks.push_front(slot, which);
    }
}

impl ReplacementPolicy for PaLru {
    fn name(&self) -> String {
        OnlinePolicy::PaLru.name().to_owned()
    }

    fn on_access(&mut self, slot: Option<Slot>, block: BlockId, time: SimTime) {
        self.classifier.observe(block, time, slot.is_none());
        if let Some(slot) = slot {
            self.place(slot, block.disk());
        }
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, _time: SimTime) {
        self.place(slot, block.disk());
    }

    fn evict(&mut self) -> Slot {
        self.stacks
            .pop_back(LRU0)
            .or_else(|| self.stacks.pop_back(LRU1))
            .expect("no block to evict")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{blk, Feeder};

    /// Drives the raw policy protocol against an unbounded notional cache
    /// (no evictions), forgetting `b` afterwards when requested.
    fn feed(pa: &mut PaLru, f: &mut Feeder, b: BlockId, t: SimTime) {
        f.access(pa, b, t);
    }

    fn short_epoch_config() -> PaLruConfig {
        PaLruConfig {
            epoch: SimDuration::from_secs(100),
            interval_threshold: SimDuration::from_secs(10),
            ..PaLruConfig::default()
        }
    }

    #[test]
    fn classifies_quiet_low_cold_disk_as_priority() {
        let mut pa = PaLru::new(short_epoch_config());
        let mut f = Feeder::new();
        // Disk 0: dense stream of always-new blocks (high cold fraction,
        // short gaps) => regular.
        // Disk 1: few blocks revisited with long gaps => priority.
        for i in 0..250u64 {
            let t = SimTime::from_secs(i);
            feed(&mut pa, &mut f, blk(0, 10_000 + i), t);
            if i % 20 == 0 {
                // Misses on disk 1 arrive 20 s apart over a tiny recurring
                // working set; cold only within the first epoch.
                let b = blk(1, (i / 20) % 3);
                let was_resident = f.contains(b);
                feed(&mut pa, &mut f, b, t);
                if !was_resident {
                    // Force future misses: evict it right back out of the
                    // notional cache (it sits atop one of the stacks).
                    let slot = f.slot_of(b);
                    pa.stacks.remove(slot);
                    let _ = f.release(b);
                }
            }
        }
        assert!(pa.epochs_completed() >= 2);
        assert!(!pa.is_priority(DiskId::new(0)), "disk 0 must stay regular");
        assert!(
            pa.is_priority(DiskId::new(1)),
            "disk 1 must become priority"
        );
    }

    #[test]
    fn evicts_regular_stack_first() {
        let mut pa = PaLru::new(short_epoch_config());
        pa.force_priority(DiskId::new(1));
        let mut f = Feeder::new();
        feed(&mut pa, &mut f, blk(1, 1), SimTime::from_secs(1));
        feed(&mut pa, &mut f, blk(0, 2), SimTime::from_secs(2));
        feed(&mut pa, &mut f, blk(1, 3), SimTime::from_secs(3));
        // Oldest overall is the priority block (1,1); but eviction drains
        // LRU0 (the regular block) first.
        assert_eq!(f.evict(&mut pa), blk(0, 2));
        assert_eq!(f.evict(&mut pa), blk(1, 1));
        assert_eq!(f.evict(&mut pa), blk(1, 3));
    }

    #[test]
    fn rehomes_blocks_when_class_changes() {
        let mut pa = PaLru::new(short_epoch_config());
        let mut f = Feeder::new();
        feed(&mut pa, &mut f, blk(0, 1), SimTime::from_secs(1));
        assert_eq!(pa.stack_sizes(), (1, 0));
        pa.force_priority(DiskId::new(0));
        // A hit re-homes the block into LRU1.
        pa.on_access(Some(f.slot_of(blk(0, 1))), blk(0, 1), SimTime::from_secs(2));
        assert_eq!(pa.stack_sizes(), (0, 1));
    }

    #[test]
    fn empty_interval_histogram_counts_as_long_intervals() {
        // One access per epoch: the disk never records an interval but has
        // zero cold fraction after the bloom warms up — priority.
        let mut pa = PaLru::new(short_epoch_config());
        let mut f = Feeder::new();
        for e in 0..4u64 {
            let t = SimTime::from_secs(e * 150);
            let b = blk(0, 7);
            let was_resident = f.contains(b);
            feed(&mut pa, &mut f, b, t);
            if !was_resident {
                let slot = f.slot_of(b);
                pa.stacks.remove(slot);
            }
            let _ = f.release(b);
        }
        assert!(pa.is_priority(DiskId::new(0)));
    }

    #[test]
    fn falls_back_to_lru1_when_lru0_empty() {
        let mut pa = PaLru::new(short_epoch_config());
        pa.force_priority(DiskId::new(0));
        let mut f = Feeder::new();
        feed(&mut pa, &mut f, blk(0, 1), SimTime::from_secs(1));
        feed(&mut pa, &mut f, blk(0, 2), SimTime::from_secs(2));
        assert_eq!(f.evict(&mut pa), blk(0, 1), "LRU order within LRU1");
    }

    #[test]
    fn epoch_counter_skips_silent_stretches() {
        let mut pa = PaLru::new(short_epoch_config());
        let mut f = Feeder::new();
        feed(&mut pa, &mut f, blk(0, 1), SimTime::from_secs(1));
        // Jump far ahead: exactly one reclassification happens, and the
        // next epoch boundary lands beyond the new time.
        feed(&mut pa, &mut f, blk(0, 2), SimTime::from_secs(100_000));
        assert_eq!(pa.epochs_completed(), 1);
    }

    #[test]
    #[should_panic(expected = "no block")]
    fn evict_on_empty_panics() {
        PaLru::new(PaLruConfig::default()).evict();
    }
}
