//! `Pa<P>` — the generic power-aware wrapper (paper §4: "PA can be
//! combined with most existing storage cache replacement algorithms",
//! naming ARC, LIRS, DEMOTE and MQ).
//!
//! `Pa<P>` runs two independent instances of any inner policy `P`: one
//! for blocks of *regular* disks, one for blocks of *priority* disks (as
//! decided by the shared [`DiskClassifier`]). Eviction drains the regular
//! instance first — the exact bias PA-LRU applies to its two stacks,
//! generalized.
//!
//! Unlike the concrete [`PaLru`](crate::policy::PaLru) (which re-homes a
//! block on every hit), `Pa<P>` assigns a block to a class at insertion
//! time and keeps it there until eviction: generic inner policies have no
//! removal interface, and migration is a second-order effect (blocks turn
//! over within a few epochs anyway).

use pc_units::{BlockId, SimTime};

use crate::policy::{DiskClassifier, PaLruConfig, ReplacementPolicy};
use crate::table::Slot;

/// The generic power-aware two-class wrapper.
///
/// # Examples
///
/// ```
/// use pc_cache::policy::{ArcPolicy, Pa, PaLruConfig};
/// use pc_cache::{BlockCache, WritePolicy};
///
/// let pa_arc = Pa::new(
///     PaLruConfig::default(),
///     ArcPolicy::new(512),
///     ArcPolicy::new(512),
/// );
/// let cache = BlockCache::new(512, Box::new(pa_arc), WritePolicy::WriteBack);
/// assert_eq!(cache.policy_name(), "pa-arc");
/// ```
#[derive(Debug)]
pub struct Pa<P> {
    classifier: DiskClassifier,
    regular: P,
    priority: P,
    /// Class of each resident cache slot (`true` = priority instance).
    owner: Vec<bool>,
    regular_len: usize,
    priority_len: usize,
}

impl<P: ReplacementPolicy> Pa<P> {
    /// Wraps two inner-policy instances (they should be configured
    /// identically) behind the PA classifier.
    #[must_use]
    pub fn new(config: PaLruConfig, regular: P, priority: P) -> Self {
        Pa {
            classifier: DiskClassifier::new(config),
            regular,
            priority,
            owner: Vec::new(),
            regular_len: 0,
            priority_len: 0,
        }
    }

    /// Whether `disk` is currently classified as priority.
    #[must_use]
    pub fn is_priority(&self, disk: pc_units::DiskId) -> bool {
        self.classifier.is_priority(disk)
    }

    /// Sizes of the (regular, priority) instances.
    #[cfg(test)]
    #[must_use]
    pub fn class_sizes(&self) -> (usize, usize) {
        (self.regular_len, self.priority_len)
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for Pa<P> {
    fn name(&self) -> String {
        format!("pa-{}", self.regular.name())
    }

    fn on_access(&mut self, slot: Option<Slot>, block: BlockId, time: SimTime) {
        self.classifier.observe(block, time, slot.is_none());
        if let Some(slot) = slot {
            // Route to the instance that owns the slot.
            if self.owner[slot.index()] {
                self.priority.on_access(Some(slot), block, time);
            } else {
                self.regular.on_access(Some(slot), block, time);
            }
        } else {
            // Route the miss to the instance the block will join, so
            // ghost-based policies (ARC, MQ) see their history.
            if self.classifier.is_priority(block.disk()) {
                self.priority.on_access(None, block, time);
            } else {
                self.regular.on_access(None, block, time);
            }
        }
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, time: SimTime) {
        let to_priority = self.classifier.is_priority(block.disk());
        if slot.index() >= self.owner.len() {
            self.owner.resize(slot.index() + 1, false);
        }
        self.owner[slot.index()] = to_priority;
        if to_priority {
            self.priority.on_insert(slot, block, time);
            self.priority_len += 1;
        } else {
            self.regular.on_insert(slot, block, time);
            self.regular_len += 1;
        }
    }

    fn evict(&mut self) -> Slot {
        if self.regular_len > 0 {
            self.regular_len -= 1;
            self.regular.evict()
        } else {
            assert!(self.priority_len > 0, "no block to evict");
            self.priority_len -= 1;
            self.priority.evict()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{blk, Feeder};
    use crate::policy::{ArcPolicy, Lru, Mq};
    use pc_units::{DiskId, SimDuration};

    fn config() -> PaLruConfig {
        PaLruConfig {
            epoch: SimDuration::from_secs(100),
            interval_threshold: SimDuration::from_secs(10),
            ..PaLruConfig::default()
        }
    }

    /// The PA bias emerges for any inner policy: a warm quiet disk's
    /// blocks survive a cold flood once classified priority.
    fn protects_quiet_disk<P: ReplacementPolicy>(mut pa: Pa<P>) {
        let mut f = Feeder::new();
        let mut quiet_hits = 0u64;
        let mut quiet_accesses = 0u64;
        for i in 0..600u64 {
            let t = SimTime::from_secs(i);
            // Disk 0: cold flood.
            f.access_bounded(&mut pa, 8, blk(0, 10_000 + i), t);
            // Disk 1: 3-block working set every 20 s.
            if i % 20 == 0 {
                quiet_accesses += 1;
                if f.access_bounded(&mut pa, 8, blk(1, (i / 20) % 3), t).0 {
                    quiet_hits += 1;
                }
            }
        }
        assert!(pa.is_priority(DiskId::new(1)));
        assert!(!pa.is_priority(DiskId::new(0)));
        // After classification the tiny working set is pinned: a clear
        // majority of the quiet disk's accesses hit.
        assert!(
            quiet_hits * 2 > quiet_accesses,
            "quiet disk hits {quiet_hits}/{quiet_accesses}"
        );
    }

    #[test]
    fn pa_lru_inner_protects_quiet_disks() {
        protects_quiet_disk(Pa::new(config(), Lru::new(), Lru::new()));
    }

    #[test]
    fn pa_arc_protects_quiet_disks() {
        protects_quiet_disk(Pa::new(config(), ArcPolicy::new(8), ArcPolicy::new(8)));
    }

    #[test]
    fn pa_mq_protects_quiet_disks() {
        protects_quiet_disk(Pa::new(config(), Mq::new(8), Mq::new(8)));
    }

    #[test]
    fn name_reflects_inner_policy() {
        assert_eq!(Pa::new(config(), Lru::new(), Lru::new()).name(), "pa-lru");
        assert_eq!(
            Pa::new(config(), ArcPolicy::new(4), ArcPolicy::new(4)).name(),
            "pa-arc"
        );
        assert_eq!(Pa::new(config(), Mq::new(4), Mq::new(4)).name(), "pa-mq");
    }

    #[test]
    fn eviction_prefers_the_regular_class() {
        let mut pa = Pa::new(config(), Lru::new(), Lru::new());
        pa.classifier.force_priority(DiskId::new(1));
        let t = SimTime::from_secs(1);
        let mut f = Feeder::new();
        for (d, b) in [(1u32, 1u64), (0, 2), (1, 3)] {
            f.access(&mut pa, blk(d, b), t);
        }
        assert_eq!(f.evict(&mut pa), blk(0, 2), "regular block goes first");
        assert_eq!(pa.class_sizes(), (0, 2));
        assert_eq!(f.evict(&mut pa), blk(1, 1));
    }
}
