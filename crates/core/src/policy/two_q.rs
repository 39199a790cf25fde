//! 2Q replacement (Johnson & Shasha, VLDB'94).
//!
//! A classic scan-resistant second-level policy: new blocks enter a small
//! FIFO (`A1in`); only blocks re-referenced *after* leaving it — proven
//! re-use, remembered in the `A1out` ghost — earn a place in the main LRU
//! (`Am`).

use pc_units::{BlockId, SimTime};

use crate::policy::{IndexList, OnlinePolicy, ReplacementPolicy};
use crate::table::{BlockTable, Slot};

/// The 2Q replacement policy, sized for a specific cache capacity.
///
/// Uses the paper-recommended tuning: `Kin` = 25% of the cache,
/// `Kout` = 50% (as ghost ids). The ghost is its own [`BlockTable`] +
/// FIFO, so the former O(`Kout`) membership scan on every miss is now a
/// single hash probe.
///
/// # Examples
///
/// ```
/// use pc_cache::policy::TwoQ;
/// use pc_cache::{BlockCache, WritePolicy};
///
/// let cache = BlockCache::new(128, Box::new(TwoQ::new(128)), WritePolicy::WriteBack);
/// assert_eq!(cache.policy_name(), "2q");
/// ```
#[derive(Debug)]
pub struct TwoQ {
    kin: usize,
    kout: usize,
    /// Probationary FIFO of first-time blocks (cache slots).
    a1in: IndexList,
    /// Main LRU of proven-reuse blocks (cache slots).
    am: IndexList,
    /// Block ids per cache slot, for ghosting evicted victims.
    blocks: Vec<BlockId>,
    /// Ghost directory: block → ghost slot, plus its FIFO order.
    ghosts: BlockTable,
    ghost_order: IndexList,
    /// Pending classification for the block being inserted.
    pending_hot: bool,
}

impl TwoQ {
    /// Creates 2Q for a cache of `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "2Q needs a positive capacity");
        TwoQ {
            kin: (capacity / 4).max(1),
            kout: (capacity / 2).max(1),
            a1in: IndexList::new(),
            am: IndexList::new(),
            blocks: Vec::new(),
            ghosts: BlockTable::new(),
            ghost_order: IndexList::new(),
            pending_hot: false,
        }
    }

    /// Sizes of (`A1in`, `A1out`, `Am`) — diagnostic.
    #[cfg(test)]
    #[must_use]
    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.a1in.len(), self.ghost_order.len(), self.am.len())
    }

    fn remember_ghost(&mut self, block: BlockId) {
        let g = self.ghosts.intern(block);
        self.ghost_order.push_back(g);
        if self.ghost_order.len() > self.kout {
            if let Some(old) = self.ghost_order.pop_front() {
                self.ghosts.release(old);
            }
        }
    }

    fn record_block(&mut self, slot: Slot, block: BlockId) {
        if slot.index() >= self.blocks.len() {
            self.blocks.resize(slot.index() + 1, BlockId::default());
        }
        self.blocks[slot.index()] = block;
    }
}

impl ReplacementPolicy for TwoQ {
    fn name(&self) -> String {
        OnlinePolicy::TwoQ.name().to_owned()
    }

    fn on_access(&mut self, slot: Option<Slot>, block: BlockId, _time: SimTime) {
        if let Some(slot) = slot {
            // Hits in A1in deliberately do nothing (correlated references
            // shouldn't promote); hits in Am refresh the LRU position.
            if self.am.contains(slot) {
                self.am.move_to_front(slot);
            }
        } else {
            // A miss on a remembered ghost proves real re-use.
            if let Some(g) = self.ghosts.lookup(block) {
                self.ghost_order.remove(g);
                self.ghosts.release(g);
                self.pending_hot = true;
            } else {
                self.pending_hot = false;
            }
        }
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, _time: SimTime) {
        self.record_block(slot, block);
        if self.pending_hot {
            self.am.push_front(slot);
            self.pending_hot = false;
        } else {
            self.a1in.push_back(slot);
        }
    }

    fn evict(&mut self) -> Slot {
        if self.a1in.len() >= self.kin || self.am.is_empty() {
            if let Some(victim) = self.a1in.pop_front() {
                let block = self.blocks[victim.index()];
                self.remember_ghost(block);
                return victim;
            }
        }
        if let Some(victim) = self.am.pop_back() {
            return victim;
        }
        self.a1in.pop_front().expect("no block to evict")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{blk, count_misses, seq_trace, Feeder};
    use crate::policy::Lru;

    #[test]
    fn behaves_like_a_cache() {
        let t = seq_trace(&[1, 2, 3, 1, 2, 3, 4, 5, 1, 2]);
        let misses = count_misses(&t, 3, Box::new(TwoQ::new(3)));
        assert!((5..=10).contains(&misses), "misses {misses}");
    }

    #[test]
    fn ghost_reuse_promotes_to_am() {
        let mut q = TwoQ::new(8); // kin 2
        let mut f = Feeder::new();
        f.access(&mut q, blk(0, 1), SimTime::ZERO);
        f.access(&mut q, blk(0, 2), SimTime::ZERO);
        f.access(&mut q, blk(0, 3), SimTime::ZERO); // a1in over kin on next evict
        assert_eq!(f.evict(&mut q), blk(0, 1), "FIFO front leaves a1in");
        // Block 1 is now a ghost; touching it again makes it hot.
        f.access(&mut q, blk(0, 1), SimTime::ZERO);
        let (_, _, am) = q.sizes();
        assert_eq!(am, 1, "ghost reuse lands in Am");
    }

    #[test]
    fn one_shot_scans_never_pollute_am() {
        // Hot triple with reuse distance beyond the cache (LRU thrashes)
        // plus two one-shot scan blocks per round: only 2Q's ghost
        // promotion keeps the triple resident in Am.
        let mut pattern = Vec::new();
        for round in 0..60u64 {
            pattern.extend([1, 2, 3, 1_000 + 2 * round, 1_001 + 2 * round]);
        }
        let t = seq_trace(&pattern);
        let two_q = count_misses(&t, 4, Box::new(TwoQ::new(4)));
        let lru = count_misses(&t, 4, Box::new(Lru::new()));
        assert_eq!(lru, 300, "LRU thrashes every round");
        assert!(two_q < lru / 2, "2q {two_q} vs lru {lru}");
    }

    #[test]
    fn eviction_prefers_probation_when_full() {
        let mut q = TwoQ::new(4); // kin 1
        let mut f = Feeder::new();
        for n in 1..=4u64 {
            f.access(&mut q, blk(0, n), SimTime::ZERO);
        }
        // All four sit in a1in (nothing proved reuse): FIFO eviction.
        assert_eq!(f.evict(&mut q), blk(0, 1));
        assert_eq!(f.evict(&mut q), blk(0, 2));
    }

    #[test]
    fn ghost_list_is_bounded() {
        let mut q = TwoQ::new(4); // kout 2
        for n in 0..100u64 {
            q.remember_ghost(blk(0, n));
        }
        assert!(q.sizes().1 <= 2);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn rejects_zero_capacity() {
        let _ = TwoQ::new(0);
    }
}
