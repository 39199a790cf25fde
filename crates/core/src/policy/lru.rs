//! Least-recently-used replacement.

use pc_units::{BlockId, SimTime};

use crate::policy::{IndexList, OnlinePolicy, ReplacementPolicy};
use crate::table::Slot;

/// Classic LRU: evicts the block whose last access is oldest.
///
/// This is the paper's baseline policy and the recency stack PA-LRU builds
/// on. The stack is a slot-indexed [`IndexList`], so touch, insert and
/// evict are all O(1).
///
/// # Examples
///
/// ```
/// use pc_cache::policy::{Lru, ReplacementPolicy};
/// use pc_cache::Slot;
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let blk = |n| BlockId::new(DiskId::new(0), BlockNo::new(n));
/// let mut lru = Lru::new();
/// lru.on_access(None, blk(1), SimTime::from_secs(1));
/// lru.on_insert(Slot::new(0), blk(1), SimTime::from_secs(1));
/// lru.on_access(None, blk(2), SimTime::from_secs(2));
/// lru.on_insert(Slot::new(1), blk(2), SimTime::from_secs(2));
/// lru.on_access(Some(Slot::new(0)), blk(1), SimTime::from_secs(3)); // refresh 1
/// assert_eq!(lru.evict(), Slot::new(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lru {
    /// Recency order: front = most recent, back = eviction candidate.
    list: IndexList,
}

impl Lru {
    /// Creates an empty LRU stack.
    #[must_use]
    pub fn new() -> Self {
        Lru::default()
    }

    /// Number of tracked blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Returns `true` if no block is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> String {
        OnlinePolicy::Lru.name().to_owned()
    }

    fn on_access(&mut self, slot: Option<Slot>, _block: BlockId, _time: SimTime) {
        if let Some(slot) = slot {
            self.list.move_to_front(slot);
        }
    }

    fn on_insert(&mut self, slot: Slot, _block: BlockId, _time: SimTime) {
        self.list.push_front(slot);
    }

    fn evict(&mut self) -> Slot {
        self.list.pop_back().expect("no block to evict")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{blk, count_misses, seq_trace, Feeder};

    #[test]
    fn evicts_least_recent() {
        let mut lru = Lru::new();
        let mut f = Feeder::new();
        for n in 1..=3 {
            f.access(&mut lru, blk(0, n), SimTime::from_secs(n));
        }
        f.access(&mut lru, blk(0, 1), SimTime::from_secs(10));
        assert_eq!(f.evict(&mut lru), blk(0, 2));
        assert_eq!(f.evict(&mut lru), blk(0, 3));
        assert_eq!(f.evict(&mut lru), blk(0, 1));
        assert!(lru.is_empty());
    }

    #[test]
    fn misses_on_cyclic_scan_exceed_capacity() {
        // LRU's classic pathology: a cyclic scan of N+1 blocks through an
        // N-block cache misses every time.
        let t = seq_trace(&[1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]);
        assert_eq!(count_misses(&t, 3, Box::new(Lru::new())), 12);
    }

    #[test]
    fn hits_on_recency_friendly_stream() {
        let t = seq_trace(&[1, 2, 1, 2, 1, 2, 3, 3, 3]);
        assert_eq!(count_misses(&t, 2, Box::new(Lru::new())), 3);
    }

    #[test]
    #[should_panic(expected = "no block")]
    fn evict_on_empty_panics() {
        Lru::new().evict();
    }
}
