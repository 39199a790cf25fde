//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//!
//! One of the storage-cache policies the paper names as a candidate for
//! the PA treatment (§4). ARC balances a recency list (T1) against a
//! frequency list (T2), steering the split with ghost lists (B1, B2) of
//! recently-evicted block ids: a hit in B1 says "recency deserved more
//! space", a hit in B2 the opposite.

use pc_units::{BlockId, SimTime};

use crate::policy::{IndexList, OnlinePolicy, ReplacementPolicy};
use crate::table::{BlockTable, Slot};

/// Where the pending (missed) block came from, deciding its insertion
/// list and the REPLACE tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Fresh,
    GhostRecency,
    GhostFrequency,
}

/// The ARC replacement policy, sized for a specific cache capacity.
///
/// The configured capacity **must** equal the hosting
/// [`BlockCache`](crate::BlockCache)'s capacity: ARC sizes its ghost
/// lists and its adaptation against it.
///
/// T1/T2 are intrusive lists over cache slots; B1/B2 share a private
/// ghost [`BlockTable`], so every list operation — including the former
/// O(n) ghost membership probes — is O(1).
///
/// # Examples
///
/// ```
/// use pc_cache::policy::ArcPolicy;
/// use pc_cache::{BlockCache, WritePolicy};
///
/// let cache = BlockCache::new(256, Box::new(ArcPolicy::new(256)), WritePolicy::WriteBack);
/// assert_eq!(cache.policy_name(), "arc");
/// ```
#[derive(Debug)]
pub struct ArcPolicy {
    capacity: usize,
    /// Adaptive target size of T1.
    p: f64,
    /// Resident recency / frequency lists (cache slots, front = MRU).
    t1: IndexList,
    t2: IndexList,
    /// Block ids per cache slot, for ghosting evicted victims.
    blocks: Vec<BlockId>,
    /// Ghost directory shared by B1 and B2 (ghost slots, front = MRU).
    ghosts: BlockTable,
    b1: IndexList,
    b2: IndexList,
    pending: Pending,
    /// Set when the DBL invariant requires the next T1 eviction to be
    /// dropped instead of ghosted (|T1| = c with B1 empty).
    suppress_ghost: bool,
}

impl ArcPolicy {
    /// Creates ARC for a cache of `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ARC needs a positive capacity");
        ArcPolicy {
            capacity,
            p: 0.0,
            t1: IndexList::new(),
            t2: IndexList::new(),
            blocks: Vec::new(),
            ghosts: BlockTable::new(),
            b1: IndexList::new(),
            b2: IndexList::new(),
            pending: Pending::Fresh,
            suppress_ghost: false,
        }
    }

    /// Current adaptation target for T1 (diagnostic).
    #[cfg(test)]
    #[must_use]
    pub fn recency_target(&self) -> f64 {
        self.p
    }

    /// Sizes of (T1, T2, B1, B2) (diagnostic).
    #[cfg(test)]
    #[must_use]
    pub fn list_sizes(&self) -> (usize, usize, usize, usize) {
        (self.t1.len(), self.t2.len(), self.b1.len(), self.b2.len())
    }

    /// Drops the oldest ghost of `list`, forgetting its id.
    fn pop_ghost(ghosts: &mut BlockTable, list: &mut IndexList) {
        if let Some(g) = list.pop_back() {
            ghosts.release(g);
        }
    }
}

impl ReplacementPolicy for ArcPolicy {
    fn name(&self) -> String {
        OnlinePolicy::Arc.name().to_owned()
    }

    fn on_access(&mut self, slot: Option<Slot>, block: BlockId, _time: SimTime) {
        if let Some(slot) = slot {
            // Case I: promote to T2's MRU position.
            self.t1.remove(slot);
            self.t2.remove(slot);
            self.t2.push_front(slot);
            return;
        }
        let c = self.capacity as f64;
        let ghost = self.ghosts.lookup(block);
        if let Some(g) = ghost.filter(|&g| self.b1.contains(g)) {
            // Case II: ghost hit in B1 — recency deserved more room.
            let delta = (self.b2.len() as f64 / self.b1.len() as f64).max(1.0);
            self.p = (self.p + delta).min(c);
            self.b1.remove(g);
            self.ghosts.release(g);
            self.pending = Pending::GhostRecency;
        } else if let Some(g) = ghost {
            // Case III: ghost hit in B2 — frequency deserved more room.
            let delta = (self.b1.len() as f64 / self.b2.len() as f64).max(1.0);
            self.p = (self.p - delta).max(0.0);
            self.b2.remove(g);
            self.ghosts.release(g);
            self.pending = Pending::GhostFrequency;
        } else {
            // Case IV: brand-new block. Maintain the DBL(2c) invariants.
            self.pending = Pending::Fresh;
            self.suppress_ghost = false;
            let l1 = self.t1.len() + self.b1.len();
            if l1 >= self.capacity {
                if !self.b1.is_empty() {
                    Self::pop_ghost(&mut self.ghosts, &mut self.b1);
                } else {
                    // |T1| = c: the coming eviction must drop, not ghost.
                    self.suppress_ghost = true;
                }
            } else if self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len()
                >= 2 * self.capacity
            {
                Self::pop_ghost(&mut self.ghosts, &mut self.b2);
            }
        }
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, _time: SimTime) {
        if slot.index() >= self.blocks.len() {
            self.blocks.resize(slot.index() + 1, BlockId::default());
        }
        self.blocks[slot.index()] = block;
        match self.pending {
            Pending::Fresh => self.t1.push_front(slot),
            Pending::GhostRecency | Pending::GhostFrequency => self.t2.push_front(slot),
        }
        self.pending = Pending::Fresh;
    }

    fn evict(&mut self) -> Slot {
        // REPLACE(x, p): prefer T1 when it exceeds its target (or exactly
        // meets it on a B2 ghost hit).
        let ghost_frequency_hit = self.pending == Pending::GhostFrequency;
        let t1_len = self.t1.len() as f64;
        let from_t1 = !self.t1.is_empty()
            && (t1_len > self.p || (ghost_frequency_hit && (t1_len - self.p).abs() < 0.5));
        if from_t1 || self.t2.is_empty() {
            let v = self.t1.pop_back().expect("no block to evict");
            if self.suppress_ghost {
                self.suppress_ghost = false;
            } else {
                let g = self.ghosts.intern(self.blocks[v.index()]);
                self.b1.push_front(g);
            }
            v
        } else {
            let v = self.t2.pop_back().expect("no block to evict");
            let g = self.ghosts.intern(self.blocks[v.index()]);
            self.b2.push_front(g);
            v
        }
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
        let misses = count_misses(&t, 3, Box::new(ArcPolicy::new(3)));
        assert!((5..=10).contains(&misses), "misses {misses}");
    }

    #[test]
    fn frequency_hits_promote_to_t2() {
        let mut arc = ArcPolicy::new(4);
        let mut f = Feeder::new();
        f.access(&mut arc, blk(0, 1), SimTime::ZERO);
        assert_eq!(arc.list_sizes().0, 1, "first touch lands in T1");
        f.access(&mut arc, blk(0, 1), SimTime::ZERO);
        let (t1, t2, _, _) = arc.list_sizes();
        assert_eq!((t1, t2), (0, 1), "second touch promotes to T2");
    }

    #[test]
    fn ghost_hits_adapt_the_recency_target() {
        let mut arc = ArcPolicy::new(2);
        let mut f = Feeder::new();
        let mut feed = |arc: &mut ArcPolicy, b| f.access_bounded(arc, 2, b, SimTime::ZERO);
        // Promote block 1 into T2 so T1 stays below capacity and later
        // T1 evictions are ghosted into B1 (with T1 full and B1 empty,
        // real ARC drops victims un-ghosted).
        feed(&mut arc, blk(0, 1));
        feed(&mut arc, blk(0, 1)); // hit → T2
        feed(&mut arc, blk(0, 2)); // T1:[2]
        feed(&mut arc, blk(0, 3)); // evicts 2 → B1
        assert_eq!(arc.list_sizes().2, 1, "B1 holds the ghost of block 2");
        let p_before = arc.recency_target();
        feed(&mut arc, blk(0, 2)); // B1 ghost hit
        assert!(arc.recency_target() > p_before, "B1 hit must grow p");
    }

    #[test]
    fn scan_resistance_beats_lru() {
        // A loop of frequent blocks polluted by a one-shot scan: ARC keeps
        // the loop in T2; LRU flushes it.
        let mut pattern = Vec::new();
        for round in 0..30u64 {
            for hot in 0..3u64 {
                pattern.push(hot);
            }
            pattern.push(1_000 + round); // the scan
        }
        let t = seq_trace(&pattern);
        let arc = count_misses(&t, 4, Box::new(ArcPolicy::new(4)));
        let lru = count_misses(&t, 4, Box::new(Lru::new()));
        assert!(arc <= lru, "arc {arc} vs lru {lru}");
    }

    #[test]
    fn ghost_lists_stay_bounded() {
        let mut cache = crate::BlockCache::new(
            8,
            Box::new(ArcPolicy::new(8)),
            crate::WritePolicy::WriteBack,
        );
        for i in 0..2_000u64 {
            let b = blk(0, i % 100);
            cache.access_alloc(
                &pc_trace::Record::new(SimTime::from_millis(i), b, pc_trace::IoOp::Read),
                |_| false,
            );
        }
        // The DBL(2c) invariant: total tracked ids ≤ 2c.
        // (Probed indirectly: the cache still works and capacity holds.)
        assert!(cache.len() <= 8);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn rejects_zero_capacity() {
        let _ = ArcPolicy::new(0);
    }
}
