//! MQ — the Multi-Queue second-level buffer-cache policy (Zhou, Philbin
//! & Li, USENIX'01).
//!
//! Cited by the paper both as related work and as a PA-wrappable policy.
//! MQ keeps `m` LRU queues; a block with reference count `f` lives in
//! queue `⌊log₂ f⌋` (capped), so frequently-reused blocks climb to
//! higher queues and survive the weak recency locality of second-level
//! caches. Blocks expire down the ladder when unreferenced for
//! `life_time` accesses, and a ghost history (`Qout`) remembers the
//! reference counts of recently evicted blocks.

use pc_units::{BlockId, SimTime};

use crate::policy::{IndexList, OnlinePolicy, ReplacementPolicy};
use crate::table::{BlockTable, Slot};

/// Per-resident-slot metadata.
#[derive(Debug, Clone, Copy, Default)]
struct BlockMeta {
    frequency: u64,
    queue: usize,
    expires: u64,
}

/// The Multi-Queue replacement policy.
///
/// All queue moves are O(1): residents are tracked by cache slot in
/// intrusive [`IndexList`]s with a flat metadata vector, and the ghost
/// history is its own [`BlockTable`] + FIFO.
///
/// # Examples
///
/// ```
/// use pc_cache::policy::Mq;
/// use pc_cache::{BlockCache, WritePolicy};
///
/// let cache = BlockCache::new(512, Box::new(Mq::new(512)), WritePolicy::WriteBack);
/// assert_eq!(cache.policy_name(), "mq");
/// ```
#[derive(Debug)]
pub struct Mq {
    /// One LRU list per frequency level (front = most recent).
    queues: Vec<IndexList>,
    /// Metadata per cache slot.
    meta: Vec<BlockMeta>,
    /// Block ids per cache slot, for ghosting evicted victims.
    blocks: Vec<BlockId>,
    /// Ghost history of evicted blocks' reference counts, FIFO-bounded.
    ghosts: BlockTable,
    ghost_freq: Vec<u64>,
    ghost_order: IndexList,
    ghost_capacity: usize,
    life_time: u64,
    clock: u64,
}

impl Mq {
    /// MQ with the common defaults for a cache of `capacity` blocks:
    /// 8 queues, a ghost history of `capacity` ids, and a lifetime of
    /// 2 × capacity accesses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MQ needs a positive capacity");
        Mq::with_parameters(8, capacity, (capacity as u64) * 2)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics if `queues` or `life_time` is zero.
    #[must_use]
    pub fn with_parameters(queues: usize, ghost_capacity: usize, life_time: u64) -> Self {
        assert!(queues > 0, "MQ needs at least one queue");
        assert!(life_time > 0, "MQ needs a positive lifetime");
        Mq {
            queues: (0..queues).map(|_| IndexList::new()).collect(),
            meta: Vec::new(),
            blocks: Vec::new(),
            ghosts: BlockTable::new(),
            ghost_freq: Vec::new(),
            ghost_order: IndexList::new(),
            ghost_capacity: ghost_capacity.max(1),
            life_time,
            clock: 0,
        }
    }

    /// The queue a block with reference count `f` belongs in.
    fn queue_for(&self, frequency: u64) -> usize {
        (63 - frequency.max(1).leading_zeros() as usize).min(self.queues.len() - 1)
    }

    /// Places a slot into its frequency queue with a fresh lifetime.
    fn enqueue(&mut self, slot: Slot, frequency: u64) {
        let queue = self.queue_for(frequency);
        self.queues[queue].push_front(slot);
        if slot.index() >= self.meta.len() {
            self.meta.resize(slot.index() + 1, BlockMeta::default());
        }
        self.meta[slot.index()] = BlockMeta {
            frequency,
            queue,
            expires: self.clock + self.life_time,
        };
    }

    /// MQ's `Adjust`: demote expired queue heads one level, refreshing
    /// their lifetime.
    fn adjust(&mut self) {
        for q in (1..self.queues.len()).rev() {
            // At most one demotion per queue per access, like the paper.
            let Some(head) = self.queues[q].back() else {
                continue;
            };
            let meta = self.meta[head.index()];
            if meta.expires < self.clock {
                self.queues[q].remove(head);
                self.queues[q - 1].push_front(head);
                self.meta[head.index()] = BlockMeta {
                    queue: q - 1,
                    expires: self.clock + self.life_time,
                    ..meta
                };
            }
        }
    }

    fn remember_ghost(&mut self, block: BlockId, frequency: u64) {
        if let Some(g) = self.ghosts.lookup(block) {
            // Already remembered: refresh the count, keep the FIFO spot.
            self.ghost_freq[g.index()] = frequency;
            return;
        }
        let g = self.ghosts.intern(block);
        if g.index() >= self.ghost_freq.len() {
            self.ghost_freq.resize(g.index() + 1, 0);
        }
        self.ghost_freq[g.index()] = frequency;
        self.ghost_order.push_back(g);
        if self.ghost_order.len() > self.ghost_capacity {
            if let Some(old) = self.ghost_order.pop_front() {
                self.ghosts.release(old);
            }
        }
    }
}

impl ReplacementPolicy for Mq {
    fn name(&self) -> String {
        OnlinePolicy::Mq.name().to_owned()
    }

    fn on_access(&mut self, slot: Option<Slot>, _block: BlockId, _time: SimTime) {
        self.clock += 1;
        if let Some(slot) = slot {
            let meta = self.meta[slot.index()];
            self.queues[meta.queue].remove(slot);
            self.enqueue(slot, meta.frequency + 1);
        }
        self.adjust();
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, _time: SimTime) {
        if slot.index() >= self.blocks.len() {
            self.blocks.resize(slot.index() + 1, BlockId::default());
        }
        self.blocks[slot.index()] = block;
        // A returning block resumes its remembered reference count (the
        // ghost entry is read, not consumed).
        let frequency = match self.ghosts.lookup(block) {
            Some(g) => self.ghost_freq[g.index()] + 1,
            None => 1,
        };
        self.enqueue(slot, frequency);
    }

    fn evict(&mut self) -> Slot {
        for q in 0..self.queues.len() {
            if let Some(victim) = self.queues[q].pop_back() {
                let frequency = self.meta[victim.index()].frequency;
                self.remember_ghost(self.blocks[victim.index()], frequency);
                return victim;
            }
        }
        panic!("no block to evict");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{blk, count_misses, seq_trace, Feeder};
    use crate::policy::Lru;

    #[test]
    fn queue_assignment_is_logarithmic() {
        let mq = Mq::new(64);
        assert_eq!(mq.queue_for(1), 0);
        assert_eq!(mq.queue_for(2), 1);
        assert_eq!(mq.queue_for(3), 1);
        assert_eq!(mq.queue_for(4), 2);
        assert_eq!(mq.queue_for(1 << 20), 7, "capped at the top queue");
    }

    #[test]
    fn frequent_blocks_outlive_one_shot_traffic() {
        // Second-level pattern: a small hot set re-referenced with stack
        // distances beyond the cache size, through one-shot traffic. The
        // ghost history must be deep enough to carry the hot blocks'
        // frequencies across their early evictions.
        let mut pattern = Vec::new();
        for round in 0..40u64 {
            for hot in 0..3u64 {
                pattern.push(hot);
            }
            for one_shot in 0..5u64 {
                pattern.push(10_000 + round * 5 + one_shot);
            }
        }
        let t = seq_trace(&pattern);
        let mq = count_misses(&t, 6, Box::new(Mq::with_parameters(8, 64, 100)));
        let lru = count_misses(&t, 6, Box::new(Lru::new()));
        assert!(mq < lru, "mq {mq} vs lru {lru}");
    }

    #[test]
    fn ghost_restores_frequency() {
        let mut mq = Mq::new(2);
        let mut f = Feeder::new();
        // Build up frequency on block 1.
        f.access(&mut mq, blk(0, 1), SimTime::ZERO);
        for _ in 0..7 {
            f.access(&mut mq, blk(0, 1), SimTime::ZERO);
        }
        let q_before = mq.meta[f.slot_of(blk(0, 1)).index()].queue;
        assert!(q_before >= 2);
        // Evict it, then bring it back: it must not restart at queue 0.
        assert_eq!(f.evict(&mut mq), blk(0, 1));
        f.access(&mut mq, blk(0, 1), SimTime::ZERO);
        let q_after = mq.meta[f.slot_of(blk(0, 1)).index()].queue;
        assert!(q_after >= 2, "frequency survived eviction");
    }

    #[test]
    fn expired_heads_demote() {
        let mut mq = Mq::with_parameters(4, 16, 2);
        let mut f = Feeder::new();
        f.access(&mut mq, blk(0, 1), SimTime::ZERO);
        for _ in 0..3 {
            f.access(&mut mq, blk(0, 1), SimTime::ZERO);
        }
        let slot = f.slot_of(blk(0, 1));
        let high = mq.meta[slot.index()].queue;
        assert!(high >= 1);
        // Touch other blocks until block 1's lifetime lapses.
        for i in 0..10u64 {
            f.access(&mut mq, blk(0, 100 + i), SimTime::ZERO);
        }
        assert!(
            mq.meta[slot.index()].queue < high,
            "block should demote after expiring"
        );
    }

    #[test]
    fn ghost_history_is_bounded() {
        let mut mq = Mq::with_parameters(8, 4, 100);
        for i in 0..100u64 {
            mq.remember_ghost(blk(0, i), 1);
        }
        assert!(mq.ghosts.len() <= 4);
        assert_eq!(mq.ghosts.len(), mq.ghost_order.len());
    }

    #[test]
    #[should_panic(expected = "no block")]
    fn evict_on_empty_panics() {
        Mq::new(4).evict();
    }
}
