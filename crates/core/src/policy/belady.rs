//! Belady's off-line MIN algorithm.

use std::collections::BTreeSet;

use pc_trace::Trace;
use pc_units::{BlockId, SimTime};
use rustc_hash::FxHashMap;

use crate::offline::OfflineIndex;
use crate::policy::ReplacementPolicy;
use crate::table::Slot;

/// Belady's MIN: evicts the resident block whose next reference lies
/// furthest in the future. Minimizes the miss count — but, as the paper's
/// §3.1 shows, *not* disk energy.
///
/// Constructed from the trace it will replay; see the
/// [protocol](crate::policy).
///
/// # Examples
///
/// ```
/// use pc_cache::policy::Belady;
/// use pc_cache::{BlockCache, WritePolicy};
/// use pc_trace::{IoOp, Record, Trace};
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let blk = |n| BlockId::new(DiskId::new(0), BlockNo::new(n));
/// let mut t = Trace::new(1);
/// for (i, b) in [1u64, 2, 3, 1, 2].into_iter().enumerate() {
///     t.push(Record::new(SimTime::from_secs(i as u64), blk(b), IoOp::Read));
/// }
/// let mut cache = BlockCache::new(2, Box::new(Belady::new(&t)), WritePolicy::WriteBack);
/// let misses: u64 = t.iter().map(|r| u64::from(!cache.access_alloc(r, |_| false).hit)).sum();
/// // 3 cold misses; inserting 3 sacrifices the block reused furthest
/// // away (2), so 1 hits and 2 misses once more.
/// assert_eq!(misses, 4);
/// ```
#[derive(Debug, Clone)]
pub struct Belady {
    index: OfflineIndex,
    /// Position of the next `on_access` call within the trace.
    cursor: usize,
    /// Resident blocks ordered by next reference (`NO_NEXT` = ∞ last);
    /// ties broken by block id for determinism.
    by_next: BTreeSet<(u32, BlockId)>,
    next_of: FxHashMap<BlockId, (u32, Slot)>,
}

impl Belady {
    /// Builds MIN's future-knowledge tables for `trace`.
    #[must_use]
    pub fn new(trace: &Trace) -> Self {
        Belady {
            index: OfflineIndex::build(trace),
            cursor: 0,
            by_next: BTreeSet::new(),
            next_of: FxHashMap::default(),
        }
    }

    fn reposition(&mut self, slot: Slot, block: BlockId, next: u32) {
        if let Some((old, _)) = self.next_of.insert(block, (next, slot)) {
            self.by_next.remove(&(old, block));
        }
        self.by_next.insert((next, block));
    }
}

impl ReplacementPolicy for Belady {
    fn name(&self) -> String {
        "belady".to_owned()
    }

    fn on_access(&mut self, slot: Option<Slot>, block: BlockId, _time: SimTime) {
        assert!(
            self.cursor < self.index.len(),
            "access beyond the indexed trace"
        );
        let next = self.index.next_raw(self.cursor);
        self.cursor += 1;
        if let Some(slot) = slot {
            self.reposition(slot, block, next);
        }
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, _time: SimTime) {
        // The insert follows the on_access that advanced the cursor past
        // the current access; its next-occurrence is that access's link.
        let next = self.index.next_raw(self.cursor - 1);
        self.reposition(slot, block, next);
    }

    fn evict(&mut self) -> Slot {
        let &(next, block) = self.by_next.iter().next_back().expect("no block to evict");
        self.by_next.remove(&(next, block));
        let (_, slot) = self
            .next_of
            .remove(&block)
            .expect("victim has a next-reference entry");
        slot
    }

    fn on_prefetch_insert(&mut self, _slot: Slot, _block: BlockId, _time: SimTime) {
        panic!("Belady is an off-line policy and does not support prefetching");
    }
}

/// Convenience: MIN's miss count for a trace and cache size, the paper's
/// lower bound on misses.
#[cfg(test)]
#[must_use]
pub fn min_misses(trace: &Trace, capacity: usize) -> u64 {
    use crate::{BlockCache, WritePolicy};
    let mut cache = BlockCache::new(
        capacity,
        Box::new(Belady::new(trace)),
        WritePolicy::WriteBack,
    );
    let mut effects = Vec::new();
    trace
        .iter()
        .map(|r| u64::from(!cache.access(r, |_| false, &mut effects).hit))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{count_misses, seq_trace, Feeder};
    use crate::policy::{Fifo, Lru};

    #[test]
    fn beats_lru_on_cyclic_scan() {
        let t = seq_trace(&[1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]);
        let belady = count_misses(&t, 3, Box::new(Belady::new(&t)));
        let lru = count_misses(&t, 3, Box::new(Lru::new()));
        assert!(belady < lru, "belady {belady} vs lru {lru}");
        // MIN on a cyclic scan of 4 blocks with 3 frames: 4 cold + 1 miss
        // per subsequent lap is optimal-ish; exact value checked.
        assert_eq!(belady, 6);
    }

    #[test]
    fn never_worse_than_lru_or_fifo_on_random_streams() {
        // Deterministic pseudo-random block streams.
        let mut state = 0xDEADBEEFu64;
        for round in 0..10 {
            let blocks: Vec<u64> = (0..200)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % (10 + round)
                })
                .collect();
            let t = seq_trace(&blocks);
            let belady = count_misses(&t, 4, Box::new(Belady::new(&t)));
            let lru = count_misses(&t, 4, Box::new(Lru::new()));
            let fifo = count_misses(&t, 4, Box::new(Fifo::new()));
            assert!(belady <= lru, "round {round}: belady {belady} lru {lru}");
            assert!(belady <= fifo, "round {round}: belady {belady} fifo {fifo}");
        }
    }

    #[test]
    fn min_misses_helper_agrees() {
        let t = seq_trace(&[1, 2, 3, 1, 2, 3]);
        assert_eq!(
            min_misses(&t, 2),
            count_misses(&t, 2, Box::new(Belady::new(&t)))
        );
    }

    #[test]
    #[should_panic(expected = "beyond the indexed trace")]
    fn rejects_extra_accesses() {
        let t = seq_trace(&[1]);
        let b1 = crate::policy::testutil::blk(0, 1);
        let mut b = Belady::new(&t);
        let mut f = Feeder::new();
        f.access(&mut b, b1, SimTime::ZERO);
        b.on_access(Some(f.slot_of(b1)), b1, SimTime::ZERO);
    }
}
