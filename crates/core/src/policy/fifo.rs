//! First-in-first-out replacement (a simple non-recency baseline).

use pc_units::{BlockId, SimTime};

use crate::policy::{IndexList, OnlinePolicy, ReplacementPolicy};
use crate::table::Slot;

/// FIFO: evicts the block resident the longest, regardless of use.
///
/// # Examples
///
/// ```
/// use pc_cache::policy::{Fifo, ReplacementPolicy};
/// use pc_cache::Slot;
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let blk = |n| BlockId::new(DiskId::new(0), BlockNo::new(n));
/// let mut fifo = Fifo::new();
/// fifo.on_insert(Slot::new(0), blk(1), SimTime::ZERO);
/// fifo.on_insert(Slot::new(1), blk(2), SimTime::ZERO);
/// fifo.on_access(Some(Slot::new(0)), blk(1), SimTime::from_secs(1)); // hits don't reorder
/// assert_eq!(fifo.evict(), Slot::new(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fifo {
    queue: IndexList,
}

impl Fifo {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> String {
        OnlinePolicy::Fifo.name().to_owned()
    }

    fn on_access(&mut self, _slot: Option<Slot>, _block: BlockId, _time: SimTime) {}

    fn on_insert(&mut self, slot: Slot, _block: BlockId, _time: SimTime) {
        self.queue.push_back(slot);
    }

    fn evict(&mut self) -> Slot {
        self.queue.pop_front().expect("no block to evict")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{blk, count_misses, seq_trace, Feeder};

    #[test]
    fn insertion_order_drives_eviction() {
        let mut f = Fifo::new();
        let mut feeder = Feeder::new();
        for n in 1..=3u64 {
            feeder.access(&mut f, blk(0, n), SimTime::ZERO);
        }
        assert_eq!(feeder.evict(&mut f).block().number(), 1);
        assert_eq!(feeder.evict(&mut f).block().number(), 2);
    }

    #[test]
    fn fifo_and_lru_agree_on_scan() {
        let t = seq_trace(&[1, 2, 3, 4, 1, 2, 3, 4]);
        assert_eq!(count_misses(&t, 3, Box::new(Fifo::new())), 8);
    }

    #[test]
    #[should_panic(expected = "no block")]
    fn evict_on_empty_panics() {
        Fifo::new().evict();
    }
}
