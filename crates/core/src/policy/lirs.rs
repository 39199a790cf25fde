//! LIRS — Low Inter-reference Recency Set replacement (Jiang & Zhang,
//! SIGMETRICS'02).
//!
//! Another storage-cache policy the paper names as PA-wrappable (§4).
//! LIRS ranks blocks by *inter-reference recency* (IRR — the recency of
//! the previous access) rather than plain recency: blocks with low IRR
//! ("LIR") own almost the whole cache; the rest ("HIR") pass through a
//! small probationary region and are evicted first, so one-shot scans
//! cannot flush the hot set.
//!
//! Implementation: the classic two-structure form — a recency stack `S`
//! holding LIR blocks plus (resident and non-resident) HIR blocks, and a
//! FIFO queue `Q` of resident HIR blocks. The bottom of `S` is always
//! LIR (pruning); a HIR block re-accessed while still in `S` has low IRR
//! and is promoted to LIR, demoting the bottom LIR block. `S` is bounded
//! at a small multiple of the cache size by discarding its oldest
//! non-resident entries.
//!
//! Because `S` must remember *evicted* blocks, LIRS keeps a private
//! [`BlockTable`] over everything it tracks ("directory slots"); `S` and
//! `Q` are intrusive [`IndexList`]s over those, and two flat vectors map
//! directory slots to and from the hosting cache's slots.

use pc_units::{BlockId, SimTime};

use crate::policy::{IndexList, OnlinePolicy, ReplacementPolicy};
use crate::table::{BlockTable, Slot};

/// "No cache slot" marker for non-resident directory entries.
const NO_SLOT: u32 = u32::MAX;

/// A block's standing in LIRS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Status {
    /// Low inter-reference recency: owns the main cache region.
    #[default]
    Lir,
    /// High IRR, resident in the probationary region (in `Q`).
    HirResident,
    /// High IRR, evicted but still remembered in `S` (ghost).
    HirGhost,
}

/// The LIRS replacement policy, sized for a specific cache capacity.
///
/// The configured capacity **must** equal the hosting
/// [`BlockCache`](crate::BlockCache)'s capacity.
///
/// # Examples
///
/// ```
/// use pc_cache::policy::Lirs;
/// use pc_cache::{BlockCache, WritePolicy};
///
/// let cache = BlockCache::new(256, Box::new(Lirs::new(256)), WritePolicy::WriteBack);
/// assert_eq!(cache.policy_name(), "lirs");
/// ```
#[derive(Debug)]
pub struct Lirs {
    /// Target LIR-set size (cache minus the HIR resident region).
    lir_capacity: usize,
    /// Bound on `S` (ghost memory), in entries.
    stack_bound: usize,
    /// Directory of every tracked block, resident or ghost.
    dir: BlockTable,
    /// Status per directory slot.
    status: Vec<Status>,
    /// Cache slot per directory slot (`NO_SLOT` for ghosts).
    cache_slot: Vec<u32>,
    /// Directory slot per cache slot.
    of_cache: Vec<u32>,
    /// The recency stack (directory slots, front = most recent).
    s: IndexList,
    /// Resident HIR blocks, FIFO (directory slots, front = newest).
    q: IndexList,
    lir_count: usize,
}

impl Lirs {
    /// Creates LIRS for a cache of `capacity` blocks, with the paper's
    /// ~1% HIR resident region (at least one block) and a ghost stack
    /// bounded at 3× the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LIRS needs a positive capacity");
        let hir_region = (capacity / 100).max(1);
        Lirs {
            lir_capacity: capacity.saturating_sub(hir_region),
            stack_bound: capacity.saturating_mul(3).max(8),
            dir: BlockTable::new(),
            status: Vec::new(),
            cache_slot: Vec::new(),
            of_cache: Vec::new(),
            s: IndexList::new(),
            q: IndexList::new(),
            lir_count: 0,
        }
    }

    /// Sizes of (LIR set, resident HIR queue, stack `S`) — diagnostic.
    #[cfg(test)]
    #[must_use]
    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.lir_count, self.q.len(), self.s.len())
    }

    /// Grows the per-directory-slot vectors to cover `ds`.
    fn ensure(&mut self, ds: Slot) {
        if ds.index() >= self.status.len() {
            self.status.resize(ds.index() + 1, Status::default());
            self.cache_slot.resize(ds.index() + 1, NO_SLOT);
        }
    }

    /// The directory slot of the resident block at cache slot `slot`.
    fn dir_of(&self, slot: Slot) -> Slot {
        Slot::new(self.of_cache[slot.index()])
    }

    /// Stack pruning: pop non-LIR entries off the bottom of `S` so its
    /// bottom is always LIR. Popped ghosts are forgotten; popped resident
    /// HIR blocks stay in `Q` (they just lose their `S` recency).
    fn prune(&mut self) {
        while let Some(bottom) = self.s.back() {
            match self.status[bottom.index()] {
                Status::Lir => break,
                Status::HirResident => {
                    self.s.remove(bottom);
                }
                Status::HirGhost => {
                    self.s.remove(bottom);
                    self.dir.release(bottom);
                }
            }
        }
    }

    /// Demotes the bottom LIR block of `S` into the HIR resident queue.
    fn demote_bottom_lir(&mut self) {
        if let Some(bottom) = self.s.back() {
            if self.status[bottom.index()] == Status::Lir {
                self.s.remove(bottom);
                self.status[bottom.index()] = Status::HirResident;
                self.lir_count -= 1;
                self.q.push_front(bottom);
                self.prune();
            }
        }
    }

    /// Bounds the ghost memory: drop the oldest non-resident entries of
    /// `S` once it exceeds `stack_bound`.
    fn bound_stack(&mut self) {
        while self.s.len() > self.stack_bound {
            let Some(ghost) = self
                .s
                .iter_from_back()
                .find(|ds| self.status[ds.index()] == Status::HirGhost)
            else {
                break;
            };
            self.s.remove(ghost);
            self.dir.release(ghost);
        }
    }

    /// Moves `ds` to the top of `S` (entering it if absent) and prunes.
    fn refresh(&mut self, ds: Slot) {
        if self.s.contains(ds) {
            self.s.move_to_front(ds);
        } else {
            self.s.push_front(ds);
        }
        self.prune();
    }
}

impl ReplacementPolicy for Lirs {
    fn name(&self) -> String {
        OnlinePolicy::Lirs.name().to_owned()
    }

    fn on_access(&mut self, slot: Option<Slot>, _block: BlockId, _time: SimTime) {
        let Some(slot) = slot else {
            return; // misses are handled at on_insert
        };
        let ds = self.dir_of(slot);
        match self.status[ds.index()] {
            Status::Lir => self.refresh(ds),
            Status::HirResident => {
                if self.s.contains(ds) {
                    // Low IRR: promote to LIR, demote a LIR block.
                    self.status[ds.index()] = Status::Lir;
                    self.lir_count += 1;
                    self.q.remove(ds);
                    self.refresh(ds);
                    if self.lir_count > self.lir_capacity {
                        self.demote_bottom_lir();
                    }
                } else {
                    // Still high IRR: refresh both recencies.
                    self.refresh(ds);
                    self.q.move_to_front(ds);
                }
            }
            Status::HirGhost => unreachable!("hit on a non-resident block"),
        }
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, _time: SimTime) {
        // A directory entry can only pre-exist as a ghost: resident
        // statuses imply the block could not have missed.
        let (ds, was_ghost) = match self.dir.lookup(block) {
            Some(ds) => (ds, true),
            None => {
                let ds = self.dir.intern(block);
                self.ensure(ds);
                (ds, false)
            }
        };
        self.cache_slot[ds.index()] = slot.index() as u32;
        if slot.index() >= self.of_cache.len() {
            self.of_cache.resize(slot.index() + 1, NO_SLOT);
        }
        self.of_cache[slot.index()] = ds.index() as u32;

        if self.lir_count < self.lir_capacity && !self.s.contains(ds) {
            // Warm-up: the LIR set has room; new blocks join it directly.
            self.status[ds.index()] = Status::Lir;
            self.lir_count += 1;
            self.refresh(ds);
            return;
        }
        if was_ghost {
            // Re-reference within the ghost window: low IRR — straight to
            // LIR, demoting the coldest LIR block.
            self.status[ds.index()] = Status::Lir;
            self.lir_count += 1;
            self.refresh(ds);
            if self.lir_count > self.lir_capacity {
                self.demote_bottom_lir();
            }
        } else {
            // Fresh (or long-forgotten) block: probationary HIR.
            self.status[ds.index()] = Status::HirResident;
            self.refresh(ds);
            self.q.push_front(ds);
        }
        self.bound_stack();
    }

    fn evict(&mut self) -> Slot {
        // Resident HIR blocks go first; if none exist (warm-up with a
        // tiny cache), sacrifice the coldest LIR block.
        if let Some(ds) = self.q.pop_back() {
            let slot = Slot::new(self.cache_slot[ds.index()]);
            if self.s.contains(ds) {
                self.status[ds.index()] = Status::HirGhost;
                self.cache_slot[ds.index()] = NO_SLOT;
            } else {
                self.dir.release(ds);
            }
            return slot;
        }
        let ds = self.s.back().expect("no block to evict");
        let slot = Slot::new(self.cache_slot[ds.index()]);
        self.s.remove(ds);
        self.dir.release(ds);
        self.lir_count -= 1;
        self.prune();
        slot
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
        let misses = count_misses(&t, 3, Box::new(Lirs::new(3)));
        assert!((5..=10).contains(&misses), "misses {misses}");
    }

    #[test]
    fn loop_pattern_beats_lru() {
        // LIRS' signature win: a loop slightly larger than the cache.
        // LRU misses every access; LIRS pins most of the loop as LIR.
        let mut pattern = Vec::new();
        for _ in 0..25 {
            for b in 0..12u64 {
                pattern.push(b);
            }
        }
        let t = seq_trace(&pattern);
        let lirs = count_misses(&t, 10, Box::new(Lirs::new(10)));
        let lru = count_misses(&t, 10, Box::new(Lru::new()));
        assert_eq!(lru, 300, "LRU thrashes the whole loop");
        assert!(lirs < lru / 2, "lirs {lirs} vs lru {lru}");
    }

    #[test]
    fn scan_does_not_flush_the_hot_set() {
        // Hot pair accessed between one-shot scan blocks.
        let mut pattern = Vec::new();
        for i in 0..60u64 {
            pattern.push(1);
            pattern.push(2);
            pattern.push(1_000 + i);
        }
        let t = seq_trace(&pattern);
        let lirs = count_misses(&t, 4, Box::new(Lirs::new(4)));
        // 2 cold + 60 scan blocks: the hot pair never misses again.
        assert_eq!(lirs, 62, "hot set must stay resident");
    }

    #[test]
    fn stack_stays_bounded() {
        let mut pattern = Vec::new();
        for i in 0..5_000u64 {
            pattern.push(i); // endless cold scan
        }
        let t = seq_trace(&pattern);
        let mut cache =
            crate::BlockCache::new(8, Box::new(Lirs::new(8)), crate::WritePolicy::WriteBack);
        for r in &t {
            cache.access_alloc(r, |_| false);
        }
        assert!(cache.len() <= 8);
    }

    #[test]
    fn directory_stays_within_the_stack_bound_plus_the_cache() {
        // Ghosts live only in `S` (capped at `stack_bound`) and resident
        // HIR blocks outside `S` number at most the cache size, so the
        // directory's growth is warm-up towards that cap: half the
        // accesses hit a hot set, the rest churn a working set 8× the
        // cache.
        const CAPACITY: usize = 256;
        const WORKING_SET: u64 = 8 * CAPACITY as u64;
        let mut lirs = Lirs::new(CAPACITY);
        let mut f = Feeder::new();
        let cap = lirs.stack_bound + CAPACITY;
        let mut high_water = Vec::new();
        for pass in 0..24u64 {
            let mut high = 0;
            for i in 0..4 * WORKING_SET {
                let span = if i % 2 == 0 { 64 } else { WORKING_SET };
                let j = (i * 2_654_435_761 + pass * 7_919) % span;
                f.access_bounded(&mut lirs, CAPACITY, blk(0, j), SimTime::ZERO);
                assert!(
                    lirs.dir.len() <= cap,
                    "pass {pass}: {} > {cap}",
                    lirs.dir.len()
                );
                high = high.max(lirs.dir.len());
            }
            high_water.push(high);
        }
        let (warm_up, settled) = high_water.split_at(high_water.len() / 2);
        let peak = warm_up.iter().max().copied().unwrap_or(0);
        assert!(
            settled.iter().all(|&h| h <= peak),
            "high-water marks keep rising: {high_water:?}"
        );
    }

    #[test]
    fn eviction_targets_resident_hir_first() {
        let mut lirs = Lirs::new(4); // lir_capacity 3, hir region 1
        let mut f = Feeder::new();
        for n in 1..=4u64 {
            f.access(&mut lirs, blk(0, n), SimTime::ZERO);
        }
        // Blocks 1..3 fill the LIR set; block 4 is probationary HIR.
        let (lir, hir, _) = lirs.sizes();
        assert_eq!((lir, hir), (3, 1));
        assert_eq!(f.evict(&mut lirs), blk(0, 4), "HIR evicted before any LIR");
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn rejects_zero_capacity() {
        let _ = Lirs::new(0);
    }
}
