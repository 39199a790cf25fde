//! Slot interning: dense integer handles for resident blocks.
//!
//! Every hot-path structure in the cache core — per-block flags, the
//! replacement policies' recency lists — wants O(1) array indexing, but
//! the cache is addressed by sparse [`BlockId`]s. The [`BlockTable`]
//! bridges the two: it interns a `BlockId` to a dense [`Slot`] on
//! admission and recycles the slot through a free list on eviction, so a
//! cache of capacity `c` never hands out a slot ≥ `c` and every
//! slot-indexed `Vec` stays exactly as large as the resident set.
//!
//! The table's FxHash map is the only hash map of the per-access hot
//! path; every other structure indexes by slot. A hit costs one probe
//! (`lookup`). A miss costs that probe, one to remove the victim
//! (`release`) and one to find and fill the new block's bucket
//! (`intern`, through the map's entry API). The same type doubles as the
//! ghost directory inside policies that remember evicted blocks (2Q, MQ,
//! ARC, LIRS): a ghost table interns evicted block ids into its own slot
//! space, with the same free-list reuse.

use std::collections::hash_map::Entry;

use rustc_hash::FxHashMap;

use pc_units::BlockId;

/// A dense index for an interned block, valid until released.
///
/// Slots are plain `u32` newtypes: small enough to pack into intrusive
/// list links, cheap to copy, and meaningless outside the
/// [`BlockTable`] (or policy) that issued them.
///
/// # Examples
///
/// ```
/// use pc_cache::Slot;
///
/// let s = Slot::new(3);
/// assert_eq!(s.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(u32);

impl Slot {
    /// Creates a slot from its raw index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Slot(index)
    }

    /// The raw index, for direct slice indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// Interns [`BlockId`]s to dense [`Slot`]s with free-list reuse.
///
/// # Examples
///
/// ```
/// use pc_cache::BlockTable;
/// use pc_units::{BlockId, BlockNo, DiskId};
///
/// let blk = |n| BlockId::new(DiskId::new(0), BlockNo::new(n));
/// let mut table = BlockTable::new();
/// let a = table.intern(blk(10));
/// let b = table.intern(blk(20));
/// assert_ne!(a, b);
/// assert_eq!(table.lookup(blk(10)), Some(a));
/// assert_eq!(table.block_of(a), blk(10));
/// table.release(a);
/// // The freed slot is recycled for the next admission.
/// assert_eq!(table.intern(blk(30)), a);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    /// The one hash map of the hot path.
    slot_of: FxHashMap<BlockId, u32>,
    /// Reverse map: slot → interned block (valid while the slot is live).
    blocks: Vec<BlockId>,
    /// Released slots awaiting reuse, LIFO.
    free: Vec<u32>,
}

impl BlockTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        BlockTable::default()
    }

    /// The slot `block` is interned at, if it currently is.
    #[must_use]
    #[inline]
    pub fn lookup(&self, block: BlockId) -> Option<Slot> {
        self.slot_of.get(&block).map(|&i| Slot(i))
    }

    /// Interns `block`, reusing a released slot when one exists. Returns
    /// the existing slot if the block is already interned.
    #[inline]
    pub fn intern(&mut self, block: BlockId) -> Slot {
        let vacant = match self.slot_of.entry(block) {
            Entry::Occupied(e) => return Slot(*e.get()),
            Entry::Vacant(e) => e,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.blocks[i as usize] = block;
                i
            }
            None => {
                let i = u32::try_from(self.blocks.len()).expect("slot space exhausted");
                self.blocks.push(block);
                i
            }
        };
        vacant.insert(i);
        Slot(i)
    }

    /// Releases a live slot back to the free list.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live (double release or a foreign slot).
    #[inline]
    pub fn release(&mut self, slot: Slot) {
        let block = self.blocks[slot.index()];
        let removed = self.slot_of.remove(&block);
        assert_eq!(removed, Some(slot.0), "released a slot that is not live");
        self.free.push(slot.0);
    }

    /// The block interned at a live `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never issued.
    #[must_use]
    #[inline]
    pub fn block_of(&self, slot: Slot) -> BlockId {
        self.blocks[slot.index()]
    }

    /// Number of live (interned) blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Returns `true` if no block is interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Upper bound (exclusive) on the raw index of any slot ever issued.
    /// Slot-indexed side tables are safe at this length.
    #[must_use]
    pub fn slot_bound(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_units::{BlockNo, DiskId};

    fn blk(disk: u32, no: u64) -> BlockId {
        BlockId::new(DiskId::new(disk), BlockNo::new(no))
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = BlockTable::new();
        let a = t.intern(blk(0, 1));
        assert_eq!(t.intern(blk(0, 1)), a);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn slots_are_dense_from_zero() {
        let mut t = BlockTable::new();
        for n in 0..10u64 {
            assert_eq!(t.intern(blk(0, n)).index(), n as usize);
        }
        assert_eq!(t.slot_bound(), 10);
    }

    #[test]
    fn free_list_bounds_slot_space_under_churn() {
        // A capacity-4 cache pattern: intern 4, then alternate
        // release/intern for thousands of rounds. The slot space must
        // never exceed the high-water residency.
        let mut t = BlockTable::new();
        let mut live: Vec<Slot> = (0..4).map(|n| t.intern(blk(0, n))).collect();
        for round in 0..10_000u64 {
            let victim = live.remove((round % 4) as usize);
            t.release(victim);
            let incoming = t.intern(blk(0, 100 + round));
            assert!(
                incoming.index() < 4,
                "slot {incoming} escaped the free list"
            );
            live.push(incoming);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.slot_bound(), 4, "no slot beyond the high-water mark");
    }

    #[test]
    fn release_forgets_the_block() {
        let mut t = BlockTable::new();
        let a = t.intern(blk(1, 7));
        t.release(a);
        assert_eq!(t.lookup(blk(1, 7)), None);
        assert!(t.is_empty());
        // The slot is recycled for a different block.
        let b = t.intern(blk(2, 9));
        assert_eq!(b, a);
        assert_eq!(t.block_of(b), blk(2, 9));
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_release_panics() {
        let mut t = BlockTable::new();
        let a = t.intern(blk(0, 1));
        t.release(a);
        t.release(a);
    }
}
