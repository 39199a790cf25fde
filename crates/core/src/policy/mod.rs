//! Cache replacement policies.
//!
//! All policies — on-line and off-line — implement [`ReplacementPolicy`].
//! The cache drives a policy with a strict protocol, addressing resident
//! blocks by the dense [`Slot`]s its [`BlockTable`](crate::BlockTable)
//! interned them at:
//!
//! 1. [`on_access`](ReplacementPolicy::on_access) for **every** access, in
//!    trace order; `slot` is `Some` exactly on a hit. Off-line policies
//!    count these calls to track their position in the precomputed trace.
//! 2. On a miss with a full cache, [`evict`](ReplacementPolicy::evict)
//!    once; the policy returns (and forgets) the slot of a
//!    currently-resident victim. The cache resolves it to a block,
//!    releases it, and hands the recycled slot to the next insertion.
//! 3. On every miss, [`on_insert`](ReplacementPolicy::on_insert) with the
//!    slot the newly-resident block was interned at.
//!
//! Policies therefore never re-hash a `BlockId` on the hot path: recency
//! bookkeeping is slot-indexed (see [`IndexList`]), and the `block` is
//! passed alongside only for the structures that genuinely need the
//! address (ghost directories, per-disk classification, off-line future
//! knowledge).

mod arc;
mod belady;
mod classifier;
mod fifo;
mod lirs;
mod list;
mod lru;
mod meta;
mod mq;
mod online;
mod opg;
mod pa;
mod pa_lru;
mod two_q;

pub use arc::ArcPolicy;
pub use belady::Belady;
pub use classifier::DiskClassifier;
pub use fifo::Fifo;
pub use lirs::Lirs;
pub use list::{IndexList, PairedList};
pub use lru::Lru;
pub use meta::{MetaConfig, MetaPolicy};
pub use mq::Mq;
pub use online::OnlinePolicy;
pub use opg::{Opg, OpgDpm};
pub use pa::Pa;
pub use pa_lru::{PaLru, PaLruConfig};
pub use two_q::TwoQ;

use pc_units::{BlockId, SimTime};

use crate::table::Slot;

/// A pluggable cache replacement policy. See the [module
/// documentation](self) for the driving protocol.
///
/// Policies are `Send` so a [`BlockCache`](crate::BlockCache) can be
/// owned by a shard thread of an online serving layer; every policy here
/// is plain owned data, so the bound costs nothing.
pub trait ReplacementPolicy: Send {
    /// A short human-readable name, e.g. `"lru"` or `"opg(eps=0)"`.
    fn name(&self) -> String;

    /// Observes one cache access, in trace order. `slot` is the block's
    /// cache slot on a hit and `None` on a miss (the block has no slot
    /// yet — [`on_insert`](Self::on_insert) will deliver it).
    fn on_access(&mut self, slot: Option<Slot>, block: BlockId, time: SimTime);

    /// Chooses a victim among resident slots and removes it from the
    /// policy's bookkeeping. Called only when an insertion needs space.
    ///
    /// # Panics
    ///
    /// Implementations panic if no block is resident.
    fn evict(&mut self) -> Slot;

    /// Registers the block just installed by the most recent miss at
    /// `slot`.
    fn on_insert(&mut self, slot: Slot, block: BlockId, time: SimTime);

    /// Registers a block installed by *prefetching* rather than by a
    /// client access. Defaults to [`on_insert`](Self::on_insert), which is
    /// correct for on-line policies; off-line policies override this to
    /// reject prefetching (their future-knowledge cursor is indexed by
    /// client accesses only).
    ///
    /// # Panics
    ///
    /// Off-line implementations ([`Belady`], [`Opg`]) panic.
    fn on_prefetch_insert(&mut self, slot: Slot, block: BlockId, time: SimTime) {
        self.on_insert(slot, block, time);
    }

    /// Selection gauges, for policies that adaptively choose among
    /// sub-policies ([`MetaPolicy`]). Fixed policies return `None` —
    /// the default — so hosts can surface meta gauges through a
    /// `Box<dyn ReplacementPolicy>` without downcasting.
    fn meta_stats(&self) -> Option<MetaStats> {
        None
    }
}

/// A snapshot of an adaptive policy's selection state — see
/// [`ReplacementPolicy::meta_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaStats {
    /// Canonical name of the live sub-policy (e.g. `"pa-lru"`).
    pub active: String,
    /// Champion switches since construction.
    pub switches: u64,
    /// Completed selection epochs.
    pub epochs: u64,
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for policy tests.

    use pc_trace::{IoOp, Record, Trace};
    use pc_units::{BlockId, BlockNo, DiskId, SimTime};

    use crate::table::{BlockTable, Slot};
    use crate::{BlockCache, ReplacementPolicy, WritePolicy};

    /// Builds a block id.
    pub fn blk(disk: u32, no: u64) -> BlockId {
        BlockId::new(DiskId::new(disk), BlockNo::new(no))
    }

    /// Builds a read-only trace on one disk from block numbers, one access
    /// per second.
    pub fn seq_trace(blocks: &[u64]) -> Trace {
        let mut t = Trace::new(1);
        for (i, &b) in blocks.iter().enumerate() {
            t.push(Record::new(
                SimTime::from_secs(i as u64),
                blk(0, b),
                IoOp::Read,
            ));
        }
        t
    }

    /// Runs a trace through a cache with the given policy, returning the
    /// number of misses.
    pub fn count_misses(trace: &Trace, capacity: usize, policy: Box<dyn ReplacementPolicy>) -> u64 {
        let mut cache = BlockCache::new(capacity, policy, WritePolicy::WriteBack);
        let mut effects = Vec::new();
        let mut misses = 0;
        for r in trace {
            if !cache.access(r, |_| false, &mut effects).hit {
                misses += 1;
            }
        }
        misses
    }

    /// Drives a bare policy through the slot protocol the way the cache
    /// would, managing the [`BlockTable`] so tests can speak in block
    /// ids.
    #[derive(Debug, Default)]
    pub struct Feeder {
        table: BlockTable,
    }

    impl Feeder {
        pub fn new() -> Self {
            Feeder::default()
        }

        /// The slot a resident block occupies.
        pub fn slot_of(&self, block: BlockId) -> Slot {
            self.table.lookup(block).expect("block is resident")
        }

        /// Whether the feeder considers `block` resident.
        pub fn contains(&self, block: BlockId) -> bool {
            self.table.lookup(block).is_some()
        }

        /// One access against a notionally unbounded cache: on_access,
        /// plus intern + on_insert on a miss. Returns whether it hit.
        pub fn access(
            &mut self,
            p: &mut dyn ReplacementPolicy,
            block: BlockId,
            t: SimTime,
        ) -> bool {
            let slot = self.table.lookup(block);
            let hit = slot.is_some();
            p.on_access(slot, block, t);
            if !hit {
                let slot = self.table.intern(block);
                p.on_insert(slot, block, t);
            }
            hit
        }

        /// One access against a cache bounded at `capacity`, evicting
        /// first when full (the cache's exact driving order). Returns
        /// `(hit, evicted)`.
        pub fn access_bounded(
            &mut self,
            p: &mut dyn ReplacementPolicy,
            capacity: usize,
            block: BlockId,
            t: SimTime,
        ) -> (bool, Option<BlockId>) {
            let slot = self.table.lookup(block);
            let hit = slot.is_some();
            p.on_access(slot, block, t);
            let mut evicted = None;
            if !hit {
                if self.table.len() >= capacity {
                    evicted = Some(self.evict(p));
                }
                let slot = self.table.intern(block);
                p.on_insert(slot, block, t);
            }
            (hit, evicted)
        }

        /// Forgets a resident block *without* consulting the policy.
        /// Tests that force future misses must first unlink the slot from
        /// the policy's own structures, or the recycled slot will collide.
        pub fn release(&mut self, block: BlockId) -> bool {
            match self.table.lookup(block) {
                Some(slot) => {
                    self.table.release(slot);
                    true
                }
                None => false,
            }
        }

        /// Asks the policy for a victim and releases its slot, returning
        /// the evicted block.
        pub fn evict(&mut self, p: &mut dyn ReplacementPolicy) -> BlockId {
            let slot = p.evict();
            let block = self.table.block_of(slot);
            self.table.release(slot);
            block
        }
    }
}
