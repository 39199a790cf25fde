//! The storage block cache.

use pc_trace::{IoOp, Record};
use pc_units::{BlockId, BlockNo, DiskId};

use crate::policy::ReplacementPolicy;
use crate::table::{BlockTable, Slot};
use crate::wtdu::LogSpace;
use crate::{AccessOutcome, AccessResult, Effect, WritePolicy};

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Evictions that had to write back a dirty block.
    pub dirty_evictions: u64,
    /// Disk reads requested (read misses).
    pub disk_reads: u64,
    /// Disk writes requested (write-through, write-backs, flushes).
    pub disk_writes: u64,
    /// Log-device writes requested (WTDU).
    pub log_writes: u64,
    /// Disk reads issued speculatively by sequential prefetching
    /// (included in `disk_reads`).
    pub prefetch_reads: u64,
}

impl CacheStats {
    /// Misses (`accesses − hits`).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit ratio in `[0, 1]`; zero for an untouched cache.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Folds another counter snapshot into this one (saturating), for
    /// aggregating independent shards of a partitioned cache. Snapshots
    /// are plain `Copy` values, so a shard thread can hand one across a
    /// channel and the aggregator merges them without locks.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses = self.accesses.saturating_add(other.accesses);
        self.hits = self.hits.saturating_add(other.hits);
        self.reads = self.reads.saturating_add(other.reads);
        self.writes = self.writes.saturating_add(other.writes);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.dirty_evictions = self.dirty_evictions.saturating_add(other.dirty_evictions);
        self.disk_reads = self.disk_reads.saturating_add(other.disk_reads);
        self.disk_writes = self.disk_writes.saturating_add(other.disk_writes);
        self.log_writes = self.log_writes.saturating_add(other.log_writes);
        self.prefetch_reads = self.prefetch_reads.saturating_add(other.prefetch_reads);
    }
}

/// The per-slot state of a block that is in no pending set.
const ABSENT: u32 = u32::MAX;

/// One disk's pending blocks as unordered `(block number, slot)` pairs.
/// Each member's slot records its index here, so removal is a
/// `swap_remove` plus one back-patch; a flush sorts by block number, so
/// flushes stay deterministic (and roughly sequential on the platter).
type DiskSet = Vec<(u64, u32)>;

/// A storage (second-level) block cache with pluggable replacement and
/// write policies.
///
/// Residency is tracked by a [`BlockTable`] that interns each admitted
/// block at a dense [`Slot`]; per-block flags live in a flat slot-indexed
/// vector and the replacement policy is driven entirely in slot space, so
/// a hit costs exactly one hash lookup.
///
/// The cache performs **write allocation** under every write policy, so
/// the resident set — and therefore the read-miss stream — depends only on
/// the replacement policy; the write policy changes *when and where* dirty
/// data reaches persistent storage, which is exactly the comparison of the
/// paper's §6.
///
/// # Examples
///
/// ```
/// use pc_cache::policy::Lru;
/// use pc_cache::{BlockCache, Effect, WritePolicy};
/// use pc_trace::{IoOp, Record};
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let mut cache = BlockCache::new(8, Box::new(Lru::new()), WritePolicy::WriteThrough);
/// let block = BlockId::new(DiskId::new(0), BlockNo::new(3));
/// let mut effects = Vec::new();
/// cache.access(&Record::new(SimTime::ZERO, block, IoOp::Write), |_| false, &mut effects);
/// // Write-through: the write reaches the disk immediately.
/// assert!(effects.contains(&Effect::WriteDisk(block)));
/// ```
pub struct BlockCache {
    capacity: usize,
    policy: Box<dyn ReplacementPolicy>,
    write_policy: WritePolicy,
    /// Block ↔ slot interning for the resident set.
    table: BlockTable,
    /// Per cache slot: the block's index in its disk's pending set, or
    /// [`ABSENT`].
    state: Vec<u32>,
    /// Blocks whose newest value has not reached their disk, indexed by
    /// disk: dirty blocks under WB/WBEU, logged ones under WTDU. A cache
    /// runs one write policy, so a block is never both.
    pending: Vec<DiskSet>,
    log: LogSpace,
    stats: CacheStats,
    /// Monotone counter used as the "value" written to the WTDU log so
    /// recovery tests can distinguish write generations.
    write_seq: u64,
    /// Sequential read-ahead depth (0 = disabled).
    prefetch_depth: u64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity)
            .field("policy", &self.policy.name())
            .field("write_policy", &self.write_policy.name())
            .field("resident", &self.table.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BlockCache {
    /// Creates a cache holding up to `capacity` blocks.
    ///
    /// Use `usize::MAX` for the paper's infinite-cache baseline.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(
        capacity: usize,
        policy: Box<dyn ReplacementPolicy>,
        write_policy: WritePolicy,
    ) -> Self {
        assert!(capacity > 0, "cache needs at least one block");
        BlockCache {
            capacity,
            policy,
            write_policy,
            table: BlockTable::new(),
            state: Vec::new(),
            pending: Vec::new(),
            log: LogSpace::new(64), // grown on demand by `LogSpace::append`
            stats: CacheStats::default(),
            write_seq: 0,
            prefetch_depth: 0,
        }
    }

    /// Enables sequential read-ahead: every read miss additionally
    /// fetches up to `depth` following blocks of the same disk while it
    /// is active (the paper's "consider prefetching" future work).
    ///
    /// Prefetching requires an on-line replacement policy — the off-line
    /// policies (Belady, OPG) panic on prefetch insertion, since their
    /// future-knowledge cursor is indexed by client accesses.
    #[must_use]
    pub fn with_prefetch_depth(mut self, depth: u64) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// The replacement policy's name.
    #[must_use]
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// The policy's adaptive-selection gauges, when it has any (the
    /// meta-policy; fixed policies return `None`).
    #[must_use]
    pub fn meta_stats(&self) -> Option<crate::MetaStats> {
        self.policy.meta_stats()
    }

    /// The write policy in effect.
    #[must_use]
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Counters collected so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of blocks currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if no block is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Returns `true` if `block` is resident.
    #[must_use]
    pub fn contains(&self, block: BlockId) -> bool {
        self.table.lookup(block).is_some()
    }

    /// The dense slot `block` currently occupies, if resident. Slot
    /// indices are stable for the block's whole residency and recycled
    /// only after eviction, so side structures (like the server's
    /// payload slab) can address per-block storage as `slot × stride`.
    #[must_use]
    pub fn slot_of(&self, block: BlockId) -> Option<Slot> {
        self.table.lookup(block)
    }

    /// Exclusive upper bound on every slot index ever issued; sizing
    /// slot-parallel side tables to this length makes any [`Slot`] from
    /// [`slot_of`](Self::slot_of) safe to index with.
    #[must_use]
    pub fn slot_bound(&self) -> usize {
        self.table.slot_bound()
    }

    /// The WTDU log contents (for persistence inspection and recovery
    /// tests).
    #[must_use]
    pub fn log(&self) -> &LogSpace {
        &self.log
    }

    /// Interns a freshly admitted block, priming its per-slot state.
    fn admit(&mut self, block: BlockId) -> Slot {
        let slot = self.table.intern(block);
        if slot.index() >= self.state.len() {
            self.state.resize(slot.index() + 1, ABSENT);
        } else {
            self.state[slot.index()] = ABSENT;
        }
        slot
    }

    /// Processes one access (of `record.blocks` consecutive blocks).
    /// `sleeping(d)` must report whether disk `d` currently rests below
    /// full speed; the power-aware write policies use it to decide
    /// between logging, deferring and flushing.
    ///
    /// **Scratch-buffer contract:** `effects` is a caller-owned scratch
    /// buffer. The cache clears it on entry and fills it with the
    /// disk-side work this access triggers, in service order; the caller
    /// reads it after the call and reuses the same buffer for the next
    /// access, so the steady-state hit path performs no heap allocation.
    /// In the returned [`AccessOutcome`], `hit` means *every* block of
    /// the request was resident, and only the missing blocks are fetched.
    pub fn access<F: Fn(DiskId) -> bool>(
        &mut self,
        record: &Record,
        sleeping: F,
        effects: &mut Vec<Effect>,
    ) -> AccessOutcome {
        effects.clear();
        let disk = record.block.disk();
        // Block numbers wrap: a request that runs past `u64::MAX`
        // continues at block 0, as the server's payload path does.
        let first = record.block.block().number();
        self.stats.accesses += 1;
        match record.op {
            IoOp::Read => self.stats.reads += 1,
            IoOp::Write => self.stats.writes += 1,
        }
        // Disk power state is sampled once per request: the request's own
        // effects are serviced together, so mid-request wake-ups are not
        // observable by the cache anyway.
        let asleep = sleeping(disk);

        let mut evicted = None;
        let mut all_hit = true;
        let mut activated = false;
        let mut read_missed = false;

        for offset in 0..record.blocks {
            let block = BlockId::new(disk, BlockNo::new(first.wrapping_add(offset)));
            let found = self.table.lookup(block);
            self.policy.on_access(found, block, record.time);
            let slot = match found {
                Some(slot) => slot,
                None => {
                    all_hit = false;
                    // A read miss must fetch from the disk, waking it if
                    // needed; both power-aware write policies piggyback
                    // their deferred work on that activation.
                    if record.op == IoOp::Read {
                        if asleep && !activated {
                            self.on_activation(disk, effects);
                            activated = true;
                        }
                        effects.push(Effect::ReadDisk(block));
                        self.stats.disk_reads += 1;
                        read_missed = true;
                    }
                    if self.table.len() >= self.capacity {
                        let victim = self.evict_one(effects);
                        if evicted.is_none() {
                            evicted = Some(victim);
                        }
                    }
                    let slot = self.admit(block);
                    self.policy.on_insert(slot, block, record.time);
                    slot
                }
            };
            if record.op == IoOp::Write {
                self.handle_write(slot, block, asleep, effects);
            }
        }

        if all_hit {
            self.stats.hits += 1;
        }
        if read_missed && self.prefetch_depth > 0 {
            let last = first.wrapping_add(record.blocks.saturating_sub(1));
            self.prefetch_after(BlockId::new(disk, BlockNo::new(last)), record.time, effects);
        }

        AccessOutcome {
            hit: all_hit,
            evicted,
        }
    }

    /// Allocating convenience wrapper around [`BlockCache::access`]:
    /// returns the effects in an owned [`AccessResult`]. Handy in tests
    /// and examples; simulation loops should thread a reusable scratch
    /// buffer through `access` instead.
    pub fn access_alloc<F: Fn(DiskId) -> bool>(
        &mut self,
        record: &Record,
        sleeping: F,
    ) -> AccessResult {
        let mut effects = Vec::new();
        let outcome = self.access(record, sleeping, &mut effects);
        AccessResult {
            hit: outcome.hit,
            evicted: outcome.evicted,
            effects,
        }
    }

    /// Sequential read-ahead behind a demand read miss: the disk is
    /// active anyway, so the following blocks ride the same activation.
    fn prefetch_after(
        &mut self,
        block: BlockId,
        time: pc_units::SimTime,
        effects: &mut Vec<Effect>,
    ) {
        for i in 1..=self.prefetch_depth {
            let next = BlockId::new(
                block.disk(),
                BlockNo::new(block.block().number().wrapping_add(i)),
            );
            if self.table.lookup(next).is_some() {
                continue;
            }
            if self.table.len() >= self.capacity {
                self.evict_one(effects);
            }
            let slot = self.admit(next);
            self.policy.on_prefetch_insert(slot, next, time);
            effects.push(Effect::ReadDisk(next));
            self.stats.disk_reads += 1;
            self.stats.prefetch_reads += 1;
        }
    }

    /// Evicts one block, emitting a write-back if it was dirty. Under
    /// WTDU, evicting a logged block (whose newest value exists only in
    /// the cache and the log) triggers a full region flush first so the
    /// data disk ends up current — see the module docs of
    /// [`wtdu`](crate::wtdu).
    fn evict_one(&mut self, effects: &mut Vec<Effect>) -> BlockId {
        let slot = self.policy.evict();
        let victim = self.table.block_of(slot);
        self.table.release(slot);
        self.stats.evictions += 1;
        if self.unmark(slot, victim.disk()) {
            // Must not lose the newest value: it is only in the cache (and,
            // under WTDU, the log), and the slot was just released.
            effects.push(Effect::WriteDisk(victim));
            self.stats.disk_writes += 1;
            if self.write_policy == WritePolicy::Wtdu {
                // Retire the whole region so no pending log entry is left
                // older than what the disk now holds.
                self.flush_logged(victim.disk(), effects);
            } else {
                self.stats.dirty_evictions += 1;
            }
        }
        victim
    }

    /// Applies the write policy for a write access to the resident block
    /// at `slot`. `asleep` is the target disk's power state at the
    /// request's arrival.
    fn handle_write(
        &mut self,
        slot: Slot,
        block: BlockId,
        asleep: bool,
        effects: &mut Vec<Effect>,
    ) {
        self.write_seq += 1;
        let disk = block.disk();
        match self.write_policy {
            WritePolicy::WriteThrough => {
                effects.push(Effect::WriteDisk(block));
                self.stats.disk_writes += 1;
            }
            WritePolicy::WriteBack => {
                self.mark(slot, block);
            }
            WritePolicy::Wbeu { dirty_limit } => {
                self.mark(slot, block);
                if self.pending[disk.as_usize()].len() > dirty_limit {
                    // Forced flush: wake the disk to drain its dirty set.
                    self.flush_pending(disk, effects);
                }
            }
            WritePolicy::Wtdu => {
                if asleep {
                    self.append_log(slot, block, effects);
                } else {
                    // A direct write must not leave a *pending* log entry
                    // for this block behind: a crash would replay the
                    // stale logged value over the newer direct write.
                    // Retire the region first (the disk is active, so the
                    // flush is cheap and matches the paper's
                    // flush-on-activation protocol).
                    if self.state[slot.index()] != ABSENT {
                        self.flush_logged(disk, effects);
                    }
                    effects.push(Effect::WriteDisk(block));
                    self.stats.disk_writes += 1;
                }
            }
        }
    }

    /// Power-aware deferred work on a disk's transition to active:
    /// WBEU flushes dirty blocks, WTDU replays logged blocks and retires
    /// the log region.
    fn on_activation(&mut self, disk: DiskId, effects: &mut Vec<Effect>) {
        match self.write_policy {
            WritePolicy::Wbeu { .. } => self.flush_pending(disk, effects),
            WritePolicy::Wtdu => self.flush_logged(disk, effects),
            WritePolicy::WriteThrough | WritePolicy::WriteBack => {}
        }
    }

    /// Adds the block at `slot` to its disk's pending set, if absent.
    fn mark(&mut self, slot: Slot, block: BlockId) {
        let at = &mut self.state[slot.index()];
        if *at == ABSENT {
            let disk = block.disk().as_usize();
            if disk >= self.pending.len() {
                self.pending.resize_with(disk + 1, DiskSet::new);
            }
            let set = &mut self.pending[disk];
            *at = set.len() as u32;
            set.push((block.block().number(), slot.index() as u32));
        }
    }

    /// Takes the block at `slot` out of `disk`'s pending set; returns
    /// whether it was there.
    fn unmark(&mut self, slot: Slot, disk: DiskId) -> bool {
        let at = std::mem::replace(&mut self.state[slot.index()], ABSENT);
        if at == ABSENT {
            return false;
        }
        let set = &mut self.pending[disk.as_usize()];
        set.swap_remove(at as usize);
        if let Some(&(_, moved)) = set.get(at as usize) {
            self.state[moved as usize] = at;
        }
        true
    }

    /// Writes every pending block of `disk` home, in ascending block
    /// order, and empties the set (keeping its capacity).
    fn flush_pending(&mut self, disk: DiskId, effects: &mut Vec<Effect>) {
        let Some(set) = self.pending.get_mut(disk.as_usize()) else {
            return;
        };
        // Block numbers are unique within a disk: this is a sort by block.
        set.sort_unstable();
        for &(no, slot) in set.iter() {
            effects.push(Effect::WriteDisk(BlockId::new(disk, BlockNo::new(no))));
            self.state[slot as usize] = ABSENT;
        }
        self.stats.disk_writes += set.len() as u64;
        set.clear();
    }

    fn append_log(&mut self, slot: Slot, block: BlockId, effects: &mut Vec<Effect>) {
        self.log.append(block.disk(), block.block(), self.write_seq);
        self.stats.log_writes += 1;
        effects.push(Effect::WriteLog(block));
        self.mark(slot, block);
    }

    /// WTDU's flush: the logged blocks go home and the region retires.
    fn flush_logged(&mut self, disk: DiskId, effects: &mut Vec<Effect>) {
        self.flush_pending(disk, effects);
        if disk.index() < self.log.disk_count() {
            self.log.flush_region(disk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Lru;
    use pc_units::SimTime;

    fn blk(disk: u32, no: u64) -> BlockId {
        BlockId::new(DiskId::new(disk), BlockNo::new(no))
    }

    fn rec(ms: u64, block: BlockId, op: IoOp) -> Record {
        Record::new(SimTime::from_millis(ms), block, op)
    }

    fn cache(capacity: usize, wp: WritePolicy) -> BlockCache {
        BlockCache::new(capacity, Box::new(Lru::new()), wp)
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = cache(2, WritePolicy::WriteBack);
        let b = blk(0, 1);
        let r1 = c.access_alloc(&rec(0, b, IoOp::Read), |_| false);
        assert!(!r1.hit);
        assert_eq!(r1.effects, vec![Effect::ReadDisk(b)]);
        let r2 = c.access_alloc(&rec(1, b, IoOp::Read), |_| false);
        assert!(r2.hit);
        assert!(r2.effects.is_empty());
        assert_eq!(c.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_writes_back_dirty_blocks() {
        let mut c = cache(2, WritePolicy::WriteBack);
        c.access_alloc(&rec(0, blk(0, 1), IoOp::Write), |_| false);
        c.access_alloc(&rec(1, blk(0, 2), IoOp::Read), |_| false);
        let r = c.access_alloc(&rec(2, blk(0, 3), IoOp::Read), |_| false);
        assert_eq!(r.evicted, Some(blk(0, 1)));
        assert!(r.effects.contains(&Effect::WriteDisk(blk(0, 1))));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_through_never_holds_dirty_blocks() {
        let mut c = cache(2, WritePolicy::WriteThrough);
        c.access_alloc(&rec(0, blk(0, 1), IoOp::Write), |_| false);
        c.access_alloc(&rec(1, blk(0, 2), IoOp::Read), |_| false);
        let r = c.access_alloc(&rec(2, blk(0, 3), IoOp::Read), |_| false);
        // Eviction of block 1 emits no write-back: it was written through.
        assert_eq!(
            r.effects
                .iter()
                .filter(|e| matches!(e, Effect::WriteDisk(_)))
                .count(),
            0
        );
        assert_eq!(c.stats().disk_writes, 1);
    }

    #[test]
    fn write_miss_allocates_without_reading() {
        let mut c = cache(4, WritePolicy::WriteBack);
        let r = c.access_alloc(&rec(0, blk(0, 9), IoOp::Write), |_| false);
        assert!(!r.hit);
        assert!(r.effects.is_empty(), "no fetch, no write-through");
        assert!(c.contains(blk(0, 9)));
    }

    #[test]
    fn wbeu_flushes_on_read_activation() {
        let mut c = cache(8, WritePolicy::Wbeu { dirty_limit: 100 });
        c.access_alloc(&rec(0, blk(1, 1), IoOp::Write), |_| false);
        c.access_alloc(&rec(1, blk(1, 2), IoOp::Write), |_| false);
        // Read miss to disk 1 while it sleeps: flush rides the spin-up.
        let r = c.access_alloc(&rec(2, blk(1, 3), IoOp::Read), |_| true);
        let writes: Vec<_> = r
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::WriteDisk(_)))
            .collect();
        assert_eq!(writes.len(), 2);
        // Flush precedes the read in the emitted order only if the read is
        // last; we emit activation work first.
        assert_eq!(*r.effects.last().unwrap(), Effect::ReadDisk(blk(1, 3)));
    }

    #[test]
    fn wbeu_respects_dirty_limit() {
        let mut c = cache(16, WritePolicy::Wbeu { dirty_limit: 2 });
        c.access_alloc(&rec(0, blk(0, 1), IoOp::Write), |_| true);
        c.access_alloc(&rec(1, blk(0, 2), IoOp::Write), |_| true);
        let r = c.access_alloc(&rec(2, blk(0, 3), IoOp::Write), |_| true);
        // Third dirty block exceeds the limit of 2: forced flush of all 3.
        assert_eq!(
            r.effects
                .iter()
                .filter(|e| matches!(e, Effect::WriteDisk(_)))
                .count(),
            3
        );
    }

    #[test]
    fn wtdu_logs_writes_to_sleeping_disks() {
        let mut c = cache(8, WritePolicy::Wtdu);
        let b = blk(2, 7);
        let r = c.access_alloc(&rec(0, b, IoOp::Write), |_| true);
        assert_eq!(r.effects, vec![Effect::WriteLog(b)]);
        assert_eq!(c.stats().log_writes, 1);
        assert_eq!(c.log().pending(DiskId::new(2)), 1);
        // Crash now: recovery must replay the block.
        assert_eq!(c.log().recover().len(), 1);
    }

    #[test]
    fn wtdu_writes_directly_to_active_disks() {
        let mut c = cache(8, WritePolicy::Wtdu);
        let b = blk(2, 7);
        let r = c.access_alloc(&rec(0, b, IoOp::Write), |_| false);
        assert_eq!(r.effects, vec![Effect::WriteDisk(b)]);
        assert_eq!(c.stats().log_writes, 0);
    }

    #[test]
    fn wtdu_activation_flushes_and_retires_log() {
        let mut c = cache(8, WritePolicy::Wtdu);
        c.access_alloc(&rec(0, blk(2, 7), IoOp::Write), |_| true);
        c.access_alloc(&rec(1, blk(2, 8), IoOp::Write), |_| true);
        // Disk 2 wakes for a read: logged blocks flushed, region retired.
        let r = c.access_alloc(&rec(2, blk(2, 9), IoOp::Read), |_| true);
        assert_eq!(
            r.effects
                .iter()
                .filter(|e| matches!(e, Effect::WriteDisk(_)))
                .count(),
            2
        );
        assert_eq!(c.log().pending(DiskId::new(2)), 0);
        assert!(c.log().recover().is_empty(), "clean after flush");
    }

    #[test]
    fn wtdu_direct_write_supersedes_logged_value() {
        let mut c = cache(8, WritePolicy::Wtdu);
        let b = blk(0, 1);
        c.access_alloc(&rec(0, b, IoOp::Write), |_| true); // logged
        c.access_alloc(&rec(1, b, IoOp::Write), |_| false); // direct while active
                                                            // Waking the disk later flushes nothing (the logged mark cleared).
        let r = c.access_alloc(&rec(2, blk(0, 2), IoOp::Read), |_| true);
        assert_eq!(
            r.effects
                .iter()
                .filter(|e| matches!(e, Effect::WriteDisk(_)))
                .count(),
            0
        );
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = cache(3, WritePolicy::WriteBack);
        for i in 0..50 {
            c.access_alloc(&rec(i, blk(0, i % 7), IoOp::Read), |_| false);
            assert!(c.len() <= 3);
        }
        assert_eq!(c.stats().accesses, 50);
    }

    #[test]
    fn slot_space_stays_dense_under_churn() {
        // A bounded cache must recycle slots rather than grow its state
        // vector without bound: after heavy churn the per-slot state is
        // still no larger than the capacity.
        let mut c = cache(4, WritePolicy::WriteBack);
        for i in 0..1_000u64 {
            c.access_alloc(&rec(i, blk(0, i % 97), IoOp::Read), |_| false);
        }
        assert!(c.len() <= 4);
        assert!(
            c.state.len() <= 4,
            "state grew to {} slots for a 4-block cache",
            c.state.len()
        );
    }

    #[test]
    fn infinite_cache_only_cold_misses() {
        let mut c = BlockCache::new(usize::MAX, Box::new(Lru::new()), WritePolicy::WriteBack);
        let mut misses = 0;
        for i in 0..100u64 {
            let b = blk(0, i % 10);
            if !c.access_alloc(&rec(i, b, IoOp::Read), |_| false).hit {
                misses += 1;
            }
        }
        assert_eq!(misses, 10);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn log_grows_past_64_disks() {
        let mut c = cache(8, WritePolicy::Wtdu);
        let b = blk(200, 1);
        let r = c.access_alloc(&rec(0, b, IoOp::Write), |_| true);
        assert_eq!(r.effects, vec![Effect::WriteLog(b)]);
        assert_eq!(c.log().pending(DiskId::new(200)), 1);
    }

    #[test]
    fn log_growth_keeps_pending_writes_and_lifetime_appends() {
        let mut c = cache(8, WritePolicy::Wtdu);
        c.access_alloc(&rec(0, blk(0, 1), IoOp::Write), |_| true);
        c.access_alloc(&rec(1, blk(0, 1), IoOp::Write), |_| true);
        c.access_alloc(&rec(2, blk(200, 1), IoOp::Write), |_| true);
        assert_eq!(c.log().pending(DiskId::new(0)), 2);
        assert_eq!(c.log().total_appends(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn rejects_zero_capacity() {
        let _ = cache(0, WritePolicy::WriteBack);
    }

    #[test]
    fn prefetch_pulls_sequential_blocks() {
        let mut c = cache(8, WritePolicy::WriteBack).with_prefetch_depth(2);
        let r = c.access_alloc(&rec(0, blk(0, 10), IoOp::Read), |_| false);
        assert_eq!(
            r.effects,
            vec![
                Effect::ReadDisk(blk(0, 10)),
                Effect::ReadDisk(blk(0, 11)),
                Effect::ReadDisk(blk(0, 12)),
            ]
        );
        assert_eq!(c.stats().prefetch_reads, 2);
        // The prefetched blocks now hit without any disk work.
        assert!(
            c.access_alloc(&rec(1, blk(0, 11), IoOp::Read), |_| false)
                .hit
        );
        assert!(
            c.access_alloc(&rec(2, blk(0, 12), IoOp::Read), |_| false)
                .hit
        );
    }

    #[test]
    fn prefetch_skips_resident_blocks_and_respects_capacity() {
        let mut c = cache(2, WritePolicy::WriteBack).with_prefetch_depth(3);
        c.access_alloc(&rec(0, blk(0, 11), IoOp::Read), |_| false);
        let r = c.access_alloc(&rec(1, blk(0, 10), IoOp::Read), |_| false);
        // Block 11 is already resident; capacity 2 bounds the rest.
        assert!(c.len() <= 2);
        let reads = r
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::ReadDisk(_)))
            .count();
        assert!(reads >= 2, "demand read plus at least one prefetch");
    }

    #[test]
    fn writes_do_not_trigger_prefetch() {
        let mut c = cache(8, WritePolicy::WriteBack).with_prefetch_depth(4);
        let r = c.access_alloc(&rec(0, blk(0, 5), IoOp::Write), |_| false);
        assert!(r.effects.is_empty());
        assert_eq!(c.stats().prefetch_reads, 0);
    }

    #[test]
    fn multi_block_requests_fetch_only_missing_blocks() {
        let mut c = cache(8, WritePolicy::WriteBack);
        // Warm block 11.
        c.access_alloc(&rec(0, blk(0, 11), IoOp::Read), |_| false);
        // A 4-block read 10..=13: blocks 10, 12, 13 miss; 11 hits.
        let mut r4 = rec(1, blk(0, 10), IoOp::Read);
        r4.blocks = 4;
        let res = c.access_alloc(&r4, |_| false);
        assert!(!res.hit, "partial hits count as a request miss");
        let fetched: Vec<u64> = res
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::ReadDisk(b) => Some(b.block().number()),
                _ => None,
            })
            .collect();
        assert_eq!(fetched, vec![10, 12, 13]);
        // The whole run now hits.
        let again = c.access_alloc(
            &Record {
                time: SimTime::from_millis(2),
                ..r4
            },
            |_| false,
        );
        assert!(again.hit);
        assert!(again.effects.is_empty());
    }

    #[test]
    fn block_ranges_wrap_at_the_top_of_the_address_space() {
        // A 2-block read at the last block number touches it and block
        // 0, and the read-ahead behind it continues from there.
        let mut c = cache(8, WritePolicy::WriteBack).with_prefetch_depth(2);
        let mut r = rec(0, blk(3, u64::MAX), IoOp::Read);
        r.blocks = 2;
        let res = c.access_alloc(&r, |_| false);
        assert_eq!(
            res.effects,
            vec![
                Effect::ReadDisk(blk(3, u64::MAX)),
                Effect::ReadDisk(blk(3, 0)),
                Effect::ReadDisk(blk(3, 1)),
                Effect::ReadDisk(blk(3, 2)),
            ]
        );
        assert!(
            c.access_alloc(&rec(1, blk(3, 0), IoOp::Read), |_| false)
                .hit
        );
        let mut w = rec(2, blk(3, u64::MAX), IoOp::Write);
        w.blocks = 3;
        assert!(c.access_alloc(&w, |_| false).hit);
        assert_eq!(c.stats().disk_reads, 4);
    }

    #[test]
    fn multi_block_writes_persist_every_block() {
        let mut c = cache(8, WritePolicy::WriteThrough);
        let mut w = rec(0, blk(0, 20), IoOp::Write);
        w.blocks = 3;
        let res = c.access_alloc(&w, |_| false);
        let written: Vec<u64> = res
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::WriteDisk(b) => Some(b.block().number()),
                _ => None,
            })
            .collect();
        assert_eq!(written, vec![20, 21, 22]);
        assert_eq!(c.stats().disk_writes, 3);
        assert_eq!(c.stats().writes, 1, "one client request");
    }

    #[test]
    fn multi_block_belady_expansion_is_consistent() {
        // Offline policies must count per-block accesses exactly as the
        // cache drives them; a mismatch panics inside Belady.
        use crate::policy::Belady;
        let mut t = pc_trace::Trace::new(1);
        let mut r = rec(0, blk(0, 0), IoOp::Read);
        r.blocks = 3;
        t.push(r);
        t.push(rec(1, blk(0, 1), IoOp::Read)); // hits (inside the run)
        let mut r2 = rec(2, blk(0, 4), IoOp::Read);
        r2.blocks = 2;
        t.push(r2);
        let mut c = BlockCache::new(4, Box::new(Belady::new(&t)), WritePolicy::WriteBack);
        let mut hits = 0;
        for r in &t {
            if c.access_alloc(r, |_| false).hit {
                hits += 1;
            }
        }
        assert_eq!(hits, 1, "the single-block re-read hits");
    }

    #[test]
    #[should_panic(expected = "off-line policy")]
    fn prefetch_rejects_offline_policies() {
        use crate::policy::Belady;
        let mut t = pc_trace::Trace::new(1);
        t.push(rec(0, blk(0, 1), IoOp::Read));
        let mut c = BlockCache::new(4, Box::new(Belady::new(&t)), WritePolicy::WriteBack)
            .with_prefetch_depth(1);
        c.access_alloc(&rec(0, blk(0, 1), IoOp::Read), |_| false);
    }
}
