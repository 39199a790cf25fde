//! OPG — the off-line power-aware greedy algorithm (paper §3.2).
//!
//! OPG evicts the resident block whose re-fetch would cost the least
//! *energy*, not the one with the furthest reuse. The cost model rests on
//! **deterministic misses**: accesses that are bound to miss no matter
//! what the policy does from here on (initially the cold misses; every
//! eviction adds the victim's next reference). A disk must be active at
//! each of its deterministic-miss instants, so evicting block `b` — whose
//! next access `x` would otherwise be a hit — splits one known idle period
//! of `b`'s disk in two:
//!
//! ```text
//! leader l ········· x ········· follower f        (all on b's disk)
//! penalty(b) = E(x−l) + E(f−x) − E(f−l)  ≥ 0
//! ```
//!
//! where `E` is the idle-period energy function of the underlying power
//! management — the Figure-2 lower envelope for Oracle DPM, or the
//! threshold-ladder energy for Practical DPM. Sub-additivity of `E` makes
//! the penalty non-negative.
//!
//! Penalties below a threshold ε are rounded up to ε and ties evict the
//! largest forward distance, so ε→∞ degenerates to Belady's MIN and ε=0
//! is the pure greedy (paper §3.2's knob subsuming both).
//!
//! # Implementation notes
//!
//! The deterministic-miss structure makes updates *local*: adding a
//! deterministic miss at time `t` on disk `d` only re-prices resident
//! blocks whose next access falls inside the gap that contained `t`; and
//! servicing a miss at `t` replaces "leader = det-miss at `t`" with
//! "leader = disk last active at `t`", leaving every penalty unchanged.
//!
//! All state lives in dense arrays — no maps or trees on the per-access
//! path. Every deterministic-miss or next-access instant is a trace access
//! time, so each disk gets an *instant space*: its distinct arrival times,
//! strictly increasing (`times`), and each block access stores only its
//! instant on its own disk (`instant`); the disk comes from the block.
//! With the [`OfflineIndex`] link that is 8 bytes per block access.
//! Deterministic-miss multiplicities and resident next-access buckets are
//! per-instant arrays, with a hierarchical bitset ([`DenseBits`]) per disk
//! giving predecessor/successor instants in O(log₆₄ n) word steps —
//! 16 bytes and two bits per instant. Resident blocks are slot-indexed
//! (`Slot` is dense): per-slot parallel arrays hold the block, its raw
//! next index, and intrusive bucket links. Victims come from an
//! index-tracking 4-ary min-heap over slots ordered by
//! `(rounded penalty, −next-access-time, block)` — the same total order
//! the previous `BTreeSet` used, so victim selection is unchanged. A naive
//! re-scan eviction mode is kept for property-testing equivalence.

use std::cmp::Reverse;

use pc_diskmodel::PowerModel;
use pc_trace::Trace;
use pc_units::{BlockId, BlockNo, DiskId, Joules, SimDuration, SimTime};

use crate::bits::DenseBits;
use crate::offline::{OfflineIndex, NO_NEXT};
use crate::policy::ReplacementPolicy;
use crate::table::Slot;

/// Which disk power-management scheme OPG prices evictions against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpgDpm {
    /// Price with the Figure-2 lower envelope (Oracle DPM downstream).
    Oracle,
    /// Price with the threshold-ladder idle energy (Practical DPM
    /// downstream).
    Practical,
}

/// Eviction priority key: rounded penalty (as ordered bits), then furthest
/// next access first, then block id.
type Key = (u64, Reverse<u64>, BlockId);

/// Null link for slot arrays and bucket lists.
const NIL: u32 = u32::MAX;

/// The off-line power-aware greedy replacement policy.
///
/// Constructed from the trace it will replay (see the
/// [protocol](crate::policy)).
///
/// # Examples
///
/// ```
/// use pc_cache::policy::{Opg, OpgDpm};
/// use pc_cache::{BlockCache, WritePolicy};
/// use pc_diskmodel::{DiskPowerSpec, PowerModel};
/// use pc_trace::{IoOp, Record, Trace};
/// use pc_units::{BlockId, BlockNo, DiskId, Joules, SimTime};
///
/// let blk = |n| BlockId::new(DiskId::new(0), BlockNo::new(n));
/// let mut t = Trace::new(1);
/// for (i, b) in [1u64, 2, 3, 1, 2].into_iter().enumerate() {
///     t.push(Record::new(SimTime::from_secs(10 * i as u64), blk(b), IoOp::Read));
/// }
/// let power = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());
/// let opg = Opg::new(&t, power, OpgDpm::Oracle, Joules::ZERO);
/// let mut cache = BlockCache::new(2, Box::new(opg), WritePolicy::WriteBack);
/// for r in &t {
///     cache.access_alloc(r, |_| false);
/// }
/// ```
pub struct Opg {
    index: OfflineIndex,
    power: PowerModel,
    dpm: OpgDpm,
    epsilon: f64,
    cursor: usize,
    naive_eviction: bool,

    /// Access index → its instant on its block's disk.
    instant: Vec<u32>,
    /// Per disk: the distinct arrival times (µs) of its accesses,
    /// strictly increasing; instant `k` of disk `d` is `times[d][k]`.
    times: Vec<Vec<u64>>,

    /// Per disk: future deterministic-miss multiplicity per instant.
    det_count: Vec<Vec<u32>>,
    /// Per disk: instants with `det_count > 0`.
    det_bits: Vec<DenseBits>,
    /// When each disk last serviced a (deterministic) miss, µs.
    last_active: Vec<u64>,

    /// Per disk: instants holding ≥ 1 resident block's next access.
    res_bits: Vec<DenseBits>,
    /// Per disk: head slot of each instant's resident bucket.
    res_head: Vec<Vec<u32>>,

    /// Slot → block occupying it (valid while resident).
    slot_block: Vec<BlockId>,
    /// Slot → raw next-occurrence index (`NO_NEXT` = never).
    slot_next: Vec<u32>,
    /// Slot → its position in `heap` (`NIL` = not resident).
    heap_pos: Vec<u32>,
    /// Intrusive links of the per-instant resident buckets.
    bucket_prev: Vec<u32>,
    bucket_next: Vec<u32>,

    /// 4-ary min-heap of `(key, slot)` entries. Keys are stored inline so
    /// a sift comparison reads contiguous heap entries instead of
    /// indirecting through a slot-indexed side array; the wider fan-out
    /// halves the depth at the same comparison count. Unique keys (they
    /// embed the `BlockId`) make the root identical to the old
    /// `BTreeSet` minimum, so victim selection is unchanged.
    heap: Vec<(Key, u32)>,
    /// Reusable buffer for slots collected during re-pricing, so the
    /// per-record path performs no heap allocation in steady state.
    scratch: Vec<u32>,
}

impl std::fmt::Debug for Opg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Opg")
            .field("dpm", &self.dpm)
            .field("epsilon", &self.epsilon)
            .field("cursor", &self.cursor)
            .field("resident", &self.heap.len())
            .finish()
    }
}

impl Opg {
    /// Builds OPG for a trace, a power model, the downstream DPM scheme
    /// and the ε rounding threshold (`Joules::ZERO` = pure OPG; large ε
    /// recovers Belady).
    ///
    /// # Panics
    ///
    /// Panics if ε is negative.
    #[must_use]
    pub fn new(trace: &Trace, power: PowerModel, dpm: OpgDpm, epsilon: Joules) -> Self {
        assert!(epsilon.as_joules() >= 0.0, "epsilon must be non-negative");
        let index = OfflineIndex::build(trace);
        let disks = trace.disk_count() as usize;
        // Size each disk's instant list exactly, then fill it.
        let mut counts = vec![0usize; disks];
        let mut last = vec![None; disks];
        for r in trace {
            let d = r.block.disk().as_usize();
            if last[d] != Some(r.time) {
                last[d] = Some(r.time);
                counts[d] += 1;
            }
        }
        let mut times: Vec<Vec<u64>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut instant = Vec::with_capacity(index.len());
        // Every block's first access is a deterministic (cold) miss.
        let first = index.first_accesses();
        let mut det_count: Vec<Vec<u32>> = counts.iter().map(|&c| vec![0; c]).collect();
        let mut det_bits: Vec<DenseBits> = counts.iter().map(|&c| DenseBits::new(c)).collect();
        for r in trace {
            let d = r.block.disk().as_usize();
            let t = r.time.as_micros();
            if times[d].last() != Some(&t) {
                times[d].push(t);
            }
            let k = times[d].len() - 1;
            for _ in 0..r.blocks {
                let i = instant.len();
                if first[i / 64] & (1 << (i % 64)) != 0 {
                    det_count[d][k] += 1;
                    det_bits[d].set(k);
                }
                instant.push(k as u32);
            }
        }
        drop(first);
        let res_bits = counts.iter().map(|&c| DenseBits::new(c)).collect();
        let res_head = counts.iter().map(|&c| vec![NIL; c]).collect();
        Opg {
            index,
            power,
            dpm,
            epsilon: epsilon.as_joules(),
            cursor: 0,
            naive_eviction: false,
            instant,
            times,
            det_count,
            det_bits,
            last_active: vec![0; disks],
            res_bits,
            res_head,
            slot_block: Vec::new(),
            slot_next: Vec::new(),
            heap_pos: Vec::new(),
            bucket_prev: Vec::new(),
            bucket_next: Vec::new(),
            heap: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Switches eviction to a full re-scan of resident blocks (O(n) per
    /// eviction). Exists to property-test the indexed implementation.
    #[must_use]
    pub fn with_naive_eviction(mut self) -> Self {
        self.naive_eviction = true;
        self
    }

    /// Grows the slot-parallel arrays to cover `slot`.
    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.slot_block.len() {
            let n = slot + 1;
            let dummy = BlockId::new(DiskId::new(0), BlockNo::new(0));
            self.slot_block.resize(n, dummy);
            self.slot_next.resize(n, NO_NEXT);
            self.heap_pos.resize(n, NIL);
            self.bucket_prev.resize(n, NIL);
            self.bucket_next.resize(n, NIL);
        }
    }

    /// The idle-period energy function being priced against.
    fn idle_energy(&self, gap: SimDuration) -> f64 {
        match self.dpm {
            OpgDpm::Oracle => self.power.lower_envelope(gap).as_joules(),
            OpgDpm::Practical => self.power.practical_idle_energy(gap).as_joules(),
        }
    }

    /// Ladder/mode-scanning variant of [`idle_energy`](Self::idle_energy),
    /// the reference side of the pricing-table equivalence tests.
    #[cfg(test)]
    fn idle_energy_scan(&self, gap: SimDuration) -> f64 {
        match self.dpm {
            OpgDpm::Oracle => self.power.lower_envelope_scan(gap).as_joules(),
            OpgDpm::Practical => self.power.practical_idle_energy_scan(gap).as_joules(),
        }
    }

    /// Raw (un-rounded) penalty for a resident block of disk `d` whose
    /// next access falls on instant `k`.
    #[inline]
    fn penalty_at(&self, d: usize, k: u32) -> f64 {
        let k = k as usize;
        if self.det_count[d][k] > 0 {
            // The disk is provably active at x anyway.
            return 0.0;
        }
        let times = &self.times[d];
        let x = times[k];
        let floor = self.last_active[d];
        let leader = self.det_bits[d]
            .last_set_before(k)
            .map_or(floor, |p| times[p].max(floor));
        let leader = leader.min(x);
        let follower = self.det_bits[d]
            .first_set_at_or_after(k + 1)
            .map(|p| times[p]);
        self.penalty_from(x, leader, follower, |gap| self.idle_energy(gap))
    }

    /// The leader/follower penalty arithmetic shared by the instant-space
    /// hot path and the arbitrary-time test probes, priced by the idle
    /// energy function `e`.
    fn penalty_from(
        &self,
        x: u64,
        leader: u64,
        follower: Option<u64>,
        e: impl Fn(SimDuration) -> f64,
    ) -> f64 {
        let dl = SimDuration::from_micros(x - leader);
        let pen = match follower {
            Some(f) => {
                let df = SimDuration::from_micros(f - x);
                let whole = SimDuration::from_micros(f - leader);
                e(dl) + e(df) - e(whole)
            }
            None => {
                // No future deterministic miss: waking the disk at x costs
                // the idle-period energy above the keep-sleeping floor.
                let standby = self.power.mode(self.power.standby()).power;
                e(dl) - (standby * dl).as_joules()
            }
        };
        pen.max(0.0)
    }

    /// The eviction key for a block given its raw next index.
    #[inline]
    fn key_for(&self, block: BlockId, next: u32) -> Key {
        if next == NO_NEXT {
            // Never used again: zero penalty, infinite forward distance.
            return (rounded_bits(0.0, self.epsilon), Reverse(u64::MAX), block);
        }
        let d = block.disk().as_usize();
        let k = self.instant[next as usize];
        let x = self.times[d][k as usize];
        let pen = self.penalty_at(d, k);
        (rounded_bits(pen, self.epsilon), Reverse(x), block)
    }

    /// Recomputes a resident slot's key and restores heap order.
    fn reprice(&mut self, slot: u32) {
        let key = self.key_for(
            self.slot_block[slot as usize],
            self.slot_next[slot as usize],
        );
        if self.heap_pos[slot as usize] == NIL {
            self.heap.push((key, slot));
            self.heap_pos[slot as usize] = (self.heap.len() - 1) as u32;
            self.sift_up(self.heap.len() - 1);
        } else {
            let at = self.heap_pos[slot as usize] as usize;
            self.heap[at].0 = key;
            let at = self.sift_up(at);
            self.sift_down(at);
        }
    }

    /// Heap fan-out. Four children sit in one or two cache lines of the
    /// entry array, so a descent level costs about one memory touch.
    const ARITY: usize = 4;

    fn sift_up(&mut self, mut i: usize) -> usize {
        // Hole technique: carry the moving entry in a register and shift
        // displaced parents down with one write per level.
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if entry.0 < self.heap[parent].0 {
                self.heap[i] = self.heap[parent];
                self.heap_pos[self.heap[i].1 as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        self.heap_pos[entry.1 as usize] = i as u32;
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        loop {
            let first = Self::ARITY * i + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + Self::ARITY).min(self.heap.len());
            let mut child = first;
            for c in first + 1..last {
                if self.heap[c].0 < self.heap[child].0 {
                    child = c;
                }
            }
            if self.heap[child].0 < entry.0 {
                self.heap[i] = self.heap[child];
                self.heap_pos[self.heap[i].1 as usize] = i as u32;
                i = child;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        self.heap_pos[entry.1 as usize] = i as u32;
    }

    fn heap_remove(&mut self, slot: u32) {
        let at = self.heap_pos[slot as usize] as usize;
        debug_assert_ne!(at as u32, NIL, "slot was resident");
        self.heap_pos[slot as usize] = NIL;
        self.heap.swap_remove(at);
        if at < self.heap.len() {
            self.heap_pos[self.heap[at].1 as usize] = at as u32;
            let at = self.sift_up(at);
            self.sift_down(at);
        }
    }

    /// Links `slot` into the resident bucket of its next-access instant.
    #[inline]
    fn bucket_insert(&mut self, slot: u32, next: u32) {
        let (d, k) = self.instant_of(slot, next);
        let head = self.res_head[d][k];
        self.bucket_prev[slot as usize] = NIL;
        self.bucket_next[slot as usize] = head;
        if head == NIL {
            self.res_bits[d].set(k);
        } else {
            self.bucket_prev[head as usize] = slot;
        }
        self.res_head[d][k] = slot;
    }

    /// Unlinks `slot` from the resident bucket of its next-access instant.
    #[inline]
    fn bucket_remove(&mut self, slot: u32, next: u32) {
        let (d, k) = self.instant_of(slot, next);
        let prev = self.bucket_prev[slot as usize];
        let after = self.bucket_next[slot as usize];
        if prev == NIL {
            self.res_head[d][k] = after;
            if after == NIL {
                self.res_bits[d].clear(k);
            }
        } else {
            self.bucket_next[prev as usize] = after;
        }
        if after != NIL {
            self.bucket_prev[after as usize] = prev;
        }
    }

    /// The (disk, instant) of resident `slot`'s next access, raw index
    /// `next`: the disk is the block's own.
    #[inline]
    fn instant_of(&self, slot: u32, next: u32) -> (usize, usize) {
        let d = self.slot_block[slot as usize].disk().as_usize();
        (d, self.instant[next as usize] as usize)
    }

    /// Registers a future deterministic miss at instant `k` of disk `d`,
    /// re-pricing the blocks in the gap it splits.
    fn add_det(&mut self, d: usize, k: usize) {
        let count = &mut self.det_count[d][k];
        *count += 1;
        if *count > 1 {
            return; // structurally unchanged
        }
        self.det_bits[d].set(k);
        let times = &self.times[d];
        let lo = self.det_bits[d]
            .last_set_before(k)
            .map_or(self.last_active[d], |p| times[p]);
        let hi = self.det_bits[d]
            .first_set_at_or_after(k + 1)
            .map_or(u64::MAX, |p| times[p]);
        self.reprice_range(d, lo, hi);
        // Blocks at exactly x become free to evict (penalty 0).
        if self.res_bits[d].get(k) {
            let mut at_x = std::mem::take(&mut self.scratch);
            let mut slot = self.res_head[d][k];
            while slot != NIL {
                at_x.push(slot);
                slot = self.bucket_next[slot as usize];
            }
            for &s in &at_x {
                self.reprice(s);
            }
            at_x.clear();
            self.scratch = at_x;
        }
    }

    /// Re-prices every resident block of disk `d` whose next access lies
    /// strictly inside `(lo, hi)` (times in µs).
    fn reprice_range(&mut self, d: usize, lo: u64, hi: u64) {
        let times = &self.times[d];
        let start = times.partition_point(|&t| t <= lo);
        let end = times.partition_point(|&t| t < hi);
        // `reprice` needs `&mut self`, so the affected set is staged in
        // the persistent scratch buffer instead of a fresh Vec per call.
        let mut affected = std::mem::take(&mut self.scratch);
        let mut p = self.res_bits[d].first_set_at_or_after(start);
        while let Some(pos) = p {
            if pos >= end {
                break;
            }
            let mut slot = self.res_head[d][pos];
            while slot != NIL {
                affected.push(slot);
                slot = self.bucket_next[slot as usize];
            }
            p = self.res_bits[d].first_set_at_or_after(pos + 1);
        }
        for &s in &affected {
            self.reprice(s);
        }
        affected.clear();
        self.scratch = affected;
    }

    /// Removes a resident slot from all structures, returning its raw next
    /// index.
    fn forget(&mut self, slot: u32) -> u32 {
        let next = self.slot_next[slot as usize];
        self.heap_remove(slot);
        if next != NO_NEXT {
            self.bucket_remove(slot, next);
        }
        next
    }

    /// Naive victim selection: scan every resident block with fresh
    /// penalties (reference implementation).
    fn scan_victim(&self) -> u32 {
        self.heap
            .iter()
            .map(|&(_, s)| {
                (
                    self.key_for(self.slot_block[s as usize], self.slot_next[s as usize]),
                    s,
                )
            })
            .min()
            .map(|(_, s)| s)
            .expect("no block to evict")
    }

    /// Penalty for a hypothetical re-fetch of `disk` at an arbitrary time
    /// `x` µs (not necessarily an access instant), priced through the
    /// tables or, with `scan`, through the mode/ladder scans (bit-identical
    /// by construction; the reference the tests compare against).
    #[cfg(test)]
    fn penalty_probe(&self, disk: DiskId, x: u64, scan: bool) -> f64 {
        let d = disk.as_usize();
        let times = &self.times[d];
        let at = times.partition_point(|&t| t < x);
        if at < times.len() && times[at] == x && self.det_count[d][at] > 0 {
            // The disk is active at x anyway.
            return 0.0;
        }
        let floor = self.last_active[d];
        let leader = self.det_bits[d]
            .last_set_before(at)
            .map_or(floor, |p| times[p].max(floor));
        let leader = leader.min(x);
        let after = times.partition_point(|&t| t <= x);
        let follower = self.det_bits[d]
            .first_set_at_or_after(after)
            .map(|p| times[p]);
        if scan {
            self.penalty_from(x, leader, follower, |gap| self.idle_energy_scan(gap))
        } else {
            self.penalty_from(x, leader, follower, |gap| self.idle_energy(gap))
        }
    }

    /// Drops every future deterministic miss of `disk` (test scaffolding
    /// for probing penalties against an artificially quiet disk).
    #[cfg(test)]
    fn clear_det(&mut self, disk: DiskId) {
        let d = disk.as_usize();
        while let Some(p) = self.det_bits[d].first_set_at_or_after(0) {
            self.det_bits[d].clear(p);
            self.det_count[d][p] = 0;
        }
    }
}

/// Order-preserving bit encoding of a non-negative penalty after ε
/// rounding.
fn rounded_bits(penalty: f64, epsilon: f64) -> u64 {
    penalty.max(epsilon).to_bits()
}

impl ReplacementPolicy for Opg {
    fn name(&self) -> String {
        let dpm = match self.dpm {
            OpgDpm::Oracle => "oracle",
            OpgDpm::Practical => "practical",
        };
        format!("opg({dpm},eps={})", self.epsilon)
    }

    fn on_access(&mut self, slot: Option<Slot>, block: BlockId, time: SimTime) {
        assert!(
            self.cursor < self.index.len(),
            "access beyond the indexed trace"
        );
        let i = self.cursor;
        self.cursor += 1;
        let t = time.as_micros();
        if let Some(slot) = slot {
            // The block's stored next access is this very one; advance it.
            let s = slot.index() as u32;
            let old = self.slot_next[s as usize];
            debug_assert_eq!(old as usize, i, "hit must match the stored next use");
            debug_assert_eq!(self.slot_block[s as usize], block);
            self.bucket_remove(s, old);
            let next = self.index.next_raw(i);
            self.slot_next[s as usize] = next;
            if next != NO_NEXT {
                self.bucket_insert(s, next);
            }
            self.reprice(s);
        } else {
            // A deterministic miss happens now: the disk is active at t.
            // Replacing "leader = det miss at t" with "leader = last
            // active at t" leaves all penalties unchanged, so no
            // re-pricing is needed.
            let d = block.disk().as_usize();
            let k = self.instant[i] as usize;
            let count = &mut self.det_count[d][k];
            if *count > 0 {
                *count -= 1;
                if *count == 0 {
                    self.det_bits[d].clear(k);
                }
            }
            self.last_active[d] = self.last_active[d].max(t);
        }
    }

    fn on_insert(&mut self, slot: Slot, block: BlockId, _time: SimTime) {
        let s = slot.index() as u32;
        self.ensure_slot(slot.index());
        self.slot_block[s as usize] = block;
        let next = self.index.next_raw(self.cursor - 1);
        self.slot_next[s as usize] = next;
        if next != NO_NEXT {
            self.bucket_insert(s, next);
        }
        self.reprice(s);
    }

    fn on_prefetch_insert(&mut self, _slot: Slot, _block: BlockId, _time: SimTime) {
        panic!("OPG is an off-line policy and does not support prefetching");
    }

    fn evict(&mut self) -> Slot {
        let victim = if self.naive_eviction {
            self.scan_victim()
        } else {
            self.heap.first().expect("no block to evict").1
        };
        let next = self.forget(victim);
        if next != NO_NEXT {
            // The victim's next reference is now bound to miss.
            let (d, k) = self.instant_of(victim, next);
            self.add_det(d, k);
        }
        Slot::new(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::{blk, count_misses};
    use crate::policy::{Belady, Lru};
    use crate::{BlockCache, WritePolicy};
    use pc_diskmodel::DiskPowerSpec;
    use pc_trace::{IoOp, Record};

    fn power() -> PowerModel {
        PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15())
    }

    /// A trace on `disks` disks from (seconds, disk, block) triples.
    fn trace_of(disks: u32, accesses: &[(u64, u32, u64)]) -> Trace {
        let mut t = Trace::new(disks);
        for &(s, d, b) in accesses {
            t.push(Record::new(SimTime::from_secs(s), blk(d, b), IoOp::Read));
        }
        t
    }

    fn opg(t: &Trace, eps: f64) -> Opg {
        Opg::new(t, power(), OpgDpm::Oracle, Joules::new(eps))
    }

    #[test]
    fn zero_penalty_for_never_reused_blocks() {
        // Two one-shot blocks and one reused block: OPG must evict the
        // one-shot blocks first despite the reused block's closer next use.
        let t = trace_of(1, &[(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 9), (40, 0, 1)]);
        let mut cache = BlockCache::new(3, Box::new(opg(&t, 0.0)), WritePolicy::WriteBack);
        let mut evictions = Vec::new();
        for r in &t {
            if let Some(e) = cache.access_alloc(r, |_| false).evicted {
                evictions.push(e);
            }
        }
        // Block 1 (reused at t=40) survives; a one-shot block goes.
        assert_eq!(evictions.len(), 1);
        assert_ne!(evictions[0], blk(0, 1));
        assert!(cache.contains(blk(0, 1)));
    }

    #[test]
    fn large_epsilon_reproduces_belady_misses() {
        let accesses: Vec<(u64, u32, u64)> = (0..200u64)
            .map(|i| {
                let b = (i * 7 + i * i % 13) % 9;
                (i * 5, 0, b)
            })
            .collect();
        let t = trace_of(1, &accesses);
        let belady = count_misses(&t, 4, Box::new(Belady::new(&t)));
        let opg_inf = count_misses(&t, 4, Box::new(opg(&t, 1e18)));
        assert_eq!(belady, opg_inf);
    }

    #[test]
    fn indexed_and_naive_evictions_agree() {
        // Pseudo-random multi-disk trace; both eviction engines must pick
        // identical victims at every step.
        let mut state = 0x5EEDu64;
        let mut rand = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let accesses: Vec<(u64, u32, u64)> = (0..400)
            .map(|i| (i * 3 + rand(3), (rand(3)) as u32, rand(12)))
            .collect();
        let t = trace_of(3, &accesses);
        for eps in [0.0, 5.0, 1e18] {
            let mut fast = BlockCache::new(5, Box::new(opg(&t, eps)), WritePolicy::WriteBack);
            let mut slow = BlockCache::new(
                5,
                Box::new(opg(&t, eps).with_naive_eviction()),
                WritePolicy::WriteBack,
            );
            for r in &t {
                let a = fast.access_alloc(r, |_| false);
                let b = slow.access_alloc(r, |_| false);
                assert_eq!(a.hit, b.hit, "hit mismatch at {:?} eps {eps}", r.time);
                assert_eq!(
                    a.evicted, b.evicted,
                    "victim mismatch at {:?} eps {eps}",
                    r.time
                );
            }
        }
    }

    #[test]
    fn indexed_and_naive_evictions_agree_on_large_practical_trace() {
        // Satellite hardening for the slot/bitset rebuild: ≥ 2k accesses
        // over ≥ 8 disks, same-instant collisions (integer-second arrival
        // clock with multiple records per tick), and both pricing modes.
        let mut state = 0xBEEF5EEDu64;
        let mut rand = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut accesses: Vec<(u64, u32, u64)> = (0..2500)
            .map(|i| (i / 2 + rand(2), (rand(8)) as u32, rand(60)))
            .collect();
        accesses.sort_unstable();
        let t = trace_of(8, &accesses);
        for dpm in [OpgDpm::Oracle, OpgDpm::Practical] {
            for eps in [0.0, 5.0] {
                let build = || Opg::new(&t, power(), dpm, Joules::new(eps));
                let mut fast = BlockCache::new(24, Box::new(build()), WritePolicy::WriteBack);
                let mut slow = BlockCache::new(
                    24,
                    Box::new(build().with_naive_eviction()),
                    WritePolicy::WriteBack,
                );
                for r in &t {
                    let a = fast.access_alloc(r, |_| false);
                    let b = slow.access_alloc(r, |_| false);
                    assert_eq!(a.hit, b.hit, "hit mismatch at {:?} {dpm:?}/{eps}", r.time);
                    assert_eq!(
                        a.evicted, b.evicted,
                        "victim mismatch at {:?} {dpm:?}/{eps}",
                        r.time
                    );
                }
            }
        }
    }

    /// A seeded trace of multi-block records (1–8 blocks) on 5 disks with
    /// several records per one-second tick, so many block accesses share
    /// one (disk, time) instant — the shape Cello's records have.
    fn multi_block_trace(seed: u64, records: u64) -> Trace {
        let mut state = seed;
        let mut rand = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut t = Trace::new(5);
        for i in 0..records {
            let (d, b) = (rand(5) as u32, rand(40));
            let mut rec = Record::new(SimTime::from_secs(i / 4), blk(d, b), IoOp::Read);
            rec.blocks = 1 + rand(8);
            t.push(rec);
        }
        t
    }

    /// Forwards to an [`Opg`] and logs every victim with the number of
    /// block accesses replayed before it was chosen.
    struct Recorder(Opg, std::sync::Arc<std::sync::Mutex<Vec<(usize, BlockId)>>>);

    impl ReplacementPolicy for Recorder {
        fn name(&self) -> String {
            self.0.name()
        }
        fn on_access(&mut self, slot: Option<Slot>, block: BlockId, time: SimTime) {
            self.0.on_access(slot, block, time);
        }
        fn on_insert(&mut self, slot: Slot, block: BlockId, time: SimTime) {
            self.0.on_insert(slot, block, time);
        }
        fn evict(&mut self) -> Slot {
            let slot = self.0.evict();
            let block = self.0.slot_block[slot.index()];
            self.1.lock().unwrap().push((self.0.cursor, block));
            slot
        }
    }

    /// Every victim of `opg` replaying `t` through a `capacity`-block
    /// cache, in eviction order.
    fn victims(t: &Trace, capacity: usize, opg: Opg) -> Vec<(usize, BlockId)> {
        let log = std::sync::Arc::default();
        let policy = Box::new(Recorder(opg, std::sync::Arc::clone(&log)));
        let mut cache = BlockCache::new(capacity, policy, WritePolicy::WriteBack);
        let mut effects = Vec::new();
        for r in t {
            cache.access(r, |_| false, &mut effects);
        }
        drop(cache);
        std::sync::Arc::try_unwrap(log)
            .unwrap()
            .into_inner()
            .unwrap()
    }

    #[test]
    fn indexed_and_naive_evictions_agree_on_multi_block_shared_instants() {
        for seed in [0x5EED_0001u64, 0xC0FFEE, 0xB10C_B10C] {
            let t = multi_block_trace(seed, 600);
            for dpm in [OpgDpm::Oracle, OpgDpm::Practical] {
                for eps in [0.0, 5.0, 1e18] {
                    let build = || Opg::new(&t, power(), dpm, Joules::new(eps));
                    let fast = victims(&t, 20, build());
                    let slow = victims(&t, 20, build().with_naive_eviction());
                    assert!(fast.len() > 100, "{seed:#x}: too few evictions to compare");
                    assert_eq!(fast, slow, "{seed:#x} {dpm:?}/{eps}");
                }
            }
        }
    }

    /// FNV-1a over every victim's (accesses before it, disk, block number).
    fn victim_fold(victims: &[(usize, BlockId)]) -> u64 {
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for &(at, block) in victims {
            let words = [
                at as u64,
                u64::from(block.disk().index()),
                block.block().number(),
            ];
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                fold = (fold ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        fold
    }

    #[test]
    fn victims_on_a_cello_slice_are_pinned() {
        // Pinned before OPG moved from a per-access position space to a
        // per-disk instant space; any change to victim choice moves them.
        // At Cello's own 5.6 ms mean gap nearly every instant holds a
        // cold miss, so most penalties are 0 and OPG evicts like MIN; the
        // sparse slice gives the energy pricing room to decide.
        let dense = pc_trace::CelloConfig::default().with_requests(20_000);
        let sparse = pc_trace::CelloConfig {
            mean_gap: SimDuration::from_millis(800),
            ..dense.clone()
        };
        let pins = [
            (&dense, OpgDpm::Oracle, 55_569, 0x0cf0_3941_dbc8_45ee),
            (&dense, OpgDpm::Practical, 55_569, 0x0cf0_3941_dbc8_45ee),
            (&sparse, OpgDpm::Oracle, 56_020, 0xb0e9_9618_8261_da59),
            (&sparse, OpgDpm::Practical, 56_020, 0xaf90_9a9a_6067_3006),
        ];
        for (cello, dpm, count, fold) in pins {
            let t = cello.generate(42);
            let v = victims(&t, 2_048, Opg::new(&t, power(), dpm, Joules::ZERO));
            let mean_gap = cello.mean_gap;
            assert_eq!(
                (v.len(), victim_fold(&v)),
                (count, fold),
                "{dpm:?}, {mean_gap:?}"
            );
        }
    }

    #[test]
    fn prefers_evicting_blocks_whose_disk_is_active_anyway() {
        // Disk 0 has a dense stream of deterministic (cold) misses: its
        // blocks are cheap to evict. Disk 1 is quiet: re-fetching its
        // block would wake it. OPG must sacrifice disk 0's blocks.
        let mut accesses = vec![(0u64, 1u32, 500u64)]; // quiet disk's block
        for i in 0..30u64 {
            accesses.push((1 + i * 20, 0, i)); // cold stream on disk 0
        }
        accesses.push((611, 1, 500)); // re-access to the quiet disk
        accesses.push((612, 0, 0)); // disk-0 reuse (hits if retained)
        accesses.sort();
        let t = trace_of(2, &accesses);
        let mut cache = BlockCache::new(2, Box::new(opg(&t, 0.0)), WritePolicy::WriteBack);
        let mut victims = Vec::new();
        for r in &t {
            if let Some(v) = cache.access_alloc(r, |_| false).evicted {
                victims.push(v);
            }
        }
        assert!(
            victims.iter().all(|v| v.disk() == DiskId::new(0)),
            "only disk-0 blocks may be sacrificed, got {victims:?}"
        );
    }

    #[test]
    fn penalty_is_nonnegative_and_zero_on_det_instants() {
        let t = trace_of(1, &[(0, 0, 1), (100, 0, 2), (200, 0, 3)]);
        let mut o = opg(&t, 0.0);
        // Disk 0 has det misses at 0, 100 and 200 s (the cold set).
        let d = DiskId::new(0);
        assert_eq!(
            o.penalty_probe(d, SimTime::from_secs(100).as_micros(), false),
            0.0
        );
        let p = o.penalty_probe(d, SimTime::from_secs(150).as_micros(), false);
        assert!(p >= 0.0);
        // A miss right between two close det misses is cheap; one far from
        // any activity is expensive.
        let far = {
            o.clear_det(d);
            o.penalty_probe(d, SimTime::from_secs(10_000).as_micros(), false)
        };
        assert!(far > p, "far {far} vs between {p}");
    }

    #[test]
    fn probe_agrees_with_scan_pricing_bit_for_bit() {
        let accesses: Vec<(u64, u32, u64)> = (0..64u64).map(|i| (i * 9, 0, i % 11)).collect();
        let t = trace_of(1, &accesses);
        let d = DiskId::new(0);
        for dpm in [OpgDpm::Oracle, OpgDpm::Practical] {
            let o = Opg::new(&t, power(), dpm, Joules::ZERO);
            for x in (0..600).map(|s| SimTime::from_millis(s * 997).as_micros()) {
                assert_eq!(
                    o.penalty_probe(d, x, false).to_bits(),
                    o.penalty_probe(d, x, true).to_bits(),
                    "{dpm:?} probe at {x} µs"
                );
            }
        }
    }

    #[test]
    fn miss_counts_stay_close_to_belady_for_pure_opg() {
        // OPG trades misses for energy, but the paper's results rely on
        // the miss overhead staying modest.
        let accesses: Vec<(u64, u32, u64)> = (0..300u64)
            .map(|i| (i * 4, (i % 2) as u32, (i * 13 + i % 7) % 20))
            .collect();
        let t = trace_of(2, &accesses);
        let belady = count_misses(&t, 6, Box::new(Belady::new(&t)));
        let opg_misses = count_misses(&t, 6, Box::new(opg(&t, 0.0)));
        let lru = count_misses(&t, 6, Box::new(Lru::new()));
        assert!(opg_misses >= belady);
        assert!(
            opg_misses <= lru.max(belady * 2),
            "opg {opg_misses} belady {belady} lru {lru}"
        );
    }

    #[test]
    fn practical_pricing_mode_runs() {
        let accesses: Vec<(u64, u32, u64)> =
            (0..100u64).map(|i| (i * 7, 0, (i * 3) % 15)).collect();
        let t = trace_of(1, &accesses);
        let o = Opg::new(&t, power(), OpgDpm::Practical, Joules::ZERO);
        let misses = count_misses(&t, 4, Box::new(o));
        assert!(misses > 0);
    }

    #[test]
    fn name_reflects_configuration() {
        let t = trace_of(1, &[(0, 0, 1)]);
        assert!(opg(&t, 0.0).name().contains("oracle"));
        assert!(Opg::new(&t, power(), OpgDpm::Practical, Joules::ZERO)
            .name()
            .contains("practical"));
    }
}
