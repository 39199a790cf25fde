//! Pre-computed future knowledge for off-line policies (Belady, OPG).

use rustc_hash::FxHashMap;

use pc_trace::Trace;

/// Index position of an access within a trace; `NO_NEXT` marks "never
/// accessed again".
pub(crate) const NO_NEXT: u32 = u32::MAX;

/// Future knowledge for one trace: for every block access, the index of
/// the next access to the same block.
///
/// Off-line policies are constructed from the same [`Trace`] they will be
/// driven with and track their position by counting
/// [`on_access`](crate::ReplacementPolicy::on_access) calls. Multi-block
/// records expand into one access per block, in block order — exactly the
/// order [`BlockCache`](crate::BlockCache) drives its policy in.
///
/// The index holds 4 bytes per block access. Building it adds 4 bytes per
/// record and one disk's block map: records are grouped by disk in one
/// counting pass, and each disk's accesses are then linked in trace order
/// through a map of that disk's block numbers only, so no map ever holds
/// the whole trace's distinct blocks and the work is O(block accesses)
/// for any number of disks.
///
/// # Examples
///
/// ```
/// use pc_cache::OfflineIndex;
/// use pc_trace::{IoOp, Record, Trace};
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let blk = |n| BlockId::new(DiskId::new(0), BlockNo::new(n));
/// let mut t = Trace::new(1);
/// t.push(Record::new(SimTime::from_secs(0), blk(1), IoOp::Read));
/// t.push(Record::new(SimTime::from_secs(1), blk(2), IoOp::Read));
/// t.push(Record::new(SimTime::from_secs(2), blk(1), IoOp::Read));
/// let idx = OfflineIndex::build(&t);
/// assert_eq!(idx.next_occurrence(0), Some(2)); // block 1 recurs at index 2
/// assert_eq!(idx.next_occurrence(1), None); // block 2 never recurs
/// ```
#[derive(Debug, Clone)]
pub struct OfflineIndex {
    /// `next[i]` = index of the next access to the same block, or
    /// `NO_NEXT`.
    next: Vec<u32>,
}

impl OfflineIndex {
    /// Builds the index in O(block accesses + disks).
    ///
    /// # Panics
    ///
    /// Panics if the trace expands to more than `u32::MAX − 1` accesses.
    #[must_use]
    pub fn build(trace: &Trace) -> Self {
        let n: u64 = trace.iter().map(|r| r.blocks).sum();
        assert!(n < u64::from(NO_NEXT), "trace too long for offline index");
        // `starts[d]..starts[d + 1]` will hold disk d's records.
        let mut starts = vec![0usize; trace.disk_count() as usize + 1];
        for r in trace {
            starts[r.block.disk().as_usize() + 1] += 1;
        }
        for d in 1..starts.len() {
            starts[d] += starts[d - 1];
        }
        // Each record's first access index, grouped by disk in trace
        // order. Until its disk is linked, `next` at that index holds
        // the record's own index.
        let mut next = vec![NO_NEXT; n as usize];
        let mut by_disk = vec![0u32; trace.len()];
        let mut fill = starts.clone();
        let mut first = 0u32;
        for (r, rec) in trace.iter().enumerate() {
            let d = rec.block.disk().as_usize();
            by_disk[fill[d]] = first;
            fill[d] += 1;
            next[first as usize] = r as u32;
            first += rec.blocks as u32;
        }
        let records = trace.records();
        let mut last_seen: FxHashMap<u64, u32> = FxHashMap::default();
        for disk in starts.windows(2) {
            last_seen.clear();
            for &first in &by_disk[disk[0]..disk[1]] {
                let rec = &records[next[first as usize] as usize];
                next[first as usize] = NO_NEXT;
                let number = rec.block.block().number();
                for offset in 0..rec.blocks as u32 {
                    let i = first + offset;
                    if let Some(prev) = last_seen.insert(number.wrapping_add(u64::from(offset)), i)
                    {
                        next[prev as usize] = i;
                    }
                }
            }
        }
        OfflineIndex { next }
    }

    /// Number of accesses indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Returns `true` for an empty trace.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// The index of the next access to the same block as access `i`, if
    /// any.
    #[must_use]
    pub fn next_occurrence(&self, i: usize) -> Option<usize> {
        match self.next[i] {
            NO_NEXT => None,
            j => Some(j as usize),
        }
    }

    /// Raw next link (`NO_NEXT` sentinel form), for hot paths.
    #[must_use]
    pub(crate) fn next_raw(&self, i: usize) -> u32 {
        self.next[i]
    }

    /// A bitset over access indices (bit `i % 64` of word `i / 64`) of
    /// each block's first access: `i` is a first access iff no access
    /// links to it.
    #[must_use]
    pub(crate) fn first_accesses(&self) -> Vec<u64> {
        let mut bits = vec![!0u64; self.next.len().div_ceil(64)];
        for &j in &self.next {
            if j != NO_NEXT {
                bits[j as usize / 64] &= !(1 << (j % 64));
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_trace::{IoOp, Record};
    use pc_units::{BlockId, BlockNo, DiskId, SimTime};

    fn trace_of(blocks: &[u64]) -> Trace {
        let mut t = Trace::new(1);
        for (i, &b) in blocks.iter().enumerate() {
            t.push(Record::new(
                SimTime::from_secs(i as u64),
                BlockId::new(DiskId::new(0), BlockNo::new(b)),
                IoOp::Read,
            ));
        }
        t
    }

    fn firsts(idx: &OfflineIndex) -> Vec<bool> {
        let bits = idx.first_accesses();
        (0..idx.len())
            .map(|i| bits[i / 64] & (1 << (i % 64)) != 0)
            .collect()
    }

    #[test]
    fn links_repeated_blocks() {
        let idx = OfflineIndex::build(&trace_of(&[5, 6, 5, 6, 5]));
        assert_eq!(idx.next_occurrence(0), Some(2));
        assert_eq!(idx.next_occurrence(2), Some(4));
        assert_eq!(idx.next_occurrence(4), None);
        assert_eq!(idx.next_occurrence(1), Some(3));
    }

    #[test]
    fn flags_first_appearances() {
        let idx = OfflineIndex::build(&trace_of(&[1, 2, 1, 3]));
        assert_eq!(firsts(&idx), [true, true, false, true]);
        assert_eq!(idx.next_occurrence(0), Some(2));
        assert_eq!(idx.next_occurrence(3), None);
    }

    #[test]
    fn counts_one_access_per_block() {
        // Block 1 as a one-block record, then blocks 0–2 as one record:
        // four accesses, and the record's second block links back to the
        // first record.
        let mut t = trace_of(&[1]);
        let mut r = Record::new(
            SimTime::from_secs(1),
            BlockId::new(DiskId::new(0), BlockNo::new(0)),
            IoOp::Read,
        );
        r.blocks = 3;
        t.push(r);
        let idx = OfflineIndex::build(&t);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.next_occurrence(0), Some(2));
        assert_eq!(firsts(&idx), [true, true, false, true]);
    }

    #[test]
    fn the_same_block_number_on_two_disks_does_not_link() {
        let blk = |d, b| BlockId::new(DiskId::new(d), BlockNo::new(b));
        let mut t = Trace::new(3);
        for (s, d, b) in [(0, 0, 7), (1, 1, 7), (2, 2, 7), (3, 1, 7), (4, 0, 7)] {
            t.push(Record::new(SimTime::from_secs(s), blk(d, b), IoOp::Read));
        }
        let idx = OfflineIndex::build(&t);
        assert_eq!(idx.next_occurrence(0), Some(4));
        assert_eq!(idx.next_occurrence(1), Some(3));
        assert_eq!(idx.next_occurrence(2), None);
        assert_eq!(firsts(&idx), [true, true, true, false, false]);
    }

    #[test]
    fn many_disks_build_in_one_pass_over_the_accesses() {
        // One record per disk over 200 000 disks, then one repeat each in
        // reverse disk order: a build that walked the whole trace once
        // per disk would take 8·10¹⁰ steps here.
        let disks = 200_000u32;
        let blk = |d| BlockId::new(DiskId::new(d), BlockNo::new(u64::from(d)));
        let mut t = Trace::new(disks);
        for d in (0..disks).chain((0..disks).rev()) {
            t.push(Record::new(SimTime::ZERO, blk(d), IoOp::Read));
        }
        let idx = OfflineIndex::build(&t);
        let n = 2 * disks as usize;
        for d in 0..disks as usize {
            assert_eq!(idx.next_occurrence(d), Some(n - 1 - d));
            assert_eq!(idx.next_occurrence(n - 1 - d), None);
        }
    }
}
