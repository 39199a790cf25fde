//! WTDU's persistent log and crash-recovery protocol (paper §6).
//!
//! Write-through with deferred update avoids spinning up a sleeping disk
//! for writes by appending them to a per-disk *log region* on an
//! always-active persistent device. Persistence across crashes is
//! guaranteed by a timestamp protocol:
//!
//! * The first block of each region stores the region's current
//!   timestamp; every logged block is stamped with that value.
//! * When the destination disk becomes active, the (newer) cache copies of
//!   all logged blocks are flushed to the disk, the region timestamp is
//!   incremented, and the region's free pointer resets.
//! * Recovery scans each region: entries whose stamp equals the region's
//!   stamp may not have reached the data disk yet and are replayed;
//!   entries with older stamps were already flushed and are ignored.
//!
//! [`LogSpace`] models the log contents exactly (including block values,
//! so tests can verify recovered data), and [`LogSpace::recover`]
//! implements the replay scan.

use rustc_hash::FxHashMap;

use pc_units::{BlockId, BlockNo, DiskId};

/// One entry in a log region: a deferred write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Destination block on the data disk.
    pub block: BlockNo,
    /// Region timestamp at append time.
    pub stamp: u64,
    /// The written value (modelled as a version counter for testing).
    pub value: u64,
}

/// One disk's log region.
///
/// The region's space is reused: a flush resets the free pointer, and
/// the next generation's appends overwrite from the start. Entries past
/// the pointer are stale ones from earlier generations; they stay on the
/// device, carrying older stamps, so recovery ignores them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogRegion {
    /// Current region timestamp (stored in the region's first block).
    pub stamp: u64,
    /// The region's written space. `entries[..free]` is the current
    /// generation; the rest hold older stamps.
    pub entries: Vec<LogEntry>,
    /// The free pointer: where the next append lands.
    pub free: usize,
}

/// The whole log device: one region per data disk.
///
/// # Examples
///
/// ```
/// use pc_cache::wtdu::LogSpace;
/// use pc_units::{BlockNo, DiskId};
///
/// let mut log = LogSpace::new(2);
/// log.append(DiskId::new(0), BlockNo::new(5), 101);
/// // Crash before the disk wakes: the write must be replayed.
/// let replay = log.recover();
/// assert_eq!(replay.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSpace {
    regions: Vec<LogRegion>,
    appends: u64,
}

impl LogSpace {
    /// Creates a log with one region per disk, all at timestamp 0.
    #[must_use]
    pub fn new(disks: u32) -> Self {
        LogSpace {
            regions: (0..disks).map(|_| LogRegion::default()).collect(),
            appends: 0,
        }
    }

    /// Number of regions (disks).
    #[must_use]
    pub fn disk_count(&self) -> u32 {
        self.regions.len() as u32
    }

    /// Appends a deferred write for `disk`/`block` carrying `value` at
    /// the region's free pointer, stamped with the region's current
    /// timestamp. A `disk` past the last region adds regions up to it.
    pub fn append(&mut self, disk: DiskId, block: BlockNo, value: u64) {
        let i = disk.as_usize();
        if i >= self.regions.len() {
            self.regions.resize_with(i + 1, LogRegion::default);
        }
        let region = &mut self.regions[i];
        let entry = LogEntry {
            block,
            stamp: region.stamp,
            value,
        };
        match region.entries.get_mut(region.free) {
            Some(stale) => *stale = entry,
            None => region.entries.push(entry),
        }
        region.free += 1;
        self.appends += 1;
    }

    /// Completes a flush of `disk`'s region: the data disk now holds
    /// everything, so the timestamp increments and the free pointer
    /// resets. The flushed entries stay on the device with their now
    /// stale stamps until the next generation overwrites them.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range.
    pub fn flush_region(&mut self, disk: DiskId) {
        let region = &mut self.regions[disk.as_usize()];
        region.stamp += 1;
        region.free = 0;
    }

    /// Number of entries appended since `disk`'s last flush.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range.
    #[must_use]
    pub fn pending(&self, disk: DiskId) -> usize {
        let region = &self.regions[disk.as_usize()];
        region
            .entries
            .iter()
            .filter(|e| e.stamp == region.stamp)
            .count()
    }

    /// Total appends over the log's lifetime (each costs one log-device
    /// write).
    #[must_use]
    pub fn total_appends(&self) -> u64 {
        self.appends
    }

    /// Crash recovery: returns the writes that must be replayed to the
    /// data disks — exactly the entries whose stamp equals their region's
    /// current stamp. For multiple pending writes to the same block, the
    /// latest value wins.
    #[must_use]
    pub fn recover(&self) -> Vec<(BlockId, u64)> {
        let mut latest: FxHashMap<BlockId, u64> = FxHashMap::default();
        let mut order: Vec<BlockId> = Vec::new();
        for (d, region) in self.regions.iter().enumerate() {
            for e in &region.entries {
                if e.stamp == region.stamp {
                    let id = BlockId::new(DiskId::new(d as u32), e.block);
                    if latest.insert(id, e.value).is_none() {
                        order.push(id);
                    }
                }
            }
        }
        order.into_iter().map(|id| (id, latest[&id])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DiskId {
        DiskId::new(i)
    }

    fn b(i: u64) -> BlockNo {
        BlockNo::new(i)
    }

    #[test]
    fn pending_counts_only_current_stamp() {
        let mut log = LogSpace::new(1);
        log.append(d(0), b(1), 10);
        log.append(d(0), b(2), 20);
        assert_eq!(log.pending(d(0)), 2);
        log.flush_region(d(0));
        assert_eq!(log.pending(d(0)), 0);
        log.append(d(0), b(3), 30);
        assert_eq!(log.pending(d(0)), 1);
    }

    #[test]
    fn recovery_replays_unflushed_entries_only() {
        let mut log = LogSpace::new(2);
        log.append(d(0), b(1), 10);
        log.flush_region(d(0)); // flushed: must not replay
        log.append(d(0), b(2), 20); // pending on disk 0
        log.append(d(1), b(9), 90); // pending on disk 1
        let replay = log.recover();
        assert_eq!(replay.len(), 2);
        assert!(replay.contains(&(BlockId::new(d(0), b(2)), 20)));
        assert!(replay.contains(&(BlockId::new(d(1), b(9)), 90)));
    }

    #[test]
    fn recovery_takes_latest_value_per_block() {
        let mut log = LogSpace::new(1);
        log.append(d(0), b(5), 1);
        log.append(d(0), b(5), 2);
        log.append(d(0), b(5), 3);
        assert_eq!(log.recover(), vec![(BlockId::new(d(0), b(5)), 3)]);
    }

    #[test]
    fn clean_shutdown_recovers_nothing() {
        let mut log = LogSpace::new(3);
        log.append(d(2), b(7), 70);
        log.flush_region(d(2));
        assert!(log.recover().is_empty());
    }

    #[test]
    fn stamps_isolate_flush_generations() {
        let mut log = LogSpace::new(1);
        for round in 0..5u64 {
            log.append(d(0), b(round), round * 100);
            log.flush_region(d(0));
        }
        // Every generation flushed: nothing to replay despite 5 entries
        // physically present.
        assert!(log.recover().is_empty());
        assert_eq!(log.total_appends(), 5);
        // One more write in the live generation is recoverable.
        log.append(d(0), b(42), 4_242);
        assert_eq!(log.recover(), vec![(BlockId::new(d(0), b(42)), 4_242)]);
    }

    #[test]
    fn flushed_space_is_reused_and_stale_entries_stay_ignored() {
        let mut log = LogSpace::new(1);
        let mut high_water = 0;
        let mut stale_tails = 0;
        let mut value = 0;
        for generation in 0..50u64 {
            // Generations of 1 to 7 appends, so a short one often sits
            // in front of a longer one's stale tail.
            let len = 1 + (generation * 5) % 7;
            for i in 0..len {
                value += 1;
                log.append(d(0), b(generation * 10 + i), value);
            }
            high_water = high_water.max(log.pending(d(0)));
            let space = log.regions[0].entries.len();
            assert!(
                space <= high_water,
                "{space} entries, high water {high_water}"
            );
            if space > log.pending(d(0)) {
                stale_tails += 1;
            }
            let replay = log.recover();
            assert_eq!(replay.len(), len as usize);
            assert!(replay
                .iter()
                .all(|(id, _)| id.block().number() / 10 == generation));
            log.flush_region(d(0));
            assert!(log.recover().is_empty());
        }
        assert!(stale_tails > 0, "no generation left a stale tail");
        assert_eq!(log.regions[0].entries.len(), 7);
        assert_eq!(log.total_appends(), value);
    }

    #[test]
    fn append_past_the_last_region_grows_the_log_in_place() {
        let mut log = LogSpace::new(1);
        log.append(d(0), b(1), 10);
        log.flush_region(d(0));
        log.append(d(0), b(1), 11);
        log.append(d(0), b(1), 12);
        log.append(d(5), b(2), 50);
        assert_eq!(log.disk_count(), 6);
        assert_eq!(log.regions[0].stamp, 1);
        assert_eq!(log.pending(d(0)), 2);
        assert_eq!(log.total_appends(), 4);
        assert_eq!(
            log.recover(),
            vec![
                (BlockId::new(d(0), b(1)), 12),
                (BlockId::new(d(5), b(2)), 50)
            ]
        );
    }
}
