//! Trace characterization (the paper's Table 2).

use std::collections::HashSet;

use pc_units::SimDuration;

use crate::{IoOp, Trace};

/// Per-disk request statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiskStats {
    /// Requests addressed to this disk.
    pub requests: usize,
    /// Distinct blocks touched on this disk.
    pub unique_blocks: usize,
    /// Mean gap between consecutive requests to this disk.
    pub mean_interarrival: SimDuration,
}

/// Whole-trace statistics: the columns of the paper's Table 2 plus the
/// cold-miss fraction its §5.2 analysis quotes.
///
/// # Examples
///
/// ```
/// use pc_trace::{CelloConfig, TraceStats};
///
/// let trace = CelloConfig::default().with_requests(5_000).generate(1);
/// let stats = TraceStats::of(&trace);
/// assert_eq!(stats.disks, 19);
/// assert!(stats.cold_fraction > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceStats {
    /// Number of disks the trace addresses.
    pub disks: u32,
    /// Total request count.
    pub requests: usize,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// Mean gap between consecutive requests (whole trace).
    pub mean_interarrival: SimDuration,
    /// Fraction of requests that touch a block for the first time
    /// (the lower bound on any cache's miss ratio).
    pub cold_fraction: f64,
    /// Distinct blocks touched.
    pub unique_blocks: usize,
    /// Per-disk breakdown, indexed by disk.
    pub per_disk: Vec<DiskStats>,
}

impl TraceStats {
    /// Computes statistics for a trace.
    #[must_use]
    pub fn of(trace: &Trace) -> Self {
        let n = trace.len();
        let disks = trace.disk_count();
        let mut writes = 0usize;
        let mut seen = HashSet::with_capacity(n);
        let mut cold = 0usize;
        let mut per_disk = vec![DiskStats::default(); disks as usize];
        let mut last_per_disk = vec![None; disks as usize];
        let mut gap_sums = vec![SimDuration::ZERO; disks as usize];
        let mut gap_counts = vec![0u64; disks as usize];

        for r in trace {
            if r.op == IoOp::Write {
                writes += 1;
            }
            // A multi-block request is cold if *any* of its blocks is new
            // (an infinite cache would still have to touch the disk).
            let mut any_new = false;
            for offset in 0..r.blocks {
                let block = pc_units::BlockId::new(
                    r.block.disk(),
                    pc_units::BlockNo::new(r.block.block().number().wrapping_add(offset)),
                );
                any_new |= seen.insert(block);
            }
            if any_new {
                cold += 1;
            }
            let d = r.block.disk().as_usize();
            per_disk[d].requests += 1;
            if let Some(last) = last_per_disk[d] {
                gap_sums[d] += r.time - last;
                gap_counts[d] += 1;
            }
            last_per_disk[d] = Some(r.time);
        }

        let mut disk_unique = vec![HashSet::new(); disks as usize];
        for r in trace {
            for offset in 0..r.blocks {
                disk_unique[r.block.disk().as_usize()]
                    .insert(r.block.block().number().wrapping_add(offset));
            }
        }
        for (d, stats) in per_disk.iter_mut().enumerate() {
            stats.unique_blocks = disk_unique[d].len();
            stats.mean_interarrival = if gap_counts[d] > 0 {
                gap_sums[d] / gap_counts[d]
            } else {
                SimDuration::ZERO
            };
        }

        TraceStats {
            disks,
            requests: n,
            write_fraction: if n == 0 {
                0.0
            } else {
                writes as f64 / n as f64
            },
            mean_interarrival: if n > 1 {
                trace.duration() / (n as u64 - 1)
            } else {
                SimDuration::ZERO
            },
            cold_fraction: if n == 0 { 0.0 } else { cold as f64 / n as f64 },
            unique_blocks: seen.len(),
            per_disk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Record;
    use pc_units::{BlockId, BlockNo, DiskId, SimTime};

    fn rec(ms: u64, disk: u32, block: u64, op: IoOp) -> Record {
        Record::new(
            SimTime::from_millis(ms),
            BlockId::new(DiskId::new(disk), BlockNo::new(block)),
            op,
        )
    }

    #[test]
    fn counts_and_fractions() {
        let t = Trace::from_records(
            2,
            vec![
                rec(0, 0, 1, IoOp::Read),
                rec(10, 0, 1, IoOp::Write),
                rec(20, 1, 2, IoOp::Read),
                rec(30, 1, 3, IoOp::Read),
            ],
        );
        let s = TraceStats::of(&t);
        assert_eq!(s.requests, 4);
        assert_eq!(s.disks, 2);
        assert!((s.write_fraction - 0.25).abs() < 1e-12);
        assert!((s.cold_fraction - 0.75).abs() < 1e-12);
        assert_eq!(s.unique_blocks, 3);
        assert_eq!(s.mean_interarrival, SimDuration::from_millis(10));
        assert_eq!(s.per_disk[0].requests, 2);
        assert_eq!(s.per_disk[0].unique_blocks, 1);
        assert_eq!(
            s.per_disk[0].mean_interarrival,
            SimDuration::from_millis(10)
        );
        assert_eq!(
            s.per_disk[1].mean_interarrival,
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::of(&Trace::new(3));
        assert_eq!(s.requests, 0);
        assert_eq!(s.write_fraction, 0.0);
        assert_eq!(s.cold_fraction, 0.0);
        assert_eq!(s.per_disk.len(), 3);
    }

    #[test]
    fn same_block_different_disks_counts_twice() {
        let t = Trace::from_records(2, vec![rec(0, 0, 7, IoOp::Read), rec(1, 1, 7, IoOp::Read)]);
        let s = TraceStats::of(&t);
        assert_eq!(s.unique_blocks, 2);
        assert!((s.cold_fraction - 1.0).abs() < 1e-12);
    }
}
