//! Streaming trace surgery: filter, slice, merge, and rescale `.pct`
//! files in constant memory.
//!
//! Every operator reads through [`MappedTrace`] (lazy per-chunk CRC
//! verification, no materialized `Vec`) and writes through
//! [`TraceFileWriter`] (chunked, CRC-footed, record count patched into
//! the header on finish), so surgery on a multi-GB corpus holds one
//! chunk's worth of write buffer and nothing else, and every output
//! re-validates through the same [`MappedTrace`] decoder.
//!
//! The `repro trace filter|slice|merge|rescale` subcommands are thin
//! argument parsers over these functions.

use std::io;
use std::path::Path;

use pc_trace::{IoOp, Record};
use pc_tracefile::{MappedTrace, TraceFileWriter};
use pc_units::SimTime;

/// Counters every operator reports: records examined and records kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurgeryStats {
    /// Records read from the input(s).
    pub read: u64,
    /// Records written to the output.
    pub written: u64,
}

/// Predicates for [`filter`]; unset fields match everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterSpec {
    /// Keep only records addressing this disk.
    pub disk: Option<u32>,
    /// Keep only reads or only writes.
    pub op: Option<IoOp>,
    /// Keep only records at or after this time.
    pub from: Option<SimTime>,
    /// Keep only records strictly before this time.
    pub until: Option<SimTime>,
}

impl FilterSpec {
    fn matches(&self, r: &Record) -> bool {
        self.disk.is_none_or(|d| r.block.disk().index() == d)
            && self.op.is_none_or(|op| r.op == op)
            && self.from.is_none_or(|t| r.time >= t)
            && self.until.is_none_or(|t| r.time < t)
    }
}

/// Bounds for [`slice()`]: a record range, a time range, or both
/// (intersected). Unset fields are unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceSpec {
    /// Skip this many records (in file order) before keeping any.
    pub skip: u64,
    /// Keep at most this many records.
    pub take: Option<u64>,
    /// Keep only records at or after this time.
    pub from: Option<SimTime>,
    /// Keep only records strictly before this time.
    pub until: Option<SimTime>,
}

/// Copies the records of `input` matching `spec` to `output`.
///
/// The output keeps the input's disk geometry, so record indices stay
/// valid and a filtered file replays against the same array shape.
///
/// # Errors
///
/// Returns any read-side validation error (CRC, structure, fields) or
/// write-side I/O error.
pub fn filter<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    spec: &FilterSpec,
) -> io::Result<SurgeryStats> {
    let map = MappedTrace::open(input)?;
    let mut w = TraceFileWriter::create(output, map.disk_count())?;
    let mut read = 0u64;
    for record in map.records() {
        let record = record?;
        read += 1;
        if spec.matches(&record) {
            w.push(record)?;
        }
    }
    let written = w.finish()?;
    Ok(SurgeryStats { read, written })
}

/// Copies the record/time range `spec` of `input` to `output`.
///
/// # Errors
///
/// Returns any read-side validation error or write-side I/O error.
pub fn slice<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    spec: &SliceSpec,
) -> io::Result<SurgeryStats> {
    let map = MappedTrace::open(input)?;
    let mut w = TraceFileWriter::create(output, map.disk_count())?;
    let mut read = 0u64;
    let mut kept = 0u64;
    for record in map.records() {
        let record = record?;
        read += 1;
        if read <= spec.skip {
            continue;
        }
        if spec.take.is_some_and(|n| kept >= n) {
            // The record range is exhausted; nothing later can match.
            break;
        }
        if spec.from.is_some_and(|t| record.time < t)
            || spec.until.is_some_and(|t| record.time >= t)
        {
            continue;
        }
        w.push(record)?;
        kept += 1;
    }
    let written = w.finish()?;
    Ok(SurgeryStats { read, written })
}

/// One input's cursor in the [`merge`] heap, ordered by (time, input
/// index, position) so ties break deterministically: earlier inputs
/// first, then file order within an input.
struct MergeHead {
    time: SimTime,
    input: usize,
    pos: u64,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.input, self.pos) == (other.time, other.input, other.pos)
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and the merge wants the
        // minimum (earliest) head on top.
        (other.time, other.input, other.pos).cmp(&(self.time, self.input, self.pos))
    }
}

/// K-way time-ordered merge of `inputs` into `output`.
///
/// Every input must already be time-sorted (exports and surgery outputs
/// are); the output's disk count is the maximum of the inputs', so every
/// record stays in geometry. Ties keep input order, so the merge is
/// deterministic and stable.
///
/// # Errors
///
/// Returns `InvalidInput` for an empty input list, `InvalidData` if an
/// input is not time-sorted, and any read-side validation or write-side
/// I/O error.
pub fn merge<P: AsRef<Path>, Q: AsRef<Path>>(inputs: &[P], output: Q) -> io::Result<SurgeryStats> {
    if inputs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "merge needs at least one input trace",
        ));
    }
    let mut maps = Vec::with_capacity(inputs.len());
    for input in inputs {
        let map = MappedTrace::open(input)?;
        if !map.is_time_sorted() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "merge input {} is not time-sorted",
                    input.as_ref().display()
                ),
            ));
        }
        maps.push(map);
    }
    let disk_count = maps.iter().map(MappedTrace::disk_count).max().unwrap();
    let mut w = TraceFileWriter::create(output, disk_count)?;
    let mut heap = std::collections::BinaryHeap::with_capacity(maps.len());
    for (input, map) in maps.iter().enumerate() {
        if !map.is_empty() {
            heap.push(MergeHead {
                time: map.get(0)?.time,
                input,
                pos: 0,
            });
        }
    }
    let mut written = 0u64;
    while let Some(head) = heap.pop() {
        let map = &maps[head.input];
        w.push(map.get(head.pos)?)?;
        written += 1;
        let next = head.pos + 1;
        if next < map.len() {
            heap.push(MergeHead {
                time: map.get(next)?.time,
                input: head.input,
                pos: next,
            });
        }
    }
    let total = w.finish()?;
    debug_assert_eq!(total, written);
    Ok(SurgeryStats {
        read: written,
        written,
    })
}

/// Copies `input` to `output` with every timestamp multiplied by
/// `factor` (rounded to the microsecond): `factor < 1` compresses the
/// trace in time (denser load), `factor > 1` dilates it. Monotonic
/// scaling preserves time order.
///
/// # Errors
///
/// Returns `InvalidInput` for a non-positive or non-finite factor, and
/// any read-side validation or write-side I/O error.
pub fn rescale<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    factor: f64,
) -> io::Result<SurgeryStats> {
    if !(factor.is_finite() && factor > 0.0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("rescale factor must be positive and finite, got {factor}"),
        ));
    }
    let map = MappedTrace::open(input)?;
    let mut w = TraceFileWriter::create(output, map.disk_count())?;
    let mut read = 0u64;
    for record in map.records() {
        let mut record = record?;
        read += 1;
        let micros = record.time.as_micros() as f64 * factor;
        record.time = SimTime::from_micros(micros.round() as u64);
        w.push(record)?;
    }
    let written = w.finish()?;
    Ok(SurgeryStats { read, written })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_trace::Workload;
    use pc_tracefile::read_trace;
    use std::path::PathBuf;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pc-surgery-{tag}-{}.pct", std::process::id()))
    }

    fn export(tag: &str, family: &str, requests: usize, seed: u64) -> PathBuf {
        let path = temp(tag);
        let workload = Workload::parse(family).unwrap().with_requests(requests);
        pc_tracefile::write_records(&path, workload.disk_count(), workload.stream(seed)).unwrap();
        path
    }

    #[test]
    fn filter_keeps_exactly_the_matching_records() {
        let input = export("filter-in", "oltp", 2_000, 7);
        let output = temp("filter-out");
        let stats = filter(
            &input,
            &output,
            &FilterSpec {
                disk: Some(3),
                op: Some(IoOp::Read),
                ..FilterSpec::default()
            },
        )
        .unwrap();
        assert_eq!(stats.read, 2_000);
        let back = read_trace(&output).unwrap();
        assert_eq!(back.len() as u64, stats.written);
        assert!(stats.written > 0, "disk 3 must see some reads");
        assert!(back
            .iter()
            .all(|r| r.block.disk().index() == 3 && r.op == IoOp::Read));
        // Geometry is preserved, not shrunk to the surviving disks.
        assert_eq!(back.disk_count(), 21);
        std::fs::remove_file(&input).unwrap();
        std::fs::remove_file(&output).unwrap();
    }

    #[test]
    fn slice_honors_record_and_time_bounds_together() {
        let input = export("slice-in", "synthetic", 1_000, 3);
        let full = read_trace(&input).unwrap();
        let output = temp("slice-out");
        let stats = slice(
            &input,
            &output,
            &SliceSpec {
                skip: 100,
                take: Some(250),
                ..SliceSpec::default()
            },
        )
        .unwrap();
        assert_eq!(stats.written, 250);
        let back = read_trace(&output).unwrap();
        assert_eq!(back.records(), &full.records()[100..350]);

        // A pure time window: bounds are [from, until).
        let mid = full.records()[500].time;
        let stats = slice(
            &input,
            &output,
            &SliceSpec {
                until: Some(mid),
                ..SliceSpec::default()
            },
        )
        .unwrap();
        let back = read_trace(&output).unwrap();
        assert_eq!(back.len() as u64, stats.written);
        assert!(back.iter().all(|r| r.time < mid));
        std::fs::remove_file(&input).unwrap();
        std::fs::remove_file(&output).unwrap();
    }

    #[test]
    fn merge_interleaves_time_ordered_and_stable() {
        let a = export("merge-a", "synthetic", 400, 1);
        let b = export("merge-b", "synthetic", 600, 2);
        let output = temp("merge-out");
        let stats = merge(&[&a, &b], &output).unwrap();
        assert_eq!(stats.written, 1_000);
        let back = read_trace(&output).unwrap();
        assert_eq!(back.len(), 1_000);
        // The merge must emit non-decreasing times in file order.
        assert!(MappedTrace::open(&output).unwrap().is_time_sorted());
        // Merging a file with an empty one is the identity.
        let empty = temp("merge-empty");
        pc_tracefile::write_records(&empty, 8, std::iter::empty()).unwrap();
        let id_out = temp("merge-id");
        let stats = merge(&[&a, &empty], &id_out).unwrap();
        assert_eq!(stats.written, 400);
        assert_eq!(
            read_trace(&id_out).unwrap().records(),
            read_trace(&a).unwrap().records()
        );
        for p in [a, b, output, empty, id_out] {
            std::fs::remove_file(&p).unwrap();
        }
    }

    #[test]
    fn rescale_dilates_time_and_round_trips() {
        let input = export("rescale-in", "cello96", 800, 5);
        let output = temp("rescale-out");
        let stats = rescale(&input, &output, 2.0).unwrap();
        assert_eq!(stats.read, 800);
        assert_eq!(stats.written, 800);
        let orig = read_trace(&input).unwrap();
        let back = read_trace(&output).unwrap();
        for (o, b) in orig.iter().zip(back.iter()) {
            assert_eq!(b.time.as_micros(), o.time.as_micros() * 2);
            assert_eq!((b.block, b.blocks, b.op), (o.block, o.blocks, o.op));
        }
        assert!(rescale(&input, &output, 0.0).is_err());
        assert!(rescale(&input, &output, f64::NAN).is_err());
        std::fs::remove_file(&input).unwrap();
        std::fs::remove_file(&output).unwrap();
    }
}
