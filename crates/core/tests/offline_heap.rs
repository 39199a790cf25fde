//! Pins the heap footprint of the off-line policies. The workspace's
//! counting allocator (`pc-allocmeter`) tracks this thread's live bytes
//! and their high-water mark; each test measures one policy's
//! construction (and, for OPG, a whole replay) against a budget stated
//! in bytes per block access, per (disk, arrival time) *instant*, and
//! per entry of the largest disk's block map.
//!
//! The budgets:
//!
//! - OPG at steady state: 8 B per access (the next link and the
//!   instant) plus 16 B per instant (arrival time, deterministic-miss
//!   count, resident-bucket head) plus the two per-instant bitsets, plus
//!   O(cache + disks). While building it may add 4 B per access and one
//!   disk's map.
//! - Belady keeps 4 B per access (the next link). Its build adds 4 B per
//!   record (the record offsets grouped by disk) and one disk's map.
//!
//! Measured on this trace before OPG moved to the instant space, when
//! the index also kept every access's time and first-sighting flag, OPG
//! kept nine per-access arrays and the build went through one map entry
//! per distinct block of the whole trace:
//!
//! - `Opg::new` retained 8 488 172 B (47.1 B per access, 275.1 B per
//!   instant) and peaked at 8 615 708 B (47.8 B per access) over
//!   construction and replay. Now: 1 946 528 B retained (10.8 B per
//!   access) and a 2 073 968 B peak (11.5 B per access).
//! - `Belady::new` retained 2 343 692 B (13.0 B per access) and peaked at
//!   3 572 524 B (19.8 B per access). Now: 721 136 B (4.0 B per access)
//!   and 985 688 B (5.5 B per access).

use std::collections::HashSet;

use pc_allocmeter::{measure, Usage};
use pc_cache::policy::{Belady, Opg, OpgDpm};
use pc_cache::{BlockCache, WritePolicy};
use pc_diskmodel::{DiskPowerSpec, PowerModel};
use pc_trace::{IoOp, Record, Trace};
use pc_units::{BlockId, BlockNo, DiskId, Joules, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pc_allocmeter::install!();

const DISKS: u32 = 8;

/// 40 000 seeded records of 1–8 blocks on 8 disks, about three per
/// millisecond tick, over 3 000 block numbers per disk: many block
/// accesses share an instant, as on Cello.
fn trace() -> Trace {
    let mut rng = StdRng::seed_from_u64(0x0FF1_13E5);
    let mut t = Trace::new(DISKS);
    let mut ms = 0;
    for _ in 0..40_000 {
        ms += u64::from(rng.gen_bool(0.3));
        let block = BlockId::new(
            DiskId::new(rng.gen_range(0..DISKS)),
            BlockNo::new(rng.gen_range(0..3_000u64)),
        );
        let mut r = Record::new(SimTime::from_millis(ms), block, IoOp::Read);
        r.blocks = rng.gen_range(1..9u64);
        t.push(r);
    }
    t
}

/// What the budgets are stated in.
struct Shape {
    records: usize,
    accesses: usize,
    /// Distinct (disk, arrival time) pairs, per disk.
    instants: Vec<usize>,
    /// The most distinct blocks on any one disk.
    largest_disk: usize,
}

impl Shape {
    fn of(t: &Trace) -> Shape {
        let disks = t.disk_count() as usize;
        let mut instants = vec![0; disks];
        let mut last = vec![None; disks];
        let mut distinct = vec![HashSet::new(); disks];
        for r in t {
            let d = r.block.disk().as_usize();
            if last[d] != Some(r.time) {
                last[d] = Some(r.time);
                instants[d] += 1;
            }
            let first = r.block.block().number();
            distinct[d].extend(first..first + r.blocks);
        }
        Shape {
            records: t.len(),
            accesses: t.iter().map(|r| r.blocks as usize).sum(),
            instants,
            largest_disk: distinct.iter().map(HashSet::len).max().unwrap_or(0),
        }
    }

    fn total_instants(&self) -> usize {
        self.instants.iter().sum()
    }

    /// Two bitsets per disk over its instants, with their 1/64 summary
    /// layers and a few words of rounding each.
    fn bitsets(&self) -> usize {
        let one = |m: usize| 8 * (m.div_ceil(64) + m.div_ceil(4096) + 3) + 24 * 3;
        self.instants.iter().map(|&m| 2 * one(m)).sum()
    }

    /// A `FxHashMap<u64, u32>` holding one disk's blocks (16-byte buckets
    /// plus a control byte, at most 7/8 full, power-of-two sized), half
    /// as much again for the old table while it grows.
    fn one_disk_map(&self) -> usize {
        let buckets = (self.largest_disk * 8 / 7 + 1).next_power_of_two();
        (buckets * 17 + 16) * 3 / 2
    }

    fn per_access(&self, bytes: usize) -> f64 {
        bytes as f64 / self.accesses as f64
    }

    fn per_instant(&self, bytes: usize) -> f64 {
        bytes as f64 / self.total_instants() as f64
    }
}

/// Bytes per disk beyond the per-instant arrays: vector headers, the
/// last-active time and the build's per-disk counters.
const PER_DISK: usize = 512;

#[test]
fn opg_stays_within_eight_bytes_per_access_and_sixteen_per_instant() {
    let t = trace();
    let shape = Shape::of(&t);
    let capacity = 512;
    let power = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());

    let (retained, Usage { peak, .. }) = measure(|| {
        let (opg, built) = measure(|| Opg::new(&t, power, OpgDpm::Oracle, Joules::ZERO));
        let mut cache = BlockCache::new(capacity, Box::new(opg), WritePolicy::WriteBack);
        let mut effects = Vec::new();
        for r in &t {
            cache.access(r, |_| false, &mut effects);
        }
        built.retained
    });

    let steady = 8 * shape.accesses
        + 16 * shape.total_instants()
        + shape.bitsets()
        + PER_DISK * DISKS as usize;
    // The cache's table and OPG's slot arrays and heap: well under 256 B
    // per cached block.
    let replay = 256 * capacity;
    let build = 4 * shape.accesses + shape.one_disk_map();
    let report = |what: &str, bytes: usize, budget: usize| {
        format!(
            "{what}: {bytes} B ({:.1} B/access, {:.1} B/instant) over a budget of {budget} B \
             ({} accesses, {} instants, {} records, largest disk {} blocks)",
            shape.per_access(bytes),
            shape.per_instant(bytes),
            shape.accesses,
            shape.total_instants(),
            shape.records,
            shape.largest_disk,
        )
    };
    let retained_line = report("Opg::new retained", retained, steady);
    let peak_line = report("Opg::new + replay peak", peak, steady + replay + build);
    eprintln!("{retained_line}\n{peak_line}");
    assert!(retained <= steady, "{retained_line}");
    assert!(peak <= steady + replay + build, "{peak_line}");
}

#[test]
fn belady_keeps_four_bytes_per_access_and_builds_with_one_disk_map() {
    let t = trace();
    let shape = Shape::of(&t);

    let (belady, Usage { retained, peak, .. }) = measure(|| Belady::new(&t));
    drop(belady);

    let steady = 4 * shape.accesses + PER_DISK;
    let build = 4 * shape.records + shape.one_disk_map() + PER_DISK * DISKS as usize;
    let report = |what: &str, bytes: usize, budget: usize| {
        format!(
            "{what}: {bytes} B ({:.1} B/access) over a budget of {budget} B \
             ({} accesses, {} records, largest disk {} blocks)",
            shape.per_access(bytes),
            shape.accesses,
            shape.records,
            shape.largest_disk,
        )
    };
    let retained_line = report("Belady::new retained", retained, steady);
    let peak_line = report("Belady::new peak", peak, steady + build);
    eprintln!("{retained_line}\n{peak_line}");
    assert!(retained <= steady, "{retained_line}");
    assert!(peak <= steady + build, "{peak_line}");
}
