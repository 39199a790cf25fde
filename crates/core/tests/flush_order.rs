//! The write policies against a reference model. Random single-block
//! traffic drives a small LRU cache over three disks under WT, WB,
//! WBEU (small dirty limit) and WTDU, with a random sleep flag per
//! request. A test-side model keeps each disk's pending set (dirty
//! blocks, or logged ones under WTDU) as a `BTreeSet` and predicts the
//! exact effect list of every access: each forced WBEU flush, each
//! activation flush and each logged-victim region flush must emit the
//! whole set in ascending block order, and the cache's write counters
//! must match the model's.

use std::collections::BTreeSet;

use pc_cache::policy::Lru;
use pc_cache::{BlockCache, Effect, WritePolicy};
use pc_trace::{IoOp, Record};
use pc_units::{BlockId, BlockNo, DiskId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DISKS: u32 = 3;
const CAPACITY: usize = 12;
const BLOCKS_PER_DISK: u64 = 24;
const STEPS: u64 = 2_000;

fn blk(disk: u32, no: u64) -> BlockId {
    BlockId::new(DiskId::new(disk), BlockNo::new(no))
}

/// What the write policy owes the disks, kept the obvious way.
struct Reference {
    policy: WritePolicy,
    /// Per disk: blocks whose newest value is not on the disk yet.
    pending: Vec<BTreeSet<u64>>,
    /// Per disk (WTDU): log appends since the region was last flushed.
    appends: Vec<usize>,
    dirty_evictions: u64,
    disk_writes: u64,
    log_writes: u64,
    /// Flushes that wrote two or more blocks.
    multi_block_flushes: u64,
    /// Evictions of a pending block while its set held three or more.
    member_evictions: u64,
}

impl Reference {
    fn new(policy: WritePolicy) -> Self {
        Reference {
            policy,
            pending: vec![BTreeSet::new(); DISKS as usize],
            appends: vec![0; DISKS as usize],
            dirty_evictions: 0,
            disk_writes: 0,
            log_writes: 0,
            multi_block_flushes: 0,
            member_evictions: 0,
        }
    }

    /// Writes every pending block of `disk` in ascending order; under
    /// WTDU the log region is retired with them.
    fn flush(&mut self, disk: u32, expected: &mut Vec<Effect>) {
        let set = std::mem::take(&mut self.pending[disk as usize]);
        if set.len() > 1 {
            self.multi_block_flushes += 1;
        }
        for no in set {
            expected.push(Effect::WriteDisk(blk(disk, no)));
            self.disk_writes += 1;
        }
        self.appends[disk as usize] = 0;
    }

    /// A read miss wakes a sleeping disk.
    fn activate(&mut self, disk: u32, expected: &mut Vec<Effect>) {
        if matches!(self.policy, WritePolicy::Wbeu { .. } | WritePolicy::Wtdu) {
            self.flush(disk, expected);
        }
    }

    fn evict(&mut self, victim: BlockId, expected: &mut Vec<Effect>) {
        let disk = victim.disk().index();
        let set = &mut self.pending[disk as usize];
        let members = set.len();
        if !set.remove(&victim.block().number()) {
            return;
        }
        if members >= 3 {
            self.member_evictions += 1;
        }
        expected.push(Effect::WriteDisk(victim));
        self.disk_writes += 1;
        if self.policy == WritePolicy::Wtdu {
            // The log must not outlive the victim's newest value.
            self.flush(disk, expected);
        } else {
            self.dirty_evictions += 1;
        }
    }

    fn write(&mut self, block: BlockId, asleep: bool, expected: &mut Vec<Effect>) {
        let disk = block.disk().index();
        let no = block.block().number();
        match self.policy {
            WritePolicy::WriteThrough => {
                expected.push(Effect::WriteDisk(block));
                self.disk_writes += 1;
            }
            WritePolicy::WriteBack => {
                self.pending[disk as usize].insert(no);
            }
            WritePolicy::Wbeu { dirty_limit } => {
                self.pending[disk as usize].insert(no);
                if self.pending[disk as usize].len() > dirty_limit {
                    self.flush(disk, expected);
                }
            }
            WritePolicy::Wtdu if asleep => {
                expected.push(Effect::WriteLog(block));
                self.log_writes += 1;
                self.appends[disk as usize] += 1;
                self.pending[disk as usize].insert(no);
            }
            WritePolicy::Wtdu => {
                if self.pending[disk as usize].contains(&no) {
                    self.flush(disk, expected);
                }
                expected.push(Effect::WriteDisk(block));
                self.disk_writes += 1;
            }
        }
    }
}

fn run(policy: WritePolicy, seed: u64) -> Reference {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cache = BlockCache::new(CAPACITY, Box::new(Lru::new()), policy);
    let mut model = Reference::new(policy);
    let mut effects = Vec::new();
    let mut expected = Vec::new();
    for step in 0..STEPS {
        let block = blk(rng.gen_range(0..DISKS), rng.gen_range(0..BLOCKS_PER_DISK));
        let op = if rng.gen_bool(0.6) {
            IoOp::Write
        } else {
            IoOp::Read
        };
        let asleep = rng.gen_bool(0.4);
        let resident = cache.contains(block);
        let full = cache.len() >= CAPACITY;
        let record = Record::new(SimTime::from_millis(step), block, op);
        let outcome = cache.access(&record, |_| asleep, &mut effects);

        let ctx = format!("{policy:?} seed {seed} step {step}");
        assert_eq!(outcome.hit, resident, "{ctx}");
        assert_eq!(outcome.evicted.is_some(), !resident && full, "{ctx}");
        expected.clear();
        if !resident && op == IoOp::Read {
            if asleep {
                model.activate(block.disk().index(), &mut expected);
            }
            expected.push(Effect::ReadDisk(block));
        }
        if let Some(victim) = outcome.evicted {
            model.evict(victim, &mut expected);
        }
        if op == IoOp::Write {
            model.write(block, asleep, &mut expected);
        }
        assert_eq!(effects, expected, "{ctx}");

        let stats = cache.stats();
        assert_eq!(stats.dirty_evictions, model.dirty_evictions, "{ctx}");
        assert_eq!(stats.disk_writes, model.disk_writes, "{ctx}");
        assert_eq!(stats.log_writes, model.log_writes, "{ctx}");
        if policy == WritePolicy::Wtdu {
            for d in 0..DISKS {
                assert_eq!(
                    cache.log().pending(DiskId::new(d)),
                    model.appends[d as usize],
                    "{ctx} disk {d}"
                );
            }
        }
    }
    if policy == WritePolicy::Wtdu {
        // A crash now replays exactly the logged blocks.
        let replayed: BTreeSet<BlockId> =
            cache.log().recover().into_iter().map(|(b, _)| b).collect();
        let logged: BTreeSet<BlockId> = (0..DISKS)
            .flat_map(|d| model.pending[d as usize].iter().map(move |&no| blk(d, no)))
            .collect();
        assert_eq!(replayed, logged, "{policy:?} seed {seed}");
    }
    model
}

#[test]
fn flushes_emit_the_reference_set_in_ascending_block_order() {
    let policies = [
        WritePolicy::WriteThrough,
        WritePolicy::WriteBack,
        WritePolicy::Wbeu { dirty_limit: 3 },
        WritePolicy::Wtdu,
    ];
    for policy in policies {
        let mut multi_block_flushes = 0;
        let mut member_evictions = 0;
        for seed in 0..20 {
            let model = run(policy, seed);
            multi_block_flushes += model.multi_block_flushes;
            member_evictions += model.member_evictions;
        }
        if policy != WritePolicy::WriteThrough {
            assert!(
                member_evictions > 0,
                "{policy:?}: no eviction hit a pending set of 3+ blocks"
            );
        }
        if matches!(policy, WritePolicy::Wbeu { .. } | WritePolicy::Wtdu) {
            assert!(
                multi_block_flushes > 0,
                "{policy:?}: no flush wrote two or more blocks"
            );
        }
    }
}
