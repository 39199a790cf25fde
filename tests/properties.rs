//! Property-based tests over the whole stack: random traces, random
//! model parameters, random log traffic.
//!
//! Each property runs against 64 deterministically-seeded random cases
//! (seeds 0..64 through the first-party `rand` shim), replacing the
//! previous proptest harness so the suite needs no registry crates.
//! On failure the assert message carries the seed, which reproduces the
//! exact case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pc_cache::policy::{Belady, Lru, OnlinePolicy, Opg, OpgDpm, PaLru, PaLruConfig};
use pc_cache::wtdu::LogSpace;
use pc_cache::{
    BlockCache, BlockTable, BloomFilter, IntervalHistogram, ReplacementPolicy, WritePolicy,
};
use pc_diskmodel::{DiskPowerSpec, ModeId, PowerModel};
use pc_trace::{IoOp, Record, Trace};
use pc_units::{BlockId, BlockNo, DiskId, Joules, SimDuration, SimTime};

const CASES: u64 = 64;

/// A small random multi-disk trace (sorted times, ≤ 3 disks, ≤ 30
/// distinct blocks, mixed reads/writes).
fn gen_trace(rng: &mut StdRng, max_len: usize) -> Trace {
    let len = rng.gen_range(1..max_len);
    let mut raw: Vec<(u64, u32, u64, bool)> = (0..len)
        .map(|_| {
            (
                rng.gen_range(0..500u64),
                rng.gen_range(0..3u32),
                rng.gen_range(0..30u64),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    raw.sort_unstable();
    let mut t = Trace::new(3);
    for (s, d, b, w) in raw {
        t.push(Record::new(
            SimTime::from_secs(s),
            BlockId::new(DiskId::new(d), BlockNo::new(b)),
            if w { IoOp::Write } else { IoOp::Read },
        ));
    }
    t
}

/// Like [`gen_trace`] but with multi-block requests (1–4 blocks each).
fn gen_multiblock_trace(rng: &mut StdRng, max_len: usize) -> Trace {
    let len = rng.gen_range(1..max_len);
    let mut raw: Vec<(u64, u32, u64, u64, bool)> = (0..len)
        .map(|_| {
            (
                rng.gen_range(0..500u64),
                rng.gen_range(0..3u32),
                rng.gen_range(0..30u64),
                rng.gen_range(1..5u64),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    raw.sort_unstable();
    let mut t = Trace::new(3);
    for (s, d, b, len, w) in raw {
        t.push(Record {
            time: SimTime::from_secs(s),
            block: BlockId::new(DiskId::new(d), BlockNo::new(b)),
            blocks: len,
            op: if w { IoOp::Write } else { IoOp::Read },
        });
    }
    t
}

fn misses(trace: &Trace, capacity: usize, policy: Box<dyn ReplacementPolicy>) -> u64 {
    let mut cache = BlockCache::new(capacity, policy, WritePolicy::WriteBack);
    let mut fx = Vec::new();
    trace
        .iter()
        .map(|r| u64::from(!cache.access(r, |_| false, &mut fx).hit))
        .sum()
}

fn power() -> PowerModel {
    PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15())
}

/// Belady's MIN never misses more than any on-line or power-aware
/// policy, on any trace and cache size.
#[test]
fn belady_is_miss_minimal() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = gen_trace(&mut rng, 120);
        let capacity = rng.gen_range(1..12usize);
        let belady = misses(&trace, capacity, Box::new(Belady::new(&trace)));
        for p in OnlinePolicy::ALL {
            let online = p.build(capacity, &PaLruConfig::default());
            assert!(
                belady <= misses(&trace, capacity, online),
                "seed {seed} {p:?}"
            );
        }
    }
}

/// OPG's incremental (indexed) eviction engine is behaviourally
/// identical to the naive full-rescan reference, step by step.
#[test]
fn opg_indexed_matches_naive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = gen_trace(&mut rng, 100);
        let capacity = rng.gen_range(1..8usize);
        let eps = [0.0, 10.0, 1e15][rng.gen_range(0..3usize)];
        let mk = |naive: bool| {
            let o = Opg::new(&trace, power(), OpgDpm::Oracle, Joules::new(eps));
            let o = if naive { o.with_naive_eviction() } else { o };
            BlockCache::new(capacity, Box::new(o), WritePolicy::WriteBack)
        };
        let mut fast = mk(false);
        let mut slow = mk(true);
        let (mut fx_a, mut fx_b) = (Vec::new(), Vec::new());
        for r in &trace {
            let a = fast.access(r, |_| false, &mut fx_a);
            let b = slow.access(r, |_| false, &mut fx_b);
            assert_eq!(a.hit, b.hit, "seed {seed}");
            assert_eq!(a.evicted, b.evicted, "seed {seed}");
        }
    }
}

/// The cache never exceeds capacity, never evicts on hits and never
/// evicts the incoming block, for every policy.
#[test]
fn capacity_invariant_for_all_policies() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = gen_trace(&mut rng, 100);
        let capacity = rng.gen_range(1..10usize);
        let offline: [Box<dyn ReplacementPolicy>; 2] = [
            Box::new(Belady::new(&trace)),
            Box::new(Opg::new(&trace, power(), OpgDpm::Practical, Joules::ZERO)),
        ];
        let online = OnlinePolicy::ALL.map(|p| p.build(capacity, &PaLruConfig::default()));
        for policy in offline.into_iter().chain(online) {
            let mut cache = BlockCache::new(capacity, policy, WritePolicy::WriteBack);
            let mut fx = Vec::new();
            for r in &trace {
                let res = cache.access(r, |_| false, &mut fx);
                assert!(cache.len() <= capacity, "seed {seed}");
                if res.hit {
                    assert!(res.evicted.is_none(), "seed {seed}");
                }
                if let Some(v) = res.evicted {
                    assert!(
                        v != r.block,
                        "seed {seed}: never evict the block being inserted"
                    );
                }
            }
        }
    }
}

/// The Figure-2 math holds for arbitrary (sane) disk specs: the
/// ladder is strictly increasing and the practical idle energy stays
/// within [oracle, 2×oracle].
#[test]
fn practical_dpm_is_2_competitive_for_random_specs() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spec = DiskPowerSpec::ultrastar_36z15();
        spec.spin_up_energy = Joules::new(rng.gen_range(20.0..700.0));
        spec.idle_power = pc_units::Watts::new(rng.gen_range(6.0..15.0));
        spec.standby_power = pc_units::Watts::new(rng.gen_range(0.5..3.0));
        let model = PowerModel::multi_speed(&spec);
        for w in model.ladder().windows(2) {
            assert!(w[0].at_idle < w[1].at_idle, "seed {seed}");
            assert!(w[0].mode < w[1].mode, "seed {seed}");
        }
        for _ in 0..rng.gen_range(1..20usize) {
            let g = rng.gen_range(1..10_000u64);
            let gap = SimDuration::from_secs(g);
            let oracle = model.lower_envelope(gap).as_joules();
            let practical = model.practical_idle_energy(gap).as_joules();
            assert!(practical >= oracle - 1e-9, "seed {seed}");
            assert!(
                practical <= 2.0 * oracle + 1e-9,
                "seed {seed}, gap {g}s: {practical} vs {oracle}"
            );
        }
    }
}

/// OPG penalties are non-negative for arbitrary deterministic-miss
/// layouts (the sub-additivity argument), probed through the public
/// eviction behaviour: with ε = 0 the chosen victim's penalty is the
/// minimum, so OPG never crashes or violates cache invariants.
#[test]
fn opg_runs_cleanly_on_any_trace() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = gen_trace(&mut rng, 150);
        let capacity = rng.gen_range(1..6usize);
        for dpm in [OpgDpm::Oracle, OpgDpm::Practical] {
            let o = Opg::new(&trace, power(), dpm, Joules::ZERO);
            let _ = misses(&trace, capacity, Box::new(o));
        }
    }
}

/// Multi-block requests preserve the structural invariants: the
/// capacity bound holds, and the off-line cursor expansion agrees
/// with the cache's per-block iteration (Belady panics on any
/// mismatch). MIN's request-level miss count is *not* asserted
/// against LRU here: MIN is optimal per block, and all-blocks-hit
/// request accounting can reorder the two.
#[test]
fn multiblock_requests_preserve_invariants() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = gen_multiblock_trace(&mut rng, 80);
        let capacity = rng.gen_range(2..10usize);
        let _ = misses(&trace, capacity, Box::new(Belady::new(&trace)));
        let mut cache = BlockCache::new(capacity, Box::new(Lru::new()), WritePolicy::WriteBack);
        let mut fx = Vec::new();
        for r in &trace {
            let _ = cache.access(r, |_| false, &mut fx);
            assert!(cache.len() <= capacity, "seed {seed}");
        }
    }
}

/// The scan-resistant policies (ARC, MQ, LIRS, 2Q) run cleanly on any
/// trace, hold the capacity invariant, and never evict the incoming
/// block.
#[test]
fn alternative_policies_hold_invariants() {
    use pc_cache::policy::{ArcPolicy, Lirs, Mq, TwoQ};
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = gen_trace(&mut rng, 120);
        let capacity = rng.gen_range(1..10usize);
        let policies: Vec<Box<dyn ReplacementPolicy>> = vec![
            Box::new(ArcPolicy::new(capacity)),
            Box::new(Mq::new(capacity)),
            Box::new(Lirs::new(capacity)),
            Box::new(TwoQ::new(capacity)),
        ];
        for policy in policies {
            let mut cache = BlockCache::new(capacity, policy, WritePolicy::WriteBack);
            let mut fx = Vec::new();
            for r in &trace {
                let res = cache.access(r, |_| false, &mut fx);
                assert!(cache.len() <= capacity, "seed {seed}");
                if let Some(v) = res.evicted {
                    assert!(v != r.block, "seed {seed}");
                }
            }
        }
    }
}

/// Bloom filters never produce false negatives.
#[test]
fn bloom_has_no_false_negatives() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bloom = BloomFilter::new(1 << 14, 4);
        let ids: Vec<BlockId> = (0..rng.gen_range(1..200usize))
            .map(|_| {
                BlockId::new(
                    DiskId::new(rng.gen_range(0..4u32)),
                    BlockNo::new(rng.gen_range(0..10_000u64)),
                )
            })
            .collect();
        for &id in &ids {
            bloom.insert_check(id);
        }
        for &id in &ids {
            assert!(bloom.contains(id), "seed {seed}: lost {id}");
        }
    }
}

/// Histogram quantiles are monotone in p and bounded by recorded data.
#[test]
fn histogram_quantiles_are_monotone() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = IntervalHistogram::standard();
        for _ in 0..rng.gen_range(1..200usize) {
            h.record(SimDuration::from_millis(rng.gen_range(1..100_000u64)));
        }
        let mut last = SimDuration::ZERO;
        for p in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let q = h.quantile(p);
            assert!(q >= last, "seed {seed}");
            last = q;
        }
    }
}

/// Log recovery returns exactly the pending generation: nothing
/// flushed, everything appended since the last flush (latest value
/// per block).
#[test]
fn log_recovery_is_exact() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = LogSpace::new(3);
        let mut pending: std::collections::HashMap<BlockId, u64> = std::collections::HashMap::new();
        let mut value = 0u64;
        for _ in 0..rng.gen_range(1..100usize) {
            let disk = DiskId::new(rng.gen_range(0..3u32));
            let b = rng.gen_range(0..10u64);
            if rng.gen_bool(0.5) {
                log.flush_region(disk);
                pending.retain(|k, _| k.disk() != disk);
            } else {
                value += 1;
                log.append(disk, BlockNo::new(b), value);
                pending.insert(BlockId::new(disk, BlockNo::new(b)), value);
            }
        }
        let recovered: std::collections::HashMap<BlockId, u64> =
            log.recover().into_iter().collect();
        assert_eq!(recovered, pending, "seed {seed}");
    }
}

/// A PA-LRU with an over-generous priority classification still obeys
/// LRU semantics within each stack (sanity against starvation bugs).
#[test]
fn pa_lru_eviction_respects_stack_order() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = gen_trace(&mut rng, 80);
        let mut pa = PaLru::new(PaLruConfig::default());
        let mut table = BlockTable::new();
        for r in &trace {
            let slot = table.lookup(r.block);
            pa.on_access(slot, r.block, r.time);
            if slot.is_none() {
                pa.on_insert(table.intern(r.block), r.block, r.time);
            }
        }
        // Evicting everything terminates and returns each block once.
        let mut evicted = std::collections::HashSet::new();
        for _ in 0..table.len() {
            let slot = pa.evict();
            let v = table.block_of(slot);
            table.release(slot);
            assert!(evicted.insert(v), "seed {seed}: double eviction of {v}");
        }
    }
}

/// The slot-interned, intrusive-list LRU is eviction-order-identical to
/// the pre-slot reference design — a `BTreeMap` of monotone sequence
/// numbers — when both are driven by the cache's exact protocol
/// (evict-before-insert on a full miss) over random traces.
#[test]
fn slot_lru_matches_btreemap_reference() {
    use std::collections::{BTreeMap, HashMap};
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = gen_trace(&mut rng, 200);
        let capacity = rng.gen_range(1..12usize);

        let mut lru = Lru::new();
        let mut table = BlockTable::new();

        let mut seq = 0u64;
        let mut by_seq: BTreeMap<u64, BlockId> = BTreeMap::new();
        let mut seq_of: HashMap<BlockId, u64> = HashMap::new();

        for r in &trace {
            // Reference step: refresh the sequence number; on a miss past
            // capacity, the smallest sequence number is the victim.
            seq += 1;
            let ref_evicted = match seq_of.insert(r.block, seq) {
                Some(old) => {
                    by_seq.remove(&old);
                    by_seq.insert(seq, r.block);
                    None
                }
                None => {
                    let mut evicted = None;
                    if seq_of.len() > capacity {
                        let (&oldest, &victim) = by_seq.iter().next().expect("non-empty");
                        by_seq.remove(&oldest);
                        seq_of.remove(&victim);
                        evicted = Some(victim);
                    }
                    by_seq.insert(seq, r.block);
                    evicted
                }
            };

            // Slot-protocol step, exactly as BlockCache drives it.
            let slot = table.lookup(r.block);
            lru.on_access(slot, r.block, r.time);
            let new_evicted = if slot.is_none() {
                let mut evicted = None;
                if table.len() >= capacity {
                    let v = lru.evict();
                    let b = table.block_of(v);
                    table.release(v);
                    evicted = Some(b);
                }
                lru.on_insert(table.intern(r.block), r.block, r.time);
                evicted
            } else {
                None
            };
            assert_eq!(new_evicted, ref_evicted, "seed {seed}");
        }

        // Drain both to empty: the full eviction order must also agree.
        while let Some((&oldest, &victim)) = by_seq.iter().next() {
            by_seq.remove(&oldest);
            seq_of.remove(&victim);
            let slot = lru.evict();
            let b = table.block_of(slot);
            table.release(slot);
            assert_eq!(b, victim, "seed {seed}: drain order diverged");
        }
        assert!(lru.is_empty(), "seed {seed}");
    }
}

/// `break_even` must be consistent with the envelope: at the break-even
/// gap, the mode's line meets the full-speed line.
#[test]
fn break_even_meets_the_idle_line() {
    let model = power();
    for (id, _) in model.modes() {
        if id.is_full_speed() {
            continue;
        }
        let be = model.break_even(id);
        let at_idle = model.energy_line(ModeId::FULL_SPEED, be).as_joules();
        let at_mode = model.energy_line(id, be).as_joules();
        assert!(
            (at_idle - at_mode).abs() < 1e-4, // break-even rounds to 1 µs
            "{id}: {at_idle} vs {at_mode}"
        );
    }
}
