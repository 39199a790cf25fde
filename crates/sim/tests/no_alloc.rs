//! Proves the zero-allocation per-request contract: once a disk or a
//! stepper is built and warm, servicing requests performs no heap
//! allocation. The workspace's counting allocator (`pc-allocmeter`)
//! wraps the system one; the hot loops must leave this thread's count
//! untouched.
//!
//! Scope: `DiskSim::service` and `DiskSim::finish` under every DPM
//! policy and serve-at-speed (timeline recording off), and
//! `OnlineStepper::step` under every on-line policy and `meta` × {WT,
//! WB, WBEU, WTDU}, measured after two warm-up passes: for LRU and
//! PA-LRU, once every block of the working set has been seen and every
//! pending set and WTDU log region has reached its high-water mark.
//! The few cells that still allocate are pinned at their exact count,
//! with the reason.

use pc_allocmeter::measure;
use pc_cache::WritePolicy;
use pc_diskmodel::{DiskPowerSpec, PowerModel, ServiceModel, ServiceRequest};
use pc_disksim::{DiskSim, DpmPolicy};
use pc_sim::{OnlineStepper, PolicySpec, SimConfig};
use pc_trace::{IoOp, Record, Trace};
use pc_units::{BlockId, BlockNo, DiskId, SimDuration, SimTime};

pc_allocmeter::install!();

/// Idle gaps from queued (1 ms) through every rung of the multi-speed
/// ladder (10.7 s … 96.1 s) to deep standby, several landing just past a
/// threshold so the arrival interrupts a spin-down.
const GAPS_MS: [u64; 12] = [
    1, 3, 5_000, 10_800, 14_000, 19_400, 25_000, 32_200, 60_000, 96_300, 200_000, 1_000_000,
];

#[test]
fn disk_service_and_finish_do_not_allocate() {
    let power = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());
    let policies = [
        DpmPolicy::AlwaysOn,
        DpmPolicy::Practical,
        DpmPolicy::Oracle,
        DpmPolicy::FixedThreshold(SimDuration::from_secs(20)),
    ];
    for policy in policies {
        for serve_at_speed in [false, true] {
            if serve_at_speed && policy == DpmPolicy::Oracle {
                continue;
            }
            let mut disk = DiskSim::new(
                DiskId::new(0),
                power.clone(),
                ServiceModel::ultrastar_36z15(),
                policy,
            );
            if serve_at_speed {
                disk = disk.with_serve_at_speed();
            }
            let ((), usage) = measure(|| {
                let mut arrival = SimTime::from_secs(1);
                for (i, gap) in GAPS_MS.iter().cycle().take(240).enumerate() {
                    let request = ServiceRequest {
                        block: BlockNo::new(i as u64 * 7_919 % 2_000_000),
                        blocks: 1 + i as u64 % 8,
                    };
                    let served = disk.service(arrival, request);
                    arrival = served.completion.max(arrival) + SimDuration::from_millis(*gap);
                }
                disk.finish(disk.ready_at().max(arrival) + SimDuration::from_secs(500));
            });
            let spent = usage.allocations;
            assert_eq!(
                spent, 0,
                "{policy:?} serve_at_speed={serve_at_speed}: {spent} allocations"
            );
            assert_eq!(disk.report().requests, 240);
        }
    }
}

const DISKS: u32 = 4;
const CACHE_BLOCKS: usize = 256;
const HOT_SET: u64 = 64;
const WORKING_SET: u64 = 1_024;
const STEPS_PER_PASS: u64 = 8 * WORKING_SET;

/// The write policies, in the order of the budget table's columns.
const WRITE_POLICIES: [WritePolicy; 4] = [
    WritePolicy::WriteThrough,
    WritePolicy::WriteBack,
    WritePolicy::Wbeu { dirty_limit: 64 },
    WritePolicy::Wtdu,
];

/// Allocations allowed in the measured pass (the third), per stepper
/// cell: every on-line policy and `meta` × the write policies above. A
/// cell given a non-zero budget states why above its row. The check is
/// exact, so a cell that improves must be re-pinned.
const BUDGETS: [(&str, [u64; 4]); 12] = [
    ("lru", [0, 0, 0, 0]),
    ("fifo", [0, 0, 0, 0]),
    ("arc", [0, 0, 0, 0]),
    // Warm-up growth, 0 from the fifth pass: MQ's queue lists first link higher slots (3 arrays
    // each), and its resident mix takes the per-disk pending sets and WTDU log to new highs.
    ("mq", [9, 16, 24, 37]),
    // WB: one per-disk dirty set first grows past 64 entries (2 048 B, in `BlockCache::mark`).
    ("lirs", [0, 1, 0, 0]),
    ("2q", [0, 0, 0, 0]),
    ("pa-lru", [0, 0, 0, 0]),
    ("pa-arc", [0, 0, 0, 0]),
    // WB: three per-disk dirty sets first grow past 64 entries (2 048 B each), 0 in the next pass.
    ("pa-mq", [0, 3, 0, 0]),
    ("pa-lirs", [0, 0, 0, 0]),
    ("pa-2q", [0, 0, 0, 0]),
    ("meta", [0, 0, 0, 0]),
];

/// One pass of the schedule; returns its hits. Every other access goes
/// to a hot set that fits the cache, the rest sweep a working set four
/// times the cache, so the loop mixes hits, misses and evictions; reads
/// and writes; and idle gaps long enough to walk the disks down the
/// ladder. Blocks go to disks by `j / 2` rather than `j`: the salt fixes
/// the parity of `j` per half of the schedule, so a `j`-keyed mapping
/// would send one half only to even disks and the other only to odd
/// ones, and the hot-only disks would never take a read miss (under
/// WTDU, never wake to retire their log).
fn pass(stepper: &mut OnlineStepper, time: &mut SimTime, salt: u64) -> u64 {
    let mut hits = 0u64;
    for i in 0..STEPS_PER_PASS {
        let span = if i % 2 == 0 { HOT_SET } else { WORKING_SET };
        let j = (i * 2_654_435_761 + salt) % span;
        let disk = DiskId::new((j / 2 % u64::from(DISKS)) as u32);
        let block = BlockId::new(disk, BlockNo::new(j));
        let op = if i % 5 == 0 { IoOp::Write } else { IoOp::Read };
        *time += SimDuration::from_micros(GAPS_MS[(i % 12) as usize] * 37);
        hits += u64::from(stepper.step(&Record::new(*time, block, op)).hit);
    }
    hits
}

/// Allocations in one steady-state pass of `policy` under
/// `write_policy`, after two warm-up passes that give every block of the
/// working set its table entry and let the scratch buffers, pending
/// sets and log regions reach their working capacity.
fn steady_state_allocations(policy: PolicySpec, write_policy: WritePolicy) -> u64 {
    let cell = format!("{} + {}", policy.name(), write_policy.name());
    let config = SimConfig::default()
        .with_cache_blocks(CACHE_BLOCKS)
        .with_write_policy(write_policy);
    let built = policy.build(
        &Trace::new(DISKS),
        &config.power_model(),
        config.dpm,
        CACHE_BLOCKS,
    );
    let mut stepper = OnlineStepper::new(DISKS, built, &config);
    let mut time = SimTime::ZERO;
    for salt in 0..2 {
        pass(&mut stepper, &mut time, salt);
    }
    let start = stepper.cache_stats();
    let (hits, usage) = measure(|| pass(&mut stepper, &mut time, 11));
    let end = stepper.cache_stats();
    assert!(
        hits > 0 && hits < STEPS_PER_PASS,
        "{cell}: the pass must mix hits and misses"
    );
    // The measured pass must exercise the write policy's deferred work.
    match write_policy {
        WritePolicy::WriteThrough => {}
        WritePolicy::WriteBack => assert!(
            end.dirty_evictions > start.dirty_evictions,
            "{cell}: no dirty eviction"
        ),
        WritePolicy::Wbeu { .. } => {
            assert!(end.disk_writes > start.disk_writes, "{cell}: no flush")
        }
        WritePolicy::Wtdu => assert!(end.log_writes > start.log_writes, "{cell}: no log write"),
    }
    usage.allocations
}

#[test]
fn stepper_steady_state_allocation_budgets() {
    let names: Vec<&str> = BUDGETS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names.join(" "), PolicySpec::online_names());
    let mut off_budget = Vec::new();
    for (name, budgets) in BUDGETS {
        for (write_policy, budget) in WRITE_POLICIES.into_iter().zip(budgets) {
            let spent = steady_state_allocations(PolicySpec::online(name).unwrap(), write_policy);
            if spent != budget {
                off_budget.push(format!(
                    "{name} + {}: {spent} allocations, budget {budget}",
                    write_policy.name()
                ));
            }
        }
    }
    assert!(off_budget.is_empty(), "cells off budget: {off_budget:#?}");
}

#[test]
fn stepper_lru_write_through_steady_state_does_not_allocate() {
    let spent = steady_state_allocations(PolicySpec::Lru, WritePolicy::WriteThrough);
    assert_eq!(spent, 0, "{spent} allocations in a steady-state pass");
}
