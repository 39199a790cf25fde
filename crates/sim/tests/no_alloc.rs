//! Proves the zero-allocation per-request contract: once a disk or a
//! stepper is built and warm, servicing requests performs no heap
//! allocation. A counting global allocator wraps the system one; the
//! hot loops must leave this thread's counter untouched.
//!
//! Scope: `DiskSim::service` and `DiskSim::finish` under every DPM
//! policy and serve-at-speed (timeline recording off), and
//! `OnlineStepper::step` under {LRU, PA-LRU} × {WT, WB, WBEU, WTDU}
//! once every block of the working set has been seen and every pending
//! set and WTDU log region has reached its high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pc_cache::policy::{OnlinePolicy, PaLruConfig};
use pc_cache::WritePolicy;
use pc_diskmodel::{DiskPowerSpec, PowerModel, ServiceModel, ServiceRequest};
use pc_disksim::{DiskSim, DpmPolicy};
use pc_sim::{OnlineStepper, SimConfig};
use pc_trace::{IoOp, Record};
use pc_units::{BlockId, BlockNo, DiskId, SimDuration, SimTime};

struct CountingAlloc;

thread_local! {
    // Per thread, so tests running in parallel do not see each other's
    // allocations. A `const` `Cell<u64>` needs no lazy set-up and no
    // destructor, so touching it from inside the allocator is sound.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers entirely to the system allocator; the counter is a
// side effect with no bearing on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

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
            let before = allocations();
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
            let spent = allocations() - before;
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

/// Allocations allowed in one steady-state pass, per stepper cell.
/// Every cell reads 0; a cell given a non-zero budget states why beside
/// it. The check is exact, so a cell that improves must be re-pinned.
const BUDGETS: [(OnlinePolicy, WritePolicy, u64); 8] = [
    (OnlinePolicy::Lru, WritePolicy::WriteThrough, 0),
    (OnlinePolicy::Lru, WritePolicy::WriteBack, 0),
    (OnlinePolicy::Lru, WritePolicy::Wbeu { dirty_limit: 64 }, 0),
    (OnlinePolicy::Lru, WritePolicy::Wtdu, 0),
    (OnlinePolicy::PaLru, WritePolicy::WriteThrough, 0),
    (OnlinePolicy::PaLru, WritePolicy::WriteBack, 0),
    (
        OnlinePolicy::PaLru,
        WritePolicy::Wbeu { dirty_limit: 64 },
        0,
    ),
    (OnlinePolicy::PaLru, WritePolicy::Wtdu, 0),
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
fn steady_state_allocations(policy: OnlinePolicy, write_policy: WritePolicy) -> u64 {
    let cell = format!("{} + {}", policy.name(), write_policy.name());
    let config = SimConfig::default()
        .with_cache_blocks(CACHE_BLOCKS)
        .with_write_policy(write_policy);
    let pa = PaLruConfig::for_power_model(&config.power_model());
    let mut stepper = OnlineStepper::new(DISKS, policy.build(CACHE_BLOCKS, &pa), &config);
    let mut time = SimTime::ZERO;
    for salt in 0..2 {
        pass(&mut stepper, &mut time, salt);
    }
    let start = stepper.cache_stats();
    let before = allocations();
    let hits = pass(&mut stepper, &mut time, 11);
    let spent = allocations() - before;
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
    spent
}

#[test]
fn stepper_steady_state_allocation_budgets() {
    let mut off_budget = Vec::new();
    for (policy, write_policy, budget) in BUDGETS {
        let spent = steady_state_allocations(policy, write_policy);
        if spent != budget {
            off_budget.push(format!(
                "{} + {}: {spent} allocations, budget {budget}",
                policy.name(),
                write_policy.name()
            ));
        }
    }
    assert!(off_budget.is_empty(), "cells off budget: {off_budget:#?}");
}

#[test]
fn stepper_lru_write_through_steady_state_does_not_allocate() {
    let spent = steady_state_allocations(OnlinePolicy::Lru, WritePolicy::WriteThrough);
    assert_eq!(spent, 0, "{spent} allocations in a steady-state pass");
}
