//! Proves the zero-allocation per-request contract: once a disk or a
//! stepper is built and warm, servicing requests performs no heap
//! allocation. A counting global allocator wraps the system one; the
//! hot loops must leave this thread's counter untouched.
//!
//! Scope: `DiskSim::service` and `DiskSim::finish` under every DPM
//! policy and serve-at-speed (timeline recording off), and
//! `OnlineStepper::step` with LRU and write-through once every block of
//! the working set has been seen. Write-back's dirty-block map still
//! allocates tree nodes, so it is not pinned here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pc_cache::policy::Lru;
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

#[test]
fn stepper_lru_write_through_steady_state_does_not_allocate() {
    const DISKS: u32 = 4;
    const CACHE_BLOCKS: usize = 256;
    const HOT_SET: u64 = 64;
    const WORKING_SET: u64 = 1_024;
    let config = SimConfig::default()
        .with_cache_blocks(CACHE_BLOCKS)
        .with_write_policy(WritePolicy::WriteThrough);
    let mut stepper = OnlineStepper::new(DISKS, Box::new(Lru::new()), &config);

    // One pass of the schedule: every other access goes to a hot set
    // that fits the cache, the rest sweep a working set four times the
    // cache, so the loop mixes hits, misses and evictions; reads and
    // writes; and idle gaps long enough to walk the disks down the ladder.
    let mut time = SimTime::ZERO;
    let mut pass = |stepper: &mut OnlineStepper, salt: u64| {
        let mut hits = 0u64;
        for i in 0..8 * WORKING_SET {
            let span = if i % 2 == 0 { HOT_SET } else { WORKING_SET };
            let j = (i * 2_654_435_761 + salt) % span;
            let block = BlockId::new(DiskId::new((j % u64::from(DISKS)) as u32), BlockNo::new(j));
            let op = if i % 5 == 0 { IoOp::Write } else { IoOp::Read };
            time += SimDuration::from_micros(GAPS_MS[(i % 12) as usize] * 37);
            hits += u64::from(stepper.step(&Record::new(time, block, op)).hit);
        }
        hits
    };
    // Warm-up: every block of the working set gets its table entry and
    // the scratch buffers reach their working capacity.
    for salt in 0..2 {
        pass(&mut stepper, salt);
    }

    let before = allocations();
    let hits = pass(&mut stepper, 11);
    let spent = allocations() - before;
    assert_eq!(spent, 0, "{spent} allocations in a steady-state pass");
    assert!(
        hits > 0 && hits < 8 * WORKING_SET,
        "pass mixes hits and misses"
    );
}
