//! Workspace-spanning integration tests: drive the full stack
//! (generators → cache → disks → reports) and check cross-crate
//! invariants the unit tests cannot see.

use pc_cache::WritePolicy;
use pc_disksim::DpmPolicy;
use pc_sim::{run_replacement, run_write_policy, PolicySpec, SimConfig};
use pc_trace::{CelloConfig, OltpConfig, SyntheticConfig, TraceStats};
use pc_units::{Joules, SimDuration, SimTime};

fn policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Lru,
        PolicySpec::online("fifo").unwrap(),
        PolicySpec::Belady,
        PolicySpec::Opg {
            epsilon: Joules::ZERO,
        },
        PolicySpec::PaLru,
    ]
}

/// Every disk's accounted wall-clock covers the full horizon, for every
/// policy and both DPM schemes: no time leaks from the energy books.
#[test]
fn time_accounting_balances_for_every_policy_and_dpm() {
    let trace = OltpConfig::default().with_requests(5_000).generate(1);
    for dpm in [DpmPolicy::Oracle, DpmPolicy::Practical, DpmPolicy::AlwaysOn] {
        for policy in policies() {
            let cfg = SimConfig::default().with_dpm(dpm);
            let report = run_replacement(&trace, &policy, &cfg);
            let horizon = (report.horizon - SimTime::ZERO).as_secs_f64();
            for (i, d) in report.disks.iter().enumerate() {
                let accounted = d.total_time().as_secs_f64();
                assert!(
                    accounted >= horizon - 1e-6,
                    "{:?}/{}: disk {i} accounted {accounted}s of {horizon}s",
                    dpm,
                    report.policy
                );
            }
        }
    }
}

/// Energy ordering across DPM schemes holds for every replacement policy:
/// Oracle ≤ Practical ≤ AlwaysOn (same request sequence, better power
/// decisions), and Practical stays within 2× of Oracle on idle energy.
#[test]
fn dpm_ordering_holds_across_policies() {
    let trace = OltpConfig::default().with_requests(8_000).generate(2);
    for policy in policies() {
        let energy = |dpm| {
            run_replacement(&trace, &policy, &SimConfig::default().with_dpm(dpm))
                .total_energy()
                .as_joules()
        };
        let oracle = energy(DpmPolicy::Oracle);
        let practical = energy(DpmPolicy::Practical);
        let always_on = energy(DpmPolicy::AlwaysOn);
        assert!(
            oracle <= practical * 1.0001,
            "oracle {oracle} practical {practical}"
        );
        assert!(practical <= always_on * 1.0001, "practical beats always-on");
    }
}

/// An infinite cache misses exactly on the trace's cold requests, tying
/// the trace statistics to the simulator's cache counters.
#[test]
fn infinite_cache_miss_count_equals_trace_cold_misses() {
    let trace = CelloConfig::default().with_requests(10_000).generate(3);
    let stats = TraceStats::of(&trace);
    let report = run_replacement(
        &trace,
        &PolicySpec::Lru,
        &SimConfig::default().with_infinite_cache(),
    );
    let cold = report.cache.misses() as f64 / report.cache.accesses as f64;
    assert!((cold - stats.cold_fraction).abs() < 1e-9);
}

/// Write-policy invariants across the integrated stack: write-back's
/// disk writes = dirty evictions (+ nothing else); WTDU persists every
/// client write either to a disk or the log.
#[test]
fn write_policy_bookkeeping_is_conserved() {
    let trace = SyntheticConfig::default()
        .with_requests(20_000)
        .with_write_ratio(0.6)
        .generate(4);
    let cfg = SimConfig::default();

    let wb = run_write_policy(
        &trace,
        &PolicySpec::Lru,
        &cfg.clone().with_write_policy(WritePolicy::WriteBack),
    );
    assert_eq!(wb.cache.disk_writes, wb.cache.dirty_evictions);
    assert_eq!(wb.cache.log_writes, 0);

    let wt = run_write_policy(
        &trace,
        &PolicySpec::Lru,
        &cfg.clone().with_write_policy(WritePolicy::WriteThrough),
    );
    // Write-through persists every written *block* (requests may span
    // several blocks).
    let write_blocks: u64 = trace
        .iter()
        .filter(|r| r.op == pc_trace::IoOp::Write)
        .map(|r| r.blocks)
        .sum();
    assert_eq!(wt.cache.disk_writes, write_blocks);

    let wtdu = run_write_policy(
        &trace,
        &PolicySpec::Lru,
        &cfg.clone().with_write_policy(WritePolicy::Wtdu),
    );
    // Every client write lands somewhere persistent at write time
    // (direct disk write or log append); flushes add disk writes on top.
    assert!(wtdu.cache.disk_writes + wtdu.cache.log_writes >= wtdu.cache.writes);
    assert!(wtdu.cache.log_writes > 0);
    assert!(wtdu.log.is_some());
}

/// Response-time bookkeeping: every request contributes at least the
/// cache hit time, and Oracle DPM never adds spin-up waits.
#[test]
fn response_time_floors_hold() {
    let trace = OltpConfig::default().with_requests(5_000).generate(5);
    let cfg = SimConfig::default().with_dpm(DpmPolicy::Oracle);
    let report = run_replacement(&trace, &PolicySpec::Lru, &cfg);
    let per_request = report.mean_response();
    assert!(per_request >= SimDuration::from_micros(200));
    // Oracle: no spin-up waits, so the mean stays within mechanical
    // service territory (well under 100 ms for this load).
    assert!(per_request < SimDuration::from_millis(100));
}

/// The cache-level hit ratio is invariant to the write policy (write
/// allocation keeps residency identical), so energy differences between
/// write policies are attributable to write handling alone.
#[test]
fn residency_is_write_policy_invariant() {
    let trace = SyntheticConfig::default()
        .with_requests(15_000)
        .with_write_ratio(0.5)
        .generate(6);
    let cfg = SimConfig::default();
    let mut hit_ratios = Vec::new();
    for wp in [
        WritePolicy::WriteThrough,
        WritePolicy::WriteBack,
        WritePolicy::Wbeu { dirty_limit: 32 },
        WritePolicy::Wtdu,
    ] {
        let r = run_write_policy(&trace, &PolicySpec::Lru, &cfg.clone().with_write_policy(wp));
        hit_ratios.push(r.cache.hit_ratio());
    }
    for w in hit_ratios.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-12,
            "hit ratios diverged: {hit_ratios:?}"
        );
    }
}

/// A request that runs past the last block number continues at block 0
/// on every layer: it survives a `.pct` round trip, every policy and
/// write policy replays it, `TraceStats` counts its blocks, and a read
/// miss still waits for the fetch that carries it.
#[test]
fn requests_past_the_last_block_number_wrap_on_every_layer() {
    use pc_trace::{IoOp, Record, Trace};
    use pc_units::{BlockId, BlockNo, DiskId};

    let at = |ms, disk, block, blocks, op| Record {
        blocks,
        ..Record::new(
            SimTime::from_millis(ms),
            BlockId::new(DiskId::new(disk), BlockNo::new(block)),
            op,
        )
    };
    let mut trace = Trace::new(2);
    // Disk 0: blocks MAX and 0. Disk 1: MAX - 1, MAX, 0 and 1. Then one
    // re-read of a wrapped block on each disk.
    trace.push(at(1, 0, u64::MAX, 2, IoOp::Read));
    trace.push(at(2, 1, u64::MAX - 1, 4, IoOp::Write));
    trace.push(at(3, 0, 0, 1, IoOp::Read));
    trace.push(at(4, 1, 1, 1, IoOp::Read));
    let path = std::env::temp_dir().join(format!("pc-wrap-{}.pct", std::process::id()));
    pc_tracefile::write_trace(&path, &trace).unwrap();
    let replayed = pc_tracefile::read_trace(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(replayed, trace);

    let stats = TraceStats::of(&replayed);
    assert_eq!(stats.per_disk[0].unique_blocks, 2);
    assert_eq!(stats.per_disk[1].unique_blocks, 4);

    // Four requests at the 200 µs hit time, plus the first read's fetch.
    let hits_only = SimDuration::from_micros(4 * 200);
    for policy in policies() {
        let report = run_replacement(&replayed, &policy, &SimConfig::default());
        assert_eq!(report.requests, 4, "{}", report.policy);
        assert_eq!(report.cache.hits, 2, "{}", report.policy);
        assert_eq!(report.cache.disk_reads, 2, "{}", report.policy);
        assert!(report.response_total > hits_only, "{}", report.policy);
    }
    for write_policy in [
        WritePolicy::WriteThrough,
        WritePolicy::WriteBack,
        WritePolicy::Wbeu { dirty_limit: 1 },
        WritePolicy::Wtdu,
    ] {
        let config = SimConfig::default().with_write_policy(write_policy);
        let report = run_write_policy(&replayed, &PolicySpec::Lru, &config);
        assert_eq!(report.cache.hits, 2, "{}", report.write_policy);
        assert!(report.response_total > hits_only, "{}", report.write_policy);
    }
}
