//! Proves the zero-copy replay contract: once a `MappedTrace` is open,
//! streaming its records — sequentially or through the strided
//! round-robin access pattern `pc-loadgen` uses — performs no heap
//! allocation at all. The workspace's counting allocator
//! (`pc-allocmeter`) wraps the system one; the hot loops must leave
//! this thread's count untouched.

use pc_allocmeter::measure;
use pc_trace::Workload;
use pc_tracefile::{MappedTrace, TraceWriter};

pc_allocmeter::install!();

#[test]
fn replay_loops_do_not_allocate_per_record() {
    // Setup allocates freely: generate, serialize, open the map.
    let workload = Workload::parse("oltp").unwrap().with_requests(2_000);
    let mut writer =
        TraceWriter::with_chunk_records(Vec::new(), workload.disk_count(), 64).unwrap();
    for r in workload.stream(13) {
        writer.push(r).unwrap();
    }
    let (bytes, _) = writer.finish().unwrap();
    let map = MappedTrace::from_bytes(bytes).unwrap();

    // Sequential stream — the simulator's ingest path. The first pass
    // verifies every chunk CRC on the way through; even that must not
    // allocate.
    let (blocks, usage) = measure(|| map.records().map(|r| r.unwrap().blocks).sum::<u64>());
    assert!(blocks > 0);
    assert_eq!(
        usage.allocations, 0,
        "sequential replay must not allocate per record"
    );

    // Strided access — pc-loadgen's round-robin deal: connection c
    // reads records c, c+conns, c+2·conns, … straight off the map.
    let conns = 7u64;
    let (sum, usage) = measure(|| {
        let mut sum = 0u64;
        for conn in 0..conns {
            let mut next = conn;
            while next < map.len() {
                sum += map.get(next).unwrap().block.block().number();
                next += conns;
            }
        }
        sum
    });
    assert!(sum > 0);
    assert_eq!(
        usage.allocations, 0,
        "strided replay must not allocate per record"
    );
}
