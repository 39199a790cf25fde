//! Helpers shared by the `.pct` integration tests.

use pc_trace::{Record, Workload};
use pc_tracefile::TraceWriter;

/// Serializes `records` into an in-memory `.pct` image with the given
/// chunk size. A plain `Vec` sink cannot seek, so the header's record
/// count stays "unknown".
pub fn image(disk_count: u32, records: &[Record], chunk_records: u32) -> Vec<u8> {
    let mut writer =
        TraceWriter::with_chunk_records(Vec::new(), disk_count, chunk_records).unwrap();
    for r in records {
        writer.push(*r).unwrap();
    }
    writer.finish().unwrap().0
}

/// The first `requests` records of generator family `name` at `seed`,
/// with the family's disk count.
pub fn family(name: &str, requests: usize, seed: u64) -> (u32, Vec<Record>) {
    let workload = Workload::parse(name).unwrap().with_requests(requests);
    let records = workload.stream(seed).collect();
    (workload.disk_count(), records)
}

/// A scratch file under the system temp dir, unique per tag and process.
pub fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pc-tracefile-{tag}-{}.pct", std::process::id()))
}
