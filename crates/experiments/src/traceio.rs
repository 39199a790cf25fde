//! `repro trace` — export the generator workloads to binary `.pct`
//! trace files and inspect existing files.
//!
//! Exporting materializes a [`Workload`] stream — the same streams the
//! load generator and the batch simulator consume — into the
//! [`pc_tracefile`] on-disk format, so a workload can be generated
//! once and replayed everywhere: `pc-loadgen --trace` drives it over
//! the wire, `repro <experiment> --trace` feeds it to the batch
//! harness, and the determinism bridge holds — a trace exported to a
//! file and read back simulates byte-identically to the in-memory
//! stream it came from (see `tests/end_to_end.rs`).

use std::io;
use std::path::Path;

use pc_trace::{TraceStats, Workload};

/// Exports a workload stream to a binary `.pct` trace file, returning
/// the record count written.
///
/// The stream is written record by record — the eager generators
/// (OLTP/Cello) are already materialized, and the lazy synthetic
/// stream never needs to be.
///
/// # Errors
///
/// Propagates file-system errors from creating and writing the file.
pub fn export(workload: &Workload, seed: u64, path: &Path) -> io::Result<u64> {
    pc_tracefile::write_records(path, workload.disk_count(), workload.stream(seed))
}

/// Reads a `.pct` file and renders a one-paragraph description: header
/// geometry plus the workload-shape statistics ([`TraceStats`]).
///
/// # Errors
///
/// Propagates read failures and format/CRC violations.
pub fn info(path: &Path) -> io::Result<String> {
    let map = pc_tracefile::MappedTrace::open(path)?;
    let (header, trace) = (map.header(), map.to_trace()?);
    let s = TraceStats::of(&trace);
    Ok(format!(
        "format=v{} disks={} records={} chunk_records={}\n\
         requests={} writes={:.1}% mean-gap={} cold={:.1}% unique-blocks={}\n",
        header.version,
        header.disk_count,
        trace.len(),
        header.chunk_records,
        s.requests,
        s.write_fraction * 100.0,
        s.mean_interarrival,
        s.cold_fraction * 100.0,
        s.unique_blocks,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pc-traceio-{tag}-{}.pct", std::process::id()))
    }

    #[test]
    fn export_then_info_round_trips_every_family() {
        for name in ["synthetic", "oltp", "cello96"] {
            let path = temp(name);
            let workload = Workload::parse(name).unwrap().with_requests(600);
            let written = export(&workload, 9, &path).unwrap();
            assert_eq!(written, 600, "{name}");

            let trace = pc_tracefile::read_trace(&path).unwrap();
            let direct: Vec<_> = workload.stream(9).collect();
            assert_eq!(trace.records(), &direct[..], "{name}: file != stream");

            let text = info(&path).unwrap();
            assert!(text.contains("records=600"), "{name}: {text}");
            assert!(
                text.contains(&format!("disks={}", workload.disk_count())),
                "{name}: {text}"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn info_refuses_a_damaged_file() {
        let path = temp("damaged");
        let workload = Workload::parse("synthetic").unwrap().with_requests(50);
        export(&workload, 1, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = info(&path).expect_err("bit flip must not pass");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }
}
