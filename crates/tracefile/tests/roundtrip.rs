//! Property tests for the `.pct` format against the real workload
//! generators: every family round-trips bit-exactly through the
//! writer/reader pair at awkward lengths, and no single-bit corruption
//! or truncation can crash the reader — damage must surface as a clean
//! `io::Error` or leave the records untouched, never a panic and never
//! silently different data.

use pc_trace::{Record, Workload};
use pc_tracefile::{MappedTrace, TraceReader, TraceWriter, RECORD_BYTES};

/// Serializes `records` into an in-memory `.pct` image with the given
/// chunk size.
fn image(disk_count: u32, records: &[Record], chunk_records: u32) -> Vec<u8> {
    let mut writer =
        TraceWriter::with_chunk_records(Vec::new(), disk_count, chunk_records).unwrap();
    for r in records {
        writer.push(*r).unwrap();
    }
    writer.finish().unwrap().0
}

/// Reads every record back out of a `.pct` image.
fn decode(bytes: &[u8]) -> std::io::Result<Vec<Record>> {
    TraceReader::new(bytes)?.collect()
}

#[test]
fn every_family_round_trips_at_awkward_lengths() {
    // Lengths straddling the chunk boundary: one, one less than a
    // chunk, exactly one chunk, one more, and several chunks plus a
    // remainder.
    for requests in [1usize, 63, 64, 65, 1_000] {
        for name in ["synthetic", "oltp", "cello96"] {
            let workload = Workload::parse(name).unwrap().with_requests(requests);
            let records: Vec<Record> = workload.stream(7).collect();
            let bytes = image(workload.disk_count(), &records, 64);
            let back = decode(&bytes).unwrap();
            assert_eq!(records, back, "{name} x{requests} must round-trip");
        }
    }
}

#[test]
fn an_empty_trace_round_trips() {
    let bytes = image(4, &[], 64);
    assert_eq!(decode(&bytes).unwrap(), Vec::new());
    assert!(MappedTrace::from_bytes(bytes).unwrap().is_empty());
}

#[test]
fn truncation_at_every_byte_fails_cleanly() {
    let workload = Workload::parse("synthetic").unwrap().with_requests(130);
    let records: Vec<Record> = workload.stream(3).collect();
    let bytes = image(workload.disk_count(), &records, 64);
    // Every proper prefix must produce an error — a truncated file can
    // never masquerade as a complete one, because the end marker (or
    // the bytes before it) is missing. Both decoders, and the mapped
    // one already at construction.
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err()
                && MappedTrace::from_bytes(bytes[..cut].to_vec()).is_err(),
            "prefix of {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }
    // One byte too many is as wrong as one too few.
    let mut long = bytes;
    long.push(0);
    assert!(decode(&long).is_err() && MappedTrace::from_bytes(long).is_err());
}

#[test]
fn single_bit_flips_never_panic_and_never_corrupt_records() {
    let workload = Workload::parse("oltp").unwrap().with_requests(40);
    let records: Vec<Record> = workload.stream(5).collect();
    let bytes = image(workload.disk_count(), &records, 16);
    // A deterministic sweep: flip every single bit of the image, one at
    // a time. Each damaged image must either fail cleanly or decode to
    // exactly the original records — flips in record payloads are
    // caught by the chunk CRC, flips in structure by format validation;
    // a flip that widens a header geometry field (more disks, larger
    // chunk cap) may pass, but it cannot change the data.
    for pos in 0..bytes.len() * 8 {
        let mut damaged = bytes.clone();
        damaged[pos / 8] ^= 1 << (pos % 8);
        match decode(&damaged) {
            Ok(back) => assert_eq!(back, records, "bit {pos} flip decoded to different records"),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
}

#[test]
fn record_size_is_pinned() {
    // The on-disk record is part of the compatibility contract; growing
    // it requires a format version bump, not a silent relayout.
    assert_eq!(RECORD_BYTES, 32);
}
