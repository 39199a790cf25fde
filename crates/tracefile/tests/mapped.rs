//! Integration tests for the mmap-backed decoder's own contract on
//! files: it reads real files with random access, streams and
//! materializes (`read_trace`) identical records from a file whose
//! header declares its record count, verifies chunks lazily (first
//! touch only, never twice), flags unsorted files, and `verify_all`
//! catches payload damage before replay. Round trips and damage sweeps
//! of in-memory images (record count unknown) live in `roundtrip.rs`.

mod common;

use std::path::Path;

use common::{family, image, temp_path};
use pc_trace::Record;
use pc_tracefile::{read_trace, MappedTrace, TraceFileWriter};

/// Writes `records` to a file through the seekable writer, so the
/// header carries the declared record count.
fn write_file(path: &Path, disk_count: u32, records: &[Record], chunk_records: u32) {
    let mut writer = TraceFileWriter::with_chunk_records(path, disk_count, chunk_records).unwrap();
    for r in records {
        writer.push(*r).unwrap();
    }
    assert_eq!(writer.finish().unwrap(), records.len() as u64);
}

#[test]
fn mapped_and_reader_decode_identical_records() {
    // The streaming view and the materializing `read_trace` must agree
    // with the writer's records on files with a declared count, at
    // lengths straddling the chunk boundary.
    let path = temp_path("declared");
    for requests in [1usize, 63, 64, 65, 1_000] {
        for name in ["synthetic", "oltp", "cello96"] {
            let (disks, records) = family(name, requests, 7);
            write_file(&path, disks, &records, 64);
            let map = MappedTrace::open(&path).unwrap();
            assert_eq!(map.header().record_count, Some(records.len() as u64));
            assert_eq!(map.len(), records.len() as u64);
            assert_eq!(map.disk_count(), disks);
            assert!(map.is_time_sorted(), "generators emit time-ordered records");
            let via_map: Vec<Record> = map.records().collect::<std::io::Result<_>>().unwrap();
            assert_eq!(via_map, records, "{name} x{requests}");
            let via_reader = read_trace(&path).unwrap();
            assert_eq!(via_reader.disk_count(), disks);
            assert_eq!(via_reader.records(), records, "{name} x{requests}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mapped_open_reads_a_real_file_and_random_access_matches() {
    let (disks, records) = family("oltp", 200, 9);
    let path = temp_path("open");
    std::fs::write(&path, image(disks, &records, 32)).unwrap();
    let map = MappedTrace::open(&path).unwrap();
    for (i, expected) in records.iter().enumerate() {
        assert_eq!(&map.get(i as u64).unwrap(), expected, "record {i}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn verification_is_lazy_and_happens_once() {
    // 256 records in chunks of 32 → 8 data chunks.
    let (disks, records) = family("synthetic", 256, 3);
    let map = MappedTrace::from_bytes(image(disks, &records, 32)).unwrap();
    assert_eq!(
        map.verified_chunks(),
        0,
        "construction must not touch data CRCs"
    );
    assert_eq!(map.crc_computations(), 0);

    // Touching one record verifies exactly its chunk.
    map.get(40).unwrap();
    assert_eq!(map.verified_chunks(), 1);
    assert_eq!(map.crc_computations(), 1);

    // Re-touching the same chunk recomputes nothing.
    map.get(41).unwrap();
    assert_eq!(map.crc_computations(), 1);

    // A full pass verifies the rest; a second full pass recomputes nothing.
    assert_eq!(map.records().count(), 256);
    assert_eq!(map.verified_chunks(), 8);
    assert_eq!(map.crc_computations(), 8);
    assert_eq!(map.records().count(), 256);
    assert_eq!(map.crc_computations(), 8);
}

#[test]
fn unsorted_files_are_flagged() {
    let (disks, mut records) = family("synthetic", 100, 5);
    records.swap(10, 90);
    let map = MappedTrace::from_bytes(image(disks, &records, 32)).unwrap();
    assert!(!map.is_time_sorted());
    // Materializing sorts stably by time.
    records.sort_by_key(|r| r.time);
    assert_eq!(map.to_trace().unwrap().records(), records);
}

#[test]
fn every_single_bit_flip_fails_cleanly_or_decodes_identically() {
    // Small on purpose: 10 records in chunks of 4 is still a multi-chunk
    // file (3 data chunks, the last partial) but keeps the sweep at
    // ~2,600 images. The file carries a declared record count, so flips
    // in that field are swept too. Every flip must surface as a clean
    // error — at construction or at lazy-verify time — or materialize
    // to exactly the original records (a flip that widens a header
    // geometry field can pass validation without changing data).
    let (disks, records) = family("oltp", 10, 1);
    let path = temp_path("flip");
    write_file(&path, disks, &records, 4);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for pos in 0..bytes.len() * 8 {
        let mut damaged = bytes.clone();
        damaged[pos / 8] ^= 1 << (pos % 8);
        match MappedTrace::from_bytes(damaged).and_then(|map| map.to_trace()) {
            Ok(back) => assert_eq!(
                back.records(),
                records,
                "bit {pos} flip decoded to different records"
            ),
            Err(e) => assert!(!e.to_string().is_empty(), "bit {pos}"),
        }
    }
}

#[test]
fn verify_all_rejects_a_payload_flip_before_replay() {
    // The loadgen path calls verify_all() up front; a flipped record
    // byte must be caught there, not at serve time.
    let (disks, records) = family("synthetic", 64, 2);
    let mut bytes = image(disks, &records, 16);
    // Byte 8 past the first chunk head lands inside record payload.
    let off = pc_tracefile::HEADER_BYTES + 8 + 8;
    bytes[off] ^= 0x10;
    let map = MappedTrace::from_bytes(bytes).unwrap();
    let err = map.verify_all().unwrap_err();
    assert!(err.to_string().contains("CRC"), "got: {err}");
}
