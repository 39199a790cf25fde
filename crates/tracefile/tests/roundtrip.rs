//! Property tests for the `.pct` format against the real workload
//! generators: every family round-trips bit-exactly through the writer
//! and the decoder at awkward lengths, and no truncation, single-bit
//! corruption or malformed framing can crash the decoder — damage must
//! surface as a clean `io::Error` or leave the records untouched, never
//! a panic and never silently different data. Every check compares
//! against the records handed to the writer.

mod common;

use std::io::{self, ErrorKind};

use common::{family, image, temp_path};
use pc_crc::crc32c;
use pc_trace::Record;
use pc_tracefile::{
    encode_record, read_trace, Header, MappedTrace, CHUNK_FOOT_BYTES, CHUNK_HEAD_BYTES,
    HEADER_BYTES, RECORD_BYTES,
};

/// Decodes every record of a `.pct` image in file order.
fn decode(bytes: Vec<u8>) -> io::Result<Vec<Record>> {
    MappedTrace::from_bytes(bytes)?.records().collect()
}

#[test]
fn every_family_round_trips_at_awkward_lengths() {
    // Lengths straddling the chunk boundary: one, one less than a
    // chunk, exactly one chunk, one more, and several chunks plus a
    // remainder.
    for requests in [1usize, 63, 64, 65, 1_000] {
        for name in ["synthetic", "oltp", "cello96"] {
            let (disks, records) = family(name, requests, 7);
            let map = MappedTrace::from_bytes(image(disks, &records, 64)).unwrap();
            assert_eq!(map.len(), records.len() as u64);
            assert_eq!(map.disk_count(), disks);
            assert!(map.is_time_sorted(), "generators emit time-ordered records");
            let back: Vec<Record> = map.records().collect::<io::Result<_>>().unwrap();
            assert_eq!(back, records, "{name} x{requests} must round-trip");
            let trace = map.to_trace().unwrap();
            assert_eq!(trace.records(), records, "{name} x{requests} materialized");
        }
    }
}

#[test]
fn an_empty_trace_round_trips() {
    let bytes = image(4, &[], 64);
    assert_eq!(decode(bytes.clone()).unwrap(), Vec::new());
    let map = MappedTrace::from_bytes(bytes).unwrap();
    assert!(map.is_empty());
    assert!(map.to_trace().unwrap().is_empty());
}

#[test]
fn truncation_at_every_byte_fails_cleanly() {
    let (disks, records) = family("synthetic", 130, 3);
    let bytes = image(disks, &records, 64);
    // Every proper prefix must be rejected already at construction — a
    // truncated file can never masquerade as a complete one, because
    // the end marker (or the bytes before it) is missing.
    for cut in 0..bytes.len() {
        assert!(
            MappedTrace::from_bytes(bytes[..cut].to_vec()).is_err(),
            "prefix of {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }
    // One byte too many is as wrong as one too few.
    let mut long = bytes;
    long.push(0);
    assert!(MappedTrace::from_bytes(long).is_err());
}

#[test]
fn single_bit_flips_never_panic_and_never_corrupt_records() {
    let (disks, records) = family("oltp", 40, 5);
    let bytes = image(disks, &records, 16);
    // A deterministic sweep: flip every single bit of a multi-chunk
    // image (the last chunk partial), one at a time. Each damaged image
    // must either fail cleanly — at construction or at lazy-verify time
    // — or decode to exactly the original records: flips in record
    // payloads are caught by the chunk CRC, flips in structure by format
    // validation; a flip that widens a header geometry field (more
    // disks, larger chunk cap) may pass, but it cannot change the data.
    for pos in 0..bytes.len() * 8 {
        let mut damaged = bytes.clone();
        damaged[pos / 8] ^= 1 << (pos % 8);
        match decode(damaged) {
            Ok(back) => assert_eq!(back, records, "bit {pos} flip decoded to different records"),
            Err(e) => assert!(!e.to_string().is_empty(), "bit {pos}"),
        }
    }
}

/// One hand-framed chunk: head (count, reserved word), the encoded
/// records, and the CRC footer (CRC32C, reserved word).
fn chunk(records: &[Record]) -> Vec<u8> {
    let data: Vec<u8> = records.iter().flat_map(encode_record).collect();
    let count = u32::try_from(records.len()).unwrap().to_le_bytes();
    [
        &count[..],
        &[0; 4],
        &data,
        &crc32c(&data).to_le_bytes(),
        &[0; 4],
    ]
    .concat()
}

/// A header with a 4-record chunk cap followed by `chunks`.
fn framed(disks: u32, chunks: &[Vec<u8>]) -> Vec<u8> {
    [Header::new(disks, 4).encode().to_vec(), chunks.concat()].concat()
}

#[test]
fn malformed_images_are_rejected_alike_by_every_entry_point() {
    // Six records in chunks of 4: one full chunk, one partial, the end
    // marker.
    let (disks, records) = family("synthetic", 6, 11);
    let good = framed(
        disks,
        &[chunk(&records[..4]), chunk(&records[4..]), chunk(&[])],
    );
    assert_eq!(
        good,
        image(disks, &records, 4),
        "hand framing matches the writer"
    );
    let first_foot = HEADER_BYTES + CHUNK_HEAD_BYTES + 4 * RECORD_BYTES;
    let end_marker = good.len() - CHUNK_HEAD_BYTES - CHUNK_FOOT_BYTES;
    let counted = Header {
        record_count: Some(5),
        ..Header::new(disks, 4)
    };
    let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = good.clone();
        edit(&mut bytes);
        bytes
    };

    let cases: [(&str, Vec<u8>, ErrorKind); 8] = [
        (
            "a partial chunk followed by data",
            framed(
                disks,
                &[chunk(&records[..2]), chunk(&records[2..4]), chunk(&[])],
            ),
            ErrorKind::InvalidData,
        ),
        (
            "a chunk count above the header's cap",
            framed(disks, &[chunk(&records[..5]), chunk(&[])]),
            ErrorKind::InvalidData,
        ),
        (
            "non-zero reserved chunk-head bytes",
            edited(&|b| b[HEADER_BYTES + 4] = 1),
            ErrorKind::InvalidData,
        ),
        (
            "non-zero reserved chunk-footer bytes",
            edited(&|b| b[first_foot + 4] = 1),
            ErrorKind::InvalidData,
        ),
        (
            "a flipped bit in the end-marker CRC",
            edited(&|b| b[end_marker + CHUNK_HEAD_BYTES] ^= 1),
            ErrorKind::InvalidData,
        ),
        (
            "a missing end marker",
            edited(&|b| b.truncate(end_marker)),
            ErrorKind::UnexpectedEof,
        ),
        (
            "one trailing byte",
            edited(&|b| b.push(0)),
            ErrorKind::InvalidData,
        ),
        (
            "a declared count that disagrees with the chunks",
            edited(&|b| b[..HEADER_BYTES].copy_from_slice(&counted.encode())),
            ErrorKind::InvalidData,
        ),
    ];
    for (i, (case, bytes, kind)) in cases.into_iter().enumerate() {
        let path = temp_path(&format!("malformed-{i}"));
        std::fs::write(&path, &bytes).unwrap();
        let via_file = read_trace(&path).err().map(|e| e.kind());
        std::fs::remove_file(&path).unwrap();
        let via_bytes = MappedTrace::from_bytes(bytes).err().map(|e| e.kind());
        assert_eq!(via_file, Some(kind), "{case}: read_trace");
        assert_eq!(via_bytes, Some(kind), "{case}: MappedTrace::from_bytes");
    }
}

#[test]
fn record_size_is_pinned() {
    // The on-disk record is part of the compatibility contract; growing
    // it requires a format version bump, not a silent relayout.
    assert_eq!(RECORD_BYTES, 32);
}
