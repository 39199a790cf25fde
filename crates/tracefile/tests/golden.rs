//! Reader compatibility pin: the committed golden fixture
//! (`tests/data/golden.pct` at the repo root, 200 synthetic records,
//! seed 42) must keep decoding to exactly the same bytes forever. Any
//! change to the on-disk layout shows up here first — if this test
//! breaks, you changed the format, and that requires a version bump
//! plus a new reader arm, not a fixture regeneration.

use pc_crc::crc32c;
use pc_tracefile::{encode_record, read_trace, MappedTrace};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden.pct")
}

#[test]
fn golden_fixture_still_decodes_identically() {
    let path = golden_path();
    let reader = MappedTrace::open(&path).unwrap();
    let header = *reader.header();
    assert_eq!(header.version, 1);
    assert_eq!(header.disk_count, 20);
    assert_eq!(header.record_count, Some(200));
    assert_eq!(header.chunk_records, 4096);

    let trace = read_trace(&path).unwrap();
    assert_eq!(trace.len(), 200);

    // Content digest over the canonical re-encoding of every decoded
    // record, in time order — pins the decoded values, not just counts.
    let mut bytes = Vec::new();
    for r in trace.records() {
        bytes.extend_from_slice(&encode_record(r));
    }
    assert_eq!(
        crc32c(&bytes),
        2_326_633_462,
        "decoded records differ from the pinned golden content"
    );

    // The file on disk is also byte-stable: nothing regenerates it.
    let raw = std::fs::read(&path).unwrap();
    assert_eq!(raw.len(), 6464);
    assert_eq!(
        crc32c(&raw),
        3_419_270_115,
        "the committed fixture bytes changed"
    );
}
