//! Binary `.pct` trace files.
//!
//! The batch drivers and the load generator both speak [`pc_trace`]
//! records; this crate gives those records a compact, versioned on-disk
//! form so traces can move between processes and machines: the synthetic
//! generators export to files, `pc-server --capture` records live load,
//! and `pc-loadgen --trace` / the batch harness replay either without
//! recompiling.
//!
//! The format is fixed-width little-endian throughout: a 32-byte header
//! (magic, version, disk geometry, record count) followed by chunks of
//! 32-byte records, each chunk closed by a CRC32C footer (computed by
//! [`pc_crc`]), and a zero-record chunk as the end-of-stream marker.
//!
//! [`MappedTrace`] is the one decoder. It memory-maps a file itself (a
//! first-party `mmap(2)` wrapper, the crate's only `unsafe`) and
//! verifies chunk CRCs lazily, on first touch, so opening a
//! multi-gigabyte trace is O(1) and replay streams straight off the page
//! cache with no per-record allocation. Callers that need the whole
//! trace in memory materialize it with [`MappedTrace::to_trace`] (or
//! [`read_trace`] for a path), which sorts a time-unsorted capture.
//!
//! Corrupt input — truncation, bit flips, bad geometry — always surfaces
//! as a clean [`std::io::Error`], never a panic.
//!
//! # Examples
//!
//! ```
//! use pc_trace::Workload;
//! use pc_tracefile::{MappedTrace, TraceWriter};
//!
//! // Export 100 synthetic records to an in-memory "file"...
//! let workload = Workload::parse("synthetic").unwrap().with_requests(100);
//! let mut writer = TraceWriter::new(Vec::new(), workload.disk_count()).unwrap();
//! for record in workload.stream(7) {
//!     writer.push(record).unwrap();
//! }
//! let (bytes, count) = writer.finish().unwrap();
//! assert_eq!(count, 100);
//!
//! // ...and replaying it yields the exact same records.
//! let trace = MappedTrace::from_bytes(bytes).unwrap().to_trace().unwrap();
//! assert_eq!(trace.records(), workload.stream(7).collect::<Vec<_>>());
//! ```

// `deny` rather than `forbid`: all unsafe lives in the `mmap` module,
// which opts in explicitly; everything else stays checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod format;
mod mapped;
#[allow(unsafe_code)]
mod mmap;
mod writer;

pub use format::{
    decode_record, encode_record, Header, CHUNK_FOOT_BYTES, CHUNK_HEAD_BYTES,
    DEFAULT_CHUNK_RECORDS, FORMAT_VERSION, HEADER_BYTES, MAGIC, RECORD_BYTES, RECORD_COUNT_UNKNOWN,
};
pub use mapped::{read_trace, MappedTrace, Records};
pub use writer::{write_records, write_trace, TraceFileWriter, TraceWriter};
