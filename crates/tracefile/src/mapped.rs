//! The `.pct` decoder: lazily-verified random access over a
//! memory-mapped file, and the materializing [`read_trace`] on top.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use pc_crc::crc32c;
use pc_trace::{Record, Trace};

use crate::format::{bad, decode_record, Header, HEADER_BYTES, RECORD_BYTES};
use crate::mmap::Mapping;
use crate::{CHUNK_FOOT_BYTES, CHUNK_HEAD_BYTES};

/// The bytes behind a [`MappedTrace`]: a live kernel mapping for files,
/// or an owned buffer for in-memory use and tests.
#[derive(Debug)]
enum Backing {
    Map(Mapping),
    Heap(Box<[u8]>),
}

impl Backing {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Backing::Map(m) => m.as_bytes(),
            Backing::Heap(b) => b,
        }
    }
}

/// An mmap-backed random-access view over a `.pct` file with lazy
/// per-chunk CRC verification: random access without reading — let
/// alone checksumming — the whole file first.
///
/// Construction maps the file and makes one *structural* pass: header,
/// chunk framing, regularity, reserved bytes, the end marker's CRC, and
/// the declared record count are all checked, and the pass notes whether
/// record times are non-decreasing in file order (see
/// [`MappedTrace::is_time_sorted`]). Record *bytes* are not touched
/// beyond their time fields: each chunk's CRC32C is verified on first
/// access to any of its records, exactly once, tracked in an atomic
/// bitmap — so opening a multi-gigabyte trace is cheap, streaming it
/// verifies every chunk on the way through, and a corrupt chunk
/// surfaces as a clean `InvalidData` error at first touch, never a
/// panic and never a silently-served bad record.
///
/// The type is `Sync`: the bitmap is atomic (two threads racing to
/// verify the same chunk both check the same immutable bytes), so a
/// sweep can fan one map out across worker threads.
///
/// # Examples
///
/// ```
/// use pc_tracefile::{MappedTrace, TraceWriter};
/// use pc_trace::{IoOp, Record};
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let mut w = TraceWriter::new(Vec::new(), 1).unwrap();
/// for i in 0..10 {
///     w.push(Record::new(
///         SimTime::from_micros(i),
///         BlockId::new(DiskId::new(0), BlockNo::new(i)),
///         IoOp::Read,
///     ))
///     .unwrap();
/// }
/// let (bytes, _) = w.finish().unwrap();
/// let map = MappedTrace::from_bytes(bytes).unwrap();
/// assert_eq!(map.len(), 10);
/// assert!(map.is_time_sorted());
/// assert_eq!(map.get(7).unwrap().block.block().number(), 7);
/// ```
#[derive(Debug)]
pub struct MappedTrace {
    backing: Backing,
    header: Header,
    len: u64,
    time_sorted: bool,
    /// One bit per data chunk, set once that chunk's CRC has verified.
    verified: Box<[AtomicU64]>,
    /// Total CRC computations performed (diagnostic: proves laziness —
    /// never exceeds the chunk count, stays at zero until first access).
    crc_computations: AtomicU64,
}

impl MappedTrace {
    /// Memory-maps `path` and validates its structure (not its record
    /// bytes — those verify lazily, per chunk, on first access).
    ///
    /// # Errors
    ///
    /// Returns any file-system or `mmap` error, `UnexpectedEof` on
    /// truncation, and `InvalidData` on any structural violation: bad
    /// header, irregular chunking, non-zero reserved bytes, a corrupt
    /// end marker, or a declared record count that disagrees with the
    /// chunk framing.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<MappedTrace> {
        MappedTrace::from_backing(Backing::Map(Mapping::open(path.as_ref())?))
    }

    /// Builds the same lazily-verified view over owned bytes — for
    /// in-memory traces and tests; no file or mapping involved.
    ///
    /// # Errors
    ///
    /// Same structural errors as [`MappedTrace::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<MappedTrace> {
        MappedTrace::from_backing(Backing::Heap(bytes.into_boxed_slice()))
    }

    /// The structural validation pass: chunk framing, reserved bytes,
    /// the end marker's CRC, trailing bytes, the declared count — plus
    /// a scan of each record's time field (bytes only, no decode, no
    /// data CRC) to detect already-time-sorted files.
    fn from_backing(backing: Backing) -> io::Result<MappedTrace> {
        let bytes = backing.as_bytes();
        let eof =
            |what: &str| io::Error::new(io::ErrorKind::UnexpectedEof, format!("truncated {what}"));
        let head: &[u8; HEADER_BYTES] = bytes
            .get(..HEADER_BYTES)
            .ok_or_else(|| eof("trace file: incomplete header"))?
            .try_into()
            .unwrap();
        let header = Header::decode(head)?;
        let mut off = HEADER_BYTES;
        let mut len: u64 = 0;
        let mut saw_partial = false;
        let mut time_sorted = true;
        let mut last_time: u64 = 0;
        loop {
            let chunk_head = bytes
                .get(off..off + CHUNK_HEAD_BYTES)
                .ok_or_else(|| eof("trace file: stream ends mid-chunk (missing end marker)"))?;
            let count = u32::from_le_bytes(chunk_head[0..4].try_into().unwrap());
            if chunk_head[4..8] != [0u8; 4] {
                return Err(bad("non-zero reserved chunk-head bytes".into()));
            }
            if count > header.chunk_records {
                return Err(bad(format!(
                    "chunk holds {count} records but the header caps chunks at {}",
                    header.chunk_records
                )));
            }
            if saw_partial && count != 0 {
                return Err(bad(
                    "irregular chunking: data follows a partial chunk".into()
                ));
            }
            off += CHUNK_HEAD_BYTES;
            let data_len = count as usize * RECORD_BYTES;
            let data = bytes
                .get(off..off + data_len)
                .ok_or_else(|| eof("trace file: stream ends mid-chunk (missing end marker)"))?;
            off += data_len;
            let foot = bytes
                .get(off..off + CHUNK_FOOT_BYTES)
                .ok_or_else(|| eof("trace file: stream ends mid-chunk (missing end marker)"))?;
            off += CHUNK_FOOT_BYTES;
            if foot[4..8] != [0u8; 4] {
                return Err(bad("non-zero reserved chunk-footer bytes".into()));
            }
            if count == 0 {
                // The end marker guards no record bytes, so lazy
                // verification would never revisit it — check its CRC
                // (of zero bytes) eagerly or a flip there would hide.
                let stored = u32::from_le_bytes(foot[0..4].try_into().unwrap());
                let computed = crc32c(data);
                if stored != computed {
                    return Err(bad(format!(
                        "chunk CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                    )));
                }
                break;
            }
            for rec in data.chunks_exact(RECORD_BYTES) {
                let time = u64::from_le_bytes(rec[0..8].try_into().unwrap());
                if time < last_time {
                    time_sorted = false;
                }
                last_time = time;
            }
            len += u64::from(count);
            if count < header.chunk_records {
                saw_partial = true;
            }
        }
        if off != bytes.len() {
            return Err(bad("trailing bytes after the end marker".into()));
        }
        if let Some(declared) = header.record_count {
            if declared != len {
                return Err(bad(format!(
                    "header declares {declared} records but the file holds {len}"
                )));
            }
        }
        let data_chunks = len.div_ceil(u64::from(header.chunk_records));
        let words = usize::try_from(data_chunks.div_ceil(64)).expect("chunk bitmap fits in memory");
        let verified = (0..words).map(|_| AtomicU64::new(0)).collect();
        Ok(MappedTrace {
            backing,
            header,
            len,
            time_sorted,
            verified,
            crc_computations: AtomicU64::new(0),
        })
    }

    /// The decoded file header.
    #[must_use]
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of disks the trace addresses.
    #[must_use]
    pub fn disk_count(&self) -> u32 {
        self.header.disk_count
    }

    /// Number of records in the file.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` for a record-less file.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether file order is already non-decreasing in time, as noted
    /// during the structural pass. Exports and finalized captures are;
    /// a sorted map can feed the simulator directly, with no
    /// materialize-and-sort step.
    #[must_use]
    pub fn is_time_sorted(&self) -> bool {
        self.time_sorted
    }

    /// Byte offset of data chunk `chunk`'s first record. Every chunk
    /// before it is full: the structural pass rejects irregular chunking.
    fn chunk_data_start(&self, chunk: u64) -> usize {
        let full_chunk = (CHUNK_HEAD_BYTES + CHUNK_FOOT_BYTES) as u64
            + u64::from(self.header.chunk_records) * RECORD_BYTES as u64;
        let start = HEADER_BYTES as u64 + chunk * full_chunk + CHUNK_HEAD_BYTES as u64;
        usize::try_from(start).expect("validated file fits in memory")
    }

    /// Byte extent of data chunk `chunk`: its record bytes and stored CRC.
    fn chunk_extent(&self, chunk: u64) -> (&[u8], u32) {
        let per = u64::from(self.header.chunk_records);
        let count = per.min(self.len - chunk * per);
        let start = self.chunk_data_start(chunk);
        let data_len = usize::try_from(count).unwrap() * RECORD_BYTES;
        let bytes = self.backing.as_bytes();
        let data = &bytes[start..start + data_len];
        let stored = u32::from_le_bytes(
            bytes[start + data_len..start + data_len + 4]
                .try_into()
                .unwrap(),
        );
        (data, stored)
    }

    /// Verifies chunk `chunk`'s CRC if this is its first touch.
    fn ensure_verified(&self, chunk: u64) -> io::Result<()> {
        let word = usize::try_from(chunk / 64).unwrap();
        let bit = 1u64 << (chunk % 64);
        // Relaxed throughout: the guarded bytes are immutable, so the
        // bitmap only dedups work — two threads racing to verify the
        // same chunk both check the same bytes and agree.
        if self.verified[word].load(Ordering::Relaxed) & bit != 0 {
            return Ok(());
        }
        let (data, stored) = self.chunk_extent(chunk);
        let computed = crc32c(data);
        self.crc_computations.fetch_add(1, Ordering::Relaxed);
        if stored != computed {
            return Err(bad(format!(
                "chunk CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        self.verified[word].fetch_or(bit, Ordering::Relaxed);
        Ok(())
    }

    /// Returns record `index` in file order, verifying its chunk's CRC
    /// first if this is the chunk's first touch.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the chunk's CRC does not match or the
    /// record's fields are malformed.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn get(&self, index: u64) -> io::Result<Record> {
        assert!(index < self.len, "record {index} out of range {}", self.len);
        let per = u64::from(self.header.chunk_records);
        let (chunk, within) = (index / per, index % per);
        self.ensure_verified(chunk)?;
        let within = usize::try_from(within).expect("chunk positions fit in a u32");
        let off = self.chunk_data_start(chunk) + within * RECORD_BYTES;
        let bytes: &[u8; RECORD_BYTES] = self.backing.as_bytes()[off..off + RECORD_BYTES]
            .try_into()
            .unwrap();
        decode_record(bytes, self.header.disk_count)
    }

    /// Streams the records in file order with no per-record allocation;
    /// each chunk's CRC verifies as the stream first enters it. An error
    /// is terminal.
    #[must_use]
    pub fn records(&self) -> Records<'_> {
        Records {
            map: self,
            next: 0,
            done: false,
        }
    }

    /// Materializes the whole file as a [`Trace`], stably sorted by
    /// arrival time (live captures interleave connections, so file order
    /// need not be time order). A time-sorted map skips the sort; the
    /// result is identical either way, since a stable sort of sorted
    /// input is the identity.
    ///
    /// # Errors
    ///
    /// Returns the first CRC or record-field error.
    pub fn to_trace(&self) -> io::Result<Trace> {
        let mut records = Vec::with_capacity(usize::try_from(self.len).unwrap_or(0));
        for record in self.records() {
            records.push(record?);
        }
        if !self.time_sorted {
            records.sort_by_key(|r| r.time);
        }
        Ok(Trace::from_records(self.disk_count(), records))
    }

    /// Verifies every chunk's CRC and every record's fields in one pass.
    ///
    /// # Errors
    ///
    /// Returns the first CRC or record-field error.
    pub fn verify_all(&self) -> io::Result<()> {
        for record in self.records() {
            record?;
        }
        Ok(())
    }

    /// Number of chunks whose CRCs have been verified so far
    /// (diagnostic: lets tests pin the lazy-verification contract).
    #[must_use]
    pub fn verified_chunks(&self) -> u64 {
        self.verified
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }

    /// Total CRC computations performed so far (diagnostic: proves each
    /// chunk is checksummed at most once per map, and only on touch).
    #[must_use]
    pub fn crc_computations(&self) -> u64 {
        self.crc_computations.load(Ordering::Relaxed)
    }
}

/// Reads a whole file into a [`Trace`]: [`MappedTrace::open`] then
/// [`MappedTrace::to_trace`].
///
/// # Errors
///
/// Returns any I/O, CRC, or format error.
pub fn read_trace<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
    MappedTrace::open(path)?.to_trace()
}

/// Zero-allocation iterator over a [`MappedTrace`]'s records in file
/// order, from [`MappedTrace::records`]. An error is terminal.
#[derive(Debug)]
pub struct Records<'a> {
    map: &'a MappedTrace,
    next: u64,
    done: bool,
}

impl Iterator for Records<'_> {
    type Item = io::Result<Record>;

    fn next(&mut self) -> Option<io::Result<Record>> {
        if self.done || self.next == self.map.len {
            return None;
        }
        match self.map.get(self.next) {
            Ok(record) => {
                self.next += 1;
                Some(Ok(record))
            }
            Err(e) => {
                // An error is terminal: don't spin on a corrupt map.
                self.done = true;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let left = usize::try_from(self.map.len - self.next).unwrap_or(usize::MAX);
        // A corrupt chunk truncates the stream, so only the upper bound
        // is exact.
        (0, Some(left))
    }
}
