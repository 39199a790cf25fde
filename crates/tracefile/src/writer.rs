//! Streaming `.pct` writers.

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use pc_crc::crc32c;
use pc_trace::{Record, Trace};

use crate::format::{bad, Header, DEFAULT_CHUNK_RECORDS};
use crate::{encode_record, RECORD_COUNT_UNKNOWN};

/// Streams records into any [`Write`] sink in `.pct` format.
///
/// Records are buffered into fixed-capacity chunks; each full chunk is
/// flushed with a CRC32C footer. [`TraceWriter::finish`] flushes the final
/// partial chunk and the end-of-stream marker. Because a plain `Write`
/// sink cannot seek, the header's record count is left as "unknown" —
/// use [`TraceFileWriter`] (or [`write_records`]) for seekable files,
/// which patch the true count into the header on finish.
///
/// # Examples
///
/// ```
/// use pc_tracefile::{MappedTrace, TraceWriter};
/// use pc_trace::{IoOp, Record};
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let rec = Record::new(
///     SimTime::from_millis(5),
///     BlockId::new(DiskId::new(1), BlockNo::new(42)),
///     IoOp::Write,
/// );
/// let mut w = TraceWriter::new(Vec::new(), 2).unwrap();
/// w.push(rec).unwrap();
/// let (bytes, count) = w.finish().unwrap();
/// assert_eq!(count, 1);
/// let map = MappedTrace::from_bytes(bytes).unwrap();
/// assert_eq!(map.header().record_count, None, "a plain sink cannot patch the count");
/// assert_eq!(map.get(0).unwrap(), rec);
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    disk_count: u32,
    chunk_records: u32,
    /// Encoded records of the chunk being built.
    chunk: Vec<u8>,
    in_chunk: u32,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a new trace over `disk_count` disks, writing the header
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for a zero disk count, or any sink error.
    pub fn new(sink: W, disk_count: u32) -> io::Result<TraceWriter<W>> {
        TraceWriter::with_chunk_records(sink, disk_count, DEFAULT_CHUNK_RECORDS)
    }

    /// Like [`TraceWriter::new`] with an explicit chunk capacity (mostly
    /// for tests exercising chunk boundaries).
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for zero geometry, or any sink error.
    pub fn with_chunk_records(
        mut sink: W,
        disk_count: u32,
        chunk_records: u32,
    ) -> io::Result<TraceWriter<W>> {
        if disk_count == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "trace must span at least one disk",
            ));
        }
        if chunk_records == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "chunks must hold at least one record",
            ));
        }
        sink.write_all(&Header::new(disk_count, chunk_records).encode())?;
        Ok(TraceWriter {
            sink,
            disk_count,
            chunk_records,
            chunk: Vec::with_capacity(chunk_records as usize * crate::RECORD_BYTES),
            in_chunk: 0,
            written: 0,
        })
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Appends one record.
    ///
    /// Records may arrive in any time order (live capture interleaves
    /// connections); readers that need a sorted [`Trace`] re-sort stably.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` if the record addresses a disk outside the
    /// header's geometry or transfers zero blocks, or any sink error.
    pub fn push(&mut self, record: Record) -> io::Result<()> {
        if record.block.disk().index() >= self.disk_count {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record addresses {} but the trace has {} disks",
                    record.block.disk(),
                    self.disk_count
                ),
            ));
        }
        if record.blocks == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record transfers zero blocks",
            ));
        }
        self.chunk.extend_from_slice(&encode_record(&record));
        self.in_chunk += 1;
        self.written += 1;
        if self.in_chunk == self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Writes the buffered chunk (head, records, CRC footer) to the sink.
    fn flush_chunk(&mut self) -> io::Result<()> {
        let mut head = [0u8; crate::CHUNK_HEAD_BYTES];
        head[0..4].copy_from_slice(&self.in_chunk.to_le_bytes());
        self.sink.write_all(&head)?;
        self.sink.write_all(&self.chunk)?;
        let mut foot = [0u8; crate::CHUNK_FOOT_BYTES];
        foot[0..4].copy_from_slice(&crc32c(&self.chunk).to_le_bytes());
        self.sink.write_all(&foot)?;
        self.chunk.clear();
        self.in_chunk = 0;
        Ok(())
    }

    /// Flushes the final partial chunk and the end-of-stream marker,
    /// returning the sink and the total record count.
    ///
    /// # Errors
    ///
    /// Returns any sink error.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        if self.in_chunk > 0 {
            self.flush_chunk()?;
        }
        // End marker: an empty chunk (count 0, CRC of zero bytes).
        self.flush_chunk()?;
        self.sink.flush()?;
        Ok((self.sink, self.written))
    }
}

/// A [`TraceWriter`] over a buffered file that patches the true record
/// count into the header when finished, so [`MappedTrace`](crate::MappedTrace)
/// checks the total against the chunks.
#[derive(Debug)]
pub struct TraceFileWriter {
    inner: TraceWriter<BufWriter<File>>,
}

impl TraceFileWriter {
    /// Creates (truncating) `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Returns any file-system error, or `InvalidInput` for zero geometry.
    pub fn create<P: AsRef<Path>>(path: P, disk_count: u32) -> io::Result<TraceFileWriter> {
        Self::with_chunk_records(path, disk_count, DEFAULT_CHUNK_RECORDS)
    }

    /// Like [`TraceFileWriter::create`] with an explicit chunk capacity.
    ///
    /// # Errors
    ///
    /// Returns any file-system error, or `InvalidInput` for zero geometry.
    pub fn with_chunk_records<P: AsRef<Path>>(
        path: P,
        disk_count: u32,
        chunk_records: u32,
    ) -> io::Result<TraceFileWriter> {
        let file = File::create(path)?;
        Ok(TraceFileWriter {
            inner: TraceWriter::with_chunk_records(
                BufWriter::new(file),
                disk_count,
                chunk_records,
            )?,
        })
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.inner.records_written()
    }

    /// Appends one record — see [`TraceWriter::push`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for out-of-geometry records, or any I/O
    /// error.
    pub fn push(&mut self, record: Record) -> io::Result<()> {
        self.inner.push(record)
    }

    /// Finishes the stream and patches the record count into the header,
    /// returning the total count.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn finish(self) -> io::Result<u64> {
        let (buf, count) = self.inner.finish()?;
        let mut file = buf
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?;
        if count == RECORD_COUNT_UNKNOWN {
            return Err(bad("record count overflow".into()));
        }
        // The count occupies header bytes 16..24.
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&count.to_le_bytes())?;
        file.sync_data()?;
        Ok(count)
    }
}

/// Writes an iterator of records to `path`, returning the record count.
///
/// # Errors
///
/// Returns any I/O error, or `InvalidInput` for out-of-geometry records.
pub fn write_records<P, I>(path: P, disk_count: u32, records: I) -> io::Result<u64>
where
    P: AsRef<Path>,
    I: IntoIterator<Item = Record>,
{
    let mut w = TraceFileWriter::create(path, disk_count)?;
    for r in records {
        w.push(r)?;
    }
    w.finish()
}

/// Writes a whole [`Trace`] to `path`, returning the record count.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_trace<P: AsRef<Path>>(path: P, trace: &Trace) -> io::Result<u64> {
    write_records(path, trace.disk_count(), trace.iter().copied())
}
