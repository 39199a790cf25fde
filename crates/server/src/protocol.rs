//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload. The first payload byte is the opcode; all
//! integers are little-endian and fixed-width, so encoding and decoding
//! are straight `to_le_bytes` / `from_le_bytes` with no varint state.
//!
//! Request payloads:
//!
//! | opcode | payload | bytes |
//! |--------|---------|-------|
//! | `0x01` READ / `0x02` WRITE | `op, seq:u32, disk:u32, block:u64, blocks:u16` | 19 |
//! | `0x03` STATS | `op, seq:u32` | 5 |
//! | `0x04` SHUTDOWN | `op, seq:u32` | 5 |
//! | `0x11` READ_DATA | `op, seq:u32, disk:u32, block:u64, blocks:u16` | 19 |
//! | `0x12` WRITE_DATA | `op, seq:u32, disk:u32, block:u64, blocks:u16, data…` | 19 + blocks×block_bytes |
//!
//! Response payloads:
//!
//! | opcode | payload |
//! |--------|---------|
//! | `0x81` IO | `op, seq:u32, hit:u8, response_us:u32` |
//! | `0x83` STATS | `op, seq:u32, json bytes` |
//! | `0x84` SHUTDOWN | `op, seq:u32` |
//! | `0x85` BUSY | `op, seq:u32, depth:u32` |
//! | `0x86` CORRUPT | `op, seq:u32` |
//! | `0x91` DATA | `op, seq:u32, hit:u8, response_us:u32, data…` |
//!
//! `response_us` is the *virtual* (simulated) response time of the
//! request, saturated to `u32::MAX` µs; clients measure wall latency
//! themselves. `seq` is an opaque per-connection correlation id echoed
//! back verbatim — the server never interprets it.
//!
//! `BUSY` is the overload answer to a READ/WRITE whose shard queue was
//! full: the request was **not** executed, and `depth` reports how many
//! requests were already waiting at that shard, so a client can scale
//! its backoff to the congestion it is seeing. Every accepted request
//! is answered exactly once — with IO or with BUSY, never both.
//!
//! # Protocol v2: payload frames
//!
//! `READ_DATA`/`WRITE_DATA` are the metadata opcodes plus block
//! contents. A `WRITE_DATA` request carries exactly
//! `blocks.max(1) × block_bytes` payload bytes after the 19-byte
//! header (`block_bytes` is a server-wide constant, default
//! [`DEFAULT_BLOCK_BYTES`]); a `READ_DATA` request is bodiless and is
//! answered with a `DATA` response carrying the same header layout as
//! IO followed by the block contents, or with `CORRUPT` when the
//! server's CRC32C check caught a damaged slab frame (the failure is
//! also counted in STATS `crc_failures`). Data requests are capped at
//! [`MAX_DATA_BLOCKS`] blocks so the per-connection request frame cap
//! ([`max_request_frame`]) stays far below [`MAX_FRAME`]; overload
//! (`BUSY`) answers data requests exactly like metadata ones.

use std::io::Read;

/// Hard upper bound on a frame payload (1 MiB): anything larger is a
/// corrupt or hostile stream and kills the connection.
pub const MAX_FRAME: usize = 1 << 20;

/// The largest *request* payload the protocol defines (a 19-byte
/// READ/WRITE). Server-side connections cap their [`FrameBuf`] at this
/// instead of [`MAX_FRAME`]: a length prefix that no legal request
/// could ever need is rejected immediately, before a single payload
/// byte is buffered — with tens of thousands of connections, letting a
/// hostile peer park a megabyte per connection is an amplification the
/// read path must not offer.
pub const MAX_REQUEST_FRAME: usize = 19;

/// Default payload bytes per block for the data plane (protocol v2).
pub const DEFAULT_BLOCK_BYTES: usize = 4096;

/// Most blocks one `READ_DATA`/`WRITE_DATA` request may cover. Bounds
/// the payload-capable request frame cap: at the default 4 KiB block
/// this keeps the largest legal request frame at 256 KiB + 19 bytes,
/// well under [`MAX_FRAME`].
pub const MAX_DATA_BLOCKS: u16 = 64;

/// The largest block size the data plane can carry (16 383 bytes): the
/// largest `WRITE_DATA` request, a 19-byte header plus
/// [`MAX_DATA_BLOCKS`] blocks, must fit in one [`MAX_FRAME`], and so
/// must its `DATA` reply. Both binaries refuse a larger `--block-bytes`.
pub const MAX_BLOCK_BYTES: usize = (MAX_FRAME - MAX_REQUEST_FRAME) / MAX_DATA_BLOCKS as usize;

/// The request-frame cap for a payload-capable connection: one
/// `WRITE_DATA` header plus the largest legal data payload, clamped to
/// [`MAX_FRAME`]. A length prefix above this poisons the stream before
/// any payload bytes are buffered, exactly like the metadata-only
/// [`MAX_REQUEST_FRAME`] cap.
#[must_use]
pub fn max_request_frame(block_bytes: usize) -> usize {
    (MAX_REQUEST_FRAME + MAX_DATA_BLOCKS as usize * block_bytes).min(MAX_FRAME)
}

/// Whether a decoded data request honours the size contract for a
/// server serving `block_bytes`-byte blocks: reads are bodiless, writes
/// carry exactly `blocks.max(1) × block_bytes`, and both respect
/// [`MAX_DATA_BLOCKS`]. The server checks this before batching; a
/// violation is a protocol error that kills the connection.
#[must_use]
pub fn valid_data_request(write: bool, blocks: u16, payload: &[u8], block_bytes: usize) -> bool {
    let blocks = blocks.max(1);
    if blocks > MAX_DATA_BLOCKS {
        return false;
    }
    if write {
        payload.len() == blocks as usize * block_bytes
    } else {
        payload.is_empty()
    }
}

const OP_READ: u8 = 0x01;
const OP_WRITE: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_READ_DATA: u8 = 0x11;
const OP_WRITE_DATA: u8 = 0x12;
const OP_RESP_IO: u8 = 0x81;
const OP_RESP_STATS: u8 = 0x83;
const OP_RESP_SHUTDOWN: u8 = 0x84;
const OP_RESP_BUSY: u8 = 0x85;
const OP_RESP_CORRUPT: u8 = 0x86;
const OP_RESP_DATA: u8 = 0x91;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A block read or write.
    Io {
        /// Per-connection correlation id, echoed in the response.
        seq: u32,
        /// True for writes, false for reads.
        write: bool,
        /// Target disk index (the server reduces it modulo its array size).
        disk: u32,
        /// First block number.
        block: u64,
        /// Request length in blocks (0 is treated as 1).
        blocks: u16,
    },
    /// A protocol-v2 block read or write carrying payload bytes.
    IoData {
        /// Per-connection correlation id, echoed in the response.
        seq: u32,
        /// True for writes, false for reads.
        write: bool,
        /// Target disk index (the server reduces it modulo its array size).
        disk: u32,
        /// First block number.
        block: u64,
        /// Request length in blocks (0 is treated as 1).
        blocks: u16,
        /// Block contents: `blocks.max(1) × block_bytes` bytes for a
        /// write, empty for a read (the reply carries the data).
        payload: Vec<u8>,
    },
    /// Request a cluster statistics snapshot (JSON).
    Stats {
        /// Correlation id.
        seq: u32,
    },
    /// Ask the daemon to drain and exit (same path as SIGTERM).
    Shutdown {
        /// Correlation id.
        seq: u32,
    },
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Completion of a read or write.
    Io {
        /// Correlation id from the request.
        seq: u32,
        /// Whether every block was resident in the cache.
        hit: bool,
        /// Virtual response time in µs (saturated).
        response_us: u32,
    },
    /// A statistics snapshot.
    Stats {
        /// Correlation id from the request.
        seq: u32,
        /// The cluster snapshot as JSON (see `stats::ClusterSnapshot`).
        json: String,
    },
    /// Acknowledgement of a shutdown request.
    Shutdown {
        /// Correlation id from the request.
        seq: u32,
    },
    /// Overload rejection: the target shard's queue was full and the
    /// request was **not** executed. Clients back off and retry.
    Busy {
        /// Correlation id from the request.
        seq: u32,
        /// The shard's queue depth (in requests) at rejection time.
        depth: u32,
    },
    /// Completion of a `READ_DATA` carrying the block contents.
    Data {
        /// Correlation id from the request.
        seq: u32,
        /// Whether every block was resident in the cache.
        hit: bool,
        /// Virtual response time in µs (saturated).
        response_us: u32,
        /// The block contents (`blocks.max(1) × block_bytes` bytes).
        payload: Vec<u8>,
    },
    /// A `READ_DATA` whose slab frame failed its CRC32C check: the
    /// corruption was detected and counted, no payload is returned.
    Corrupt {
        /// Correlation id from the request.
        seq: u32,
    },
}

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame length prefix was zero or exceeded [`MAX_FRAME`].
    BadLength(usize),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Payload shorter than its opcode requires.
    Truncated,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadLength(n) => write!(f, "bad frame length {n}"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::Truncated => write!(f, "truncated payload"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Appends one request frame (length prefix included) to `out`.
///
/// # Panics
///
/// Panics if a `WRITE_DATA` payload would push the frame past
/// [`MAX_FRAME`].
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Io {
            seq,
            write,
            disk,
            block,
            blocks,
        } => {
            out.extend_from_slice(&19u32.to_le_bytes());
            out.push(if *write { OP_WRITE } else { OP_READ });
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&disk.to_le_bytes());
            out.extend_from_slice(&block.to_le_bytes());
            out.extend_from_slice(&blocks.to_le_bytes());
        }
        Request::IoData {
            seq,
            write,
            disk,
            block,
            blocks,
            payload,
        } => encode_data_request(*seq, *write, *disk, *block, *blocks, payload, out),
        Request::Stats { seq } => {
            out.extend_from_slice(&5u32.to_le_bytes());
            out.push(OP_STATS);
            out.extend_from_slice(&seq.to_le_bytes());
        }
        Request::Shutdown { seq } => {
            out.extend_from_slice(&5u32.to_le_bytes());
            out.push(OP_SHUTDOWN);
            out.extend_from_slice(&seq.to_le_bytes());
        }
    }
}

/// Appends one `READ_DATA`/`WRITE_DATA` request frame with the payload
/// taken from a borrowed slice — the load generator's hot path, which
/// reuses one scratch buffer per connection instead of moving an owned
/// `Vec` into [`Request::IoData`] per request.
///
/// # Panics
///
/// Panics if the payload would push the frame past [`MAX_FRAME`].
#[allow(clippy::too_many_arguments)]
pub fn encode_data_request(
    seq: u32,
    write: bool,
    disk: u32,
    block: u64,
    blocks: u16,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let len = 19 + payload.len();
    assert!(len <= MAX_FRAME, "data payload exceeds MAX_FRAME");
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(if write { OP_WRITE_DATA } else { OP_READ_DATA });
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&disk.to_le_bytes());
    out.extend_from_slice(&block.to_le_bytes());
    out.extend_from_slice(&blocks.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends one response frame (length prefix included) to `out`.
///
/// # Panics
///
/// Panics if a stats JSON payload would exceed [`MAX_FRAME`].
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Io {
            seq,
            hit,
            response_us,
        } => {
            out.extend_from_slice(&10u32.to_le_bytes());
            out.push(OP_RESP_IO);
            out.extend_from_slice(&seq.to_le_bytes());
            out.push(u8::from(*hit));
            out.extend_from_slice(&response_us.to_le_bytes());
        }
        Response::Stats { seq, json } => {
            let len = 5 + json.len();
            assert!(len <= MAX_FRAME, "stats JSON exceeds MAX_FRAME");
            out.extend_from_slice(&(len as u32).to_le_bytes());
            out.push(OP_RESP_STATS);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(json.as_bytes());
        }
        Response::Shutdown { seq } => {
            out.extend_from_slice(&5u32.to_le_bytes());
            out.push(OP_RESP_SHUTDOWN);
            out.extend_from_slice(&seq.to_le_bytes());
        }
        Response::Busy { seq, depth } => {
            out.extend_from_slice(&9u32.to_le_bytes());
            out.push(OP_RESP_BUSY);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&depth.to_le_bytes());
        }
        Response::Data {
            seq,
            hit,
            response_us,
            payload,
        } => {
            encode_data_response(*seq, *hit, *response_us, payload, out);
        }
        Response::Corrupt { seq } => {
            out.extend_from_slice(&5u32.to_le_bytes());
            out.push(OP_RESP_CORRUPT);
            out.extend_from_slice(&seq.to_le_bytes());
        }
    }
}

/// Appends one `DATA` response frame with the payload taken from a
/// borrowed slice — the server's copy-once reply path: slab bytes land
/// directly in the outgoing reply buffer (header + payload
/// contiguous), with no intermediate `Vec` per response.
///
/// # Panics
///
/// Panics if the payload would push the frame past [`MAX_FRAME`].
pub fn encode_data_response(
    seq: u32,
    hit: bool,
    response_us: u32,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    encode_data_header(seq, hit, response_us, payload.len(), out);
    out.extend_from_slice(payload);
}

/// Appends a `DATA` response frame's length prefix and 10-byte header
/// for a payload of exactly `payload_len` bytes that the caller appends
/// directly afterwards — the shard's scatter-gather path writes slab
/// bytes straight into the reply buffer with no per-response `Vec`.
///
/// # Panics
///
/// Panics if the payload would push the frame past [`MAX_FRAME`].
pub fn encode_data_header(
    seq: u32,
    hit: bool,
    response_us: u32,
    payload_len: usize,
    out: &mut Vec<u8>,
) {
    let len = 10 + payload_len;
    assert!(len <= MAX_FRAME, "data payload exceeds MAX_FRAME");
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(OP_RESP_DATA);
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(u8::from(hit));
    out.extend_from_slice(&response_us.to_le_bytes());
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("caller sliced 4 bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("caller sliced 8 bytes"))
}

/// Decodes a request payload (the bytes *after* the length prefix).
///
/// # Errors
///
/// Returns [`ProtoError`] on an unknown opcode or short payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let (&op, rest) = payload.split_first().ok_or(ProtoError::Truncated)?;
    match op {
        OP_READ | OP_WRITE => {
            if rest.len() != 18 {
                return Err(ProtoError::Truncated);
            }
            Ok(Request::Io {
                seq: le_u32(&rest[0..4]),
                write: op == OP_WRITE,
                disk: le_u32(&rest[4..8]),
                block: le_u64(&rest[8..16]),
                blocks: u16::from_le_bytes(rest[16..18].try_into().expect("2 bytes")),
            })
        }
        OP_READ_DATA | OP_WRITE_DATA => {
            // READ_DATA is bodiless; WRITE_DATA carries at least one
            // block of payload. Exact payload sizing against the
            // server's block_bytes is `valid_data_request`, which the
            // serving layer calls with its configuration.
            if rest.len() < 18 || (op == OP_READ_DATA && rest.len() != 18) {
                return Err(ProtoError::Truncated);
            }
            Ok(Request::IoData {
                seq: le_u32(&rest[0..4]),
                write: op == OP_WRITE_DATA,
                disk: le_u32(&rest[4..8]),
                block: le_u64(&rest[8..16]),
                blocks: u16::from_le_bytes(rest[16..18].try_into().expect("2 bytes")),
                payload: rest[18..].to_vec(),
            })
        }
        OP_STATS | OP_SHUTDOWN => {
            if rest.len() != 4 {
                return Err(ProtoError::Truncated);
            }
            let seq = le_u32(rest);
            Ok(if op == OP_STATS {
                Request::Stats { seq }
            } else {
                Request::Shutdown { seq }
            })
        }
        _ => Err(ProtoError::BadOpcode(op)),
    }
}

/// Decodes a response payload (the bytes *after* the length prefix).
///
/// # Errors
///
/// Returns [`ProtoError`] on an unknown opcode, short payload, or a
/// stats payload that is not UTF-8.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let (&op, rest) = payload.split_first().ok_or(ProtoError::Truncated)?;
    match op {
        OP_RESP_IO => {
            if rest.len() != 9 {
                return Err(ProtoError::Truncated);
            }
            Ok(Response::Io {
                seq: le_u32(&rest[0..4]),
                hit: rest[4] != 0,
                response_us: le_u32(&rest[5..9]),
            })
        }
        OP_RESP_STATS => {
            if rest.len() < 4 {
                return Err(ProtoError::Truncated);
            }
            let json = String::from_utf8(rest[4..].to_vec()).map_err(|_| ProtoError::Truncated)?;
            Ok(Response::Stats {
                seq: le_u32(&rest[0..4]),
                json,
            })
        }
        OP_RESP_SHUTDOWN => {
            if rest.len() != 4 {
                return Err(ProtoError::Truncated);
            }
            Ok(Response::Shutdown { seq: le_u32(rest) })
        }
        OP_RESP_BUSY => {
            if rest.len() != 8 {
                return Err(ProtoError::Truncated);
            }
            Ok(Response::Busy {
                seq: le_u32(&rest[0..4]),
                depth: le_u32(&rest[4..8]),
            })
        }
        OP_RESP_CORRUPT => {
            if rest.len() != 4 {
                return Err(ProtoError::Truncated);
            }
            Ok(Response::Corrupt { seq: le_u32(rest) })
        }
        OP_RESP_DATA => {
            if rest.len() < 9 {
                return Err(ProtoError::Truncated);
            }
            Ok(Response::Data {
                seq: le_u32(&rest[0..4]),
                hit: rest[4] != 0,
                response_us: le_u32(&rest[5..9]),
                payload: rest[9..].to_vec(),
            })
        }
        _ => Err(ProtoError::BadOpcode(op)),
    }
}

/// An incremental frame reassembly buffer over a byte stream.
///
/// Feed it from a [`Read`] with [`read_from`](Self::read_from), then
/// drain complete frames with [`next_request`](Self::next_request) /
/// [`next_response`](Self::next_response). Partial frames stay buffered
/// across reads; consumed bytes are reclaimed by compaction on the next
/// read, so steady-state operation does not allocate.
///
/// The buffer works identically over blocking and nonblocking sources:
/// `read_from` surfaces `WouldBlock` untouched (after compacting), a
/// length prefix split across reads stays pending until its fourth byte
/// arrives, and a poisoned prefix (zero, or above the instance's frame
/// cap) errors *before* any payload bytes for it are buffered — pinned
/// by the byte-dribbling tests below.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

/// Smallest window `read_from` will grow to: guarantees progress even
/// for a [`with_capacity(0)`](FrameBuf::with_capacity) buffer (a full —
/// or empty — window that doubled to itself would read zero bytes
/// forever and masquerade as EOF).
const MIN_GROW: usize = 4096;

impl FrameBuf {
    /// Creates an empty buffer with a 256 KiB read window (the
    /// throughput configuration: one syscall swallows a whole burst).
    #[must_use]
    pub fn new() -> Self {
        FrameBuf::with_capacity(256 * 1024)
    }

    /// Creates an empty buffer with a caller-chosen initial window.
    /// Event-loop connections start at a few KiB — an idle connection
    /// then costs buffer bytes, not a thread stack — and grow on demand.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FrameBuf {
            buf: vec![0u8; capacity],
            start: 0,
            end: 0,
            max_frame: MAX_FRAME,
        }
    }

    /// Caps the accepted frame payload length (default [`MAX_FRAME`]).
    /// Server-side connections pass [`MAX_REQUEST_FRAME`]: a prefix no
    /// legal request could need poisons the stream immediately instead
    /// of buffering up to a megabyte first.
    #[must_use]
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame.min(MAX_FRAME);
        self
    }

    /// Current window size in bytes (for per-connection accounting).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Bytes buffered but not yet consumed as frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Shrinks an empty window back down to `capacity` if a burst grew
    /// it past that. No-op while bytes are pending — a partial frame is
    /// never dropped.
    pub fn reclaim(&mut self, capacity: usize) {
        if self.start == self.end && self.buf.len() > capacity {
            self.buf = vec![0u8; capacity];
            self.start = 0;
            self.end = 0;
        }
    }

    /// Reads once from `r` into the buffer, returning the byte count
    /// (0 = EOF). Compacts consumed bytes first and grows the buffer if
    /// a single frame spans more than the current window.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error (including timeouts as
    /// `WouldBlock`/`TimedOut`).
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize((self.buf.len() * 2).max(MIN_GROW), 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Extracts the next complete frame payload, if one is buffered.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::BadLength`] on a zero or oversized length
    /// prefix (the stream is unrecoverable at that point).
    pub fn next_payload(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        let avail = self.end - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let len = le_u32(&self.buf[self.start..self.start + 4]) as usize;
        if len == 0 || len > self.max_frame {
            return Err(ProtoError::BadLength(len));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start += 4 + len;
        Ok(Some(&self.buf[at..at + len]))
    }

    /// Extracts and decodes the next complete request frame.
    ///
    /// # Errors
    ///
    /// Propagates framing and decoding errors.
    pub fn next_request(&mut self) -> Result<Option<Request>, ProtoError> {
        match self.next_payload()? {
            Some(p) => decode_request(p).map(Some),
            None => Ok(None),
        }
    }

    /// Extracts and decodes the next complete response frame.
    ///
    /// # Errors
    ///
    /// Propagates framing and decoding errors.
    pub fn next_response(&mut self) -> Result<Option<Response>, ProtoError> {
        match self.next_payload()? {
            Some(p) => decode_response(p).map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        encode_request(req, &mut buf);
        let len = le_u32(&buf[0..4]) as usize;
        assert_eq!(buf.len(), 4 + len);
        decode_request(&buf[4..]).unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Io {
                seq: 7,
                write: false,
                disk: 3,
                block: 0xDEAD_BEEF_CAFE,
                blocks: 16,
            },
            Request::Io {
                seq: u32::MAX,
                write: true,
                disk: 0,
                block: u64::MAX,
                blocks: u16::MAX,
            },
            Request::Stats { seq: 42 },
            Request::Shutdown { seq: 0 },
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Io {
                seq: 9,
                hit: true,
                response_us: 1234,
            },
            Response::Stats {
                seq: 1,
                json: "{\"shards\":[]}".to_owned(),
            },
            Response::Shutdown { seq: 5 },
            Response::Busy {
                seq: 77,
                depth: 4096,
            },
            Response::Busy {
                seq: u32::MAX,
                depth: u32::MAX,
            },
        ] {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            let len = le_u32(&buf[0..4]) as usize;
            assert_eq!(buf.len(), 4 + len);
            assert_eq!(decode_response(&buf[4..]).unwrap(), resp);
        }
    }

    #[test]
    fn data_requests_roundtrip() {
        for req in [
            Request::IoData {
                seq: 11,
                write: false,
                disk: 2,
                block: 77,
                blocks: 4,
                payload: Vec::new(),
            },
            Request::IoData {
                seq: 12,
                write: true,
                disk: 0,
                block: u64::MAX,
                blocks: 1,
                payload: vec![0xAB; DEFAULT_BLOCK_BYTES],
            },
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
        // A bodied READ_DATA is malformed: reads carry no payload.
        let mut wire = Vec::new();
        encode_request(
            &Request::IoData {
                seq: 1,
                write: false,
                disk: 0,
                block: 0,
                blocks: 1,
                payload: Vec::new(),
            },
            &mut wire,
        );
        let mut bodied = wire[4..].to_vec();
        bodied.push(0xFF);
        assert_eq!(decode_request(&bodied), Err(ProtoError::Truncated));
    }

    #[test]
    fn data_and_corrupt_responses_roundtrip() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        for resp in [
            Response::Data {
                seq: 3,
                hit: true,
                response_us: 17,
                payload: payload.clone(),
            },
            Response::Data {
                seq: 4,
                hit: false,
                response_us: 0,
                payload: Vec::new(),
            },
            Response::Corrupt { seq: 5 },
        ] {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            let len = le_u32(&buf[0..4]) as usize;
            assert_eq!(buf.len(), 4 + len);
            assert_eq!(decode_response(&buf[4..]).unwrap(), resp);
        }
        // The borrowed-slice encoder produces byte-identical frames to
        // the owned Response::Data path (the copy-once guarantee is an
        // encoding detail, not a format difference).
        let mut a = Vec::new();
        encode_data_response(3, true, 17, &payload, &mut a);
        let mut b = Vec::new();
        encode_response(
            &Response::Data {
                seq: 3,
                hit: true,
                response_us: 17,
                payload,
            },
            &mut b,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn data_frame_caps_are_consistent() {
        // The payload-capable request cap admits the largest legal
        // WRITE_DATA and stays under the absolute frame bound.
        let cap = max_request_frame(DEFAULT_BLOCK_BYTES);
        assert_eq!(cap, 19 + MAX_DATA_BLOCKS as usize * DEFAULT_BLOCK_BYTES);
        assert!(cap <= MAX_FRAME);
        // Degenerate block sizes clamp instead of overflowing.
        assert_eq!(max_request_frame(MAX_FRAME), MAX_FRAME);
    }

    #[test]
    fn the_largest_data_frames_fit_at_max_block_bytes_and_not_past_it() {
        let payload = vec![0xA5u8; MAX_DATA_BLOCKS as usize * MAX_BLOCK_BYTES];
        let mut wire = Vec::new();
        encode_data_request(7, true, 3, 9, MAX_DATA_BLOCKS, &payload, &mut wire);
        assert_eq!(wire.len() - 4, max_request_frame(MAX_BLOCK_BYTES));
        encode_data_response(7, true, 11, &payload, &mut wire);
        // A default FrameBuf refuses any frame past MAX_FRAME.
        let mut fb = FrameBuf::with_capacity(0);
        let mut src = wire.as_slice();
        while fb.read_from(&mut src).unwrap() > 0 {}
        let Some(Request::IoData {
            blocks,
            payload: sent,
            ..
        }) = fb.next_request().unwrap()
        else {
            panic!("the largest WRITE_DATA must decode");
        };
        assert_eq!((blocks, &sent), (MAX_DATA_BLOCKS, &payload));
        let Some(Response::Data { payload: got, .. }) = fb.next_response().unwrap() else {
            panic!("the largest DATA reply must decode");
        };
        assert_eq!(got, payload);
        // One byte more per block and the largest request overflows.
        assert!(MAX_REQUEST_FRAME + MAX_DATA_BLOCKS as usize * (MAX_BLOCK_BYTES + 1) > MAX_FRAME);
    }

    #[test]
    fn data_requests_must_match_the_block_size_contract() {
        const BB: usize = 512;
        let max = MAX_DATA_BLOCKS;
        // (write, blocks, payload bytes, valid)
        let cases = [
            (false, 1, 0, true),
            (false, 0, 0, true), // 0 blocks is treated as 1
            (false, max, 0, true),
            (false, max + 1, 0, false),
            (false, 1, 1, false), // reads are bodiless
            (true, 1, BB, true),
            (true, 0, BB, true),
            (true, 3, 3 * BB, true),
            (true, 3, 3 * BB - 1, false),
            (true, 3, 3 * BB + 1, false),
            (true, 1, 0, false),
            (true, max, max as usize * BB, true),
            (true, max + 1, (max as usize + 1) * BB, false),
        ];
        for (write, blocks, len, valid) in cases {
            assert_eq!(
                valid_data_request(write, blocks, &vec![0; len], BB),
                valid,
                "write={write} blocks={blocks} payload={len}"
            );
        }
    }

    /// A reader that hands out at most 3 bytes per call, to exercise
    /// frame reassembly across reads.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(out.len()).min(3);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn framebuf_reassembles_across_partial_reads() {
        let reqs = [
            Request::Io {
                seq: 1,
                write: false,
                disk: 0,
                block: 10,
                blocks: 1,
            },
            Request::Stats { seq: 2 },
            Request::Io {
                seq: 3,
                write: true,
                disk: 4,
                block: 99,
                blocks: 2,
            },
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            encode_request(r, &mut wire);
        }
        let mut src = Trickle(&wire);
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        loop {
            while let Some(req) = fb.next_request().unwrap() {
                got.push(req);
            }
            if fb.read_from(&mut src).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(got, reqs);
    }

    #[test]
    fn framebuf_rejects_bad_length_prefixes() {
        let mut fb = FrameBuf::new();
        let mut zero = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        fb.read_from(&mut zero).unwrap();
        assert_eq!(fb.next_payload(), Err(ProtoError::BadLength(0)));

        let mut fb = FrameBuf::new();
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        let mut huge = std::io::Cursor::new(huge);
        fb.read_from(&mut huge).unwrap();
        assert_eq!(fb.next_payload(), Err(ProtoError::BadLength(MAX_FRAME + 1)));
    }

    #[test]
    fn decode_rejects_unknown_opcodes_and_short_payloads() {
        assert_eq!(
            decode_request(&[0x7F, 0, 0, 0, 0]),
            Err(ProtoError::BadOpcode(0x7F))
        );
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated));
        assert_eq!(decode_request(&[OP_READ, 1, 2]), Err(ProtoError::Truncated));
        assert_eq!(
            decode_response(&[0x01, 0, 0, 0, 0]),
            Err(ProtoError::BadOpcode(0x01))
        );
        assert_eq!(
            decode_response(&[OP_RESP_IO, 1]),
            Err(ProtoError::Truncated)
        );
        assert_eq!(
            decode_response(&[OP_RESP_BUSY, 1, 2, 3, 4]),
            Err(ProtoError::Truncated)
        );
    }

    /// Every truncation of every valid request payload must decode to a
    /// clean `Truncated` error — never panic, never mis-decode.
    #[test]
    fn every_request_prefix_errors_cleanly() {
        let reqs = [
            Request::Io {
                seq: 3,
                write: true,
                disk: 9,
                block: u64::MAX - 1,
                blocks: 500,
            },
            Request::Stats { seq: 1 },
            Request::Shutdown { seq: 2 },
        ];
        for req in reqs {
            let mut wire = Vec::new();
            encode_request(&req, &mut wire);
            let payload = &wire[4..];
            for cut in 0..payload.len() {
                assert_eq!(
                    decode_request(&payload[..cut]),
                    Err(ProtoError::Truncated),
                    "{req:?} cut at {cut}"
                );
            }
            // Oversized payloads are also malformed, not silently accepted.
            let mut long = payload.to_vec();
            long.push(0xAA);
            assert_eq!(decode_request(&long), Err(ProtoError::Truncated));
        }
    }

    /// Garbage bytes after a valid length prefix decode to an error and
    /// never panic, whatever the first byte claims to be.
    #[test]
    fn garbage_payloads_never_panic() {
        for op in 0u8..=255 {
            let payload = [op, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22];
            let _ = decode_request(&payload);
            let _ = decode_response(&payload);
            let _ = decode_request(&[op]);
            let _ = decode_response(&[op]);
        }
    }

    /// An oversized length prefix poisons the stream even when it
    /// arrives byte-by-byte behind valid traffic.
    #[test]
    fn oversized_length_after_valid_frame_is_fatal() {
        let mut wire = Vec::new();
        encode_request(&Request::Stats { seq: 8 }, &mut wire);
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut src = Trickle(&wire);
        let mut fb = FrameBuf::new();
        let mut results = Vec::new();
        loop {
            loop {
                match fb.next_request() {
                    Ok(Some(req)) => results.push(Ok(req)),
                    Ok(None) => break,
                    Err(e) => {
                        results.push(Err(e));
                        break;
                    }
                }
            }
            if results.iter().any(Result::is_err) || src.0.is_empty() {
                break;
            }
            fb.read_from(&mut src).unwrap();
        }
        assert_eq!(results[0], Ok(Request::Stats { seq: 8 }));
        assert_eq!(
            results[1],
            Err(ProtoError::BadLength(u32::MAX as usize)),
            "the poisoned tail must surface as BadLength"
        );
    }

    /// A nonblocking-style reader: hands out one byte per call, with a
    /// `WouldBlock` interleaved between every byte — the worst case an
    /// event loop can see from a dribbling peer.
    struct Dribble<'a> {
        bytes: &'a [u8],
        ready: bool,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            self.ready = false;
            let n = self.bytes.len().min(out.len()).min(1);
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Drives `fb` over a dribbling nonblocking source until EOF or a
    /// protocol error, collecting everything.
    fn drain_dribble(
        fb: &mut FrameBuf,
        src: &mut Dribble<'_>,
    ) -> (Vec<Request>, Option<ProtoError>) {
        let mut got = Vec::new();
        loop {
            loop {
                match fb.next_request() {
                    Ok(Some(req)) => got.push(req),
                    Ok(None) => break,
                    Err(e) => return (got, Some(e)),
                }
            }
            match fb.read_from(src) {
                Ok(0) => return (got, None),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("dribble source only blocks: {e}"),
            }
        }
    }

    /// Byte-dribbled valid traffic reassembles exactly, under the
    /// server-side request frame cap and a tiny initial window.
    #[test]
    fn nonblocking_dribble_reassembles_requests_under_the_request_cap() {
        let reqs = [
            Request::Io {
                seq: 1,
                write: false,
                disk: 3,
                block: 0xAB_CDEF,
                blocks: 8,
            },
            Request::Stats { seq: 2 },
            Request::Io {
                seq: 3,
                write: true,
                disk: 0,
                block: u64::MAX,
                blocks: u16::MAX,
            },
            Request::Shutdown { seq: 4 },
        ];
        let mut wire = Vec::new();
        for r in &reqs {
            encode_request(r, &mut wire);
        }
        let mut fb = FrameBuf::with_capacity(8).with_max_frame(MAX_REQUEST_FRAME);
        let mut src = Dribble {
            bytes: &wire,
            ready: false,
        };
        let (got, err) = drain_dribble(&mut fb, &mut src);
        assert_eq!(got, reqs);
        assert_eq!(err, None);
        assert_eq!(fb.pending(), 0);
    }

    /// An oversized-for-a-request prefix (here: a 1 MiB frame that the
    /// *protocol* allows but no request needs) poisons a request-capped
    /// stream as soon as its fourth length byte lands — before any
    /// payload is buffered — even arriving a byte at a time behind
    /// valid traffic.
    #[test]
    fn request_cap_rejects_oversized_prefixes_before_buffering_payload() {
        let mut wire = Vec::new();
        encode_request(&Request::Stats { seq: 1 }, &mut wire);
        wire.extend_from_slice(&((MAX_REQUEST_FRAME as u32) + 1).to_le_bytes());
        wire.extend_from_slice(&[0xEE; 64]); // payload that must never be buffered
        let mut fb = FrameBuf::with_capacity(8).with_max_frame(MAX_REQUEST_FRAME);
        let mut src = Dribble {
            bytes: &wire,
            ready: false,
        };
        let (got, err) = drain_dribble(&mut fb, &mut src);
        assert_eq!(got, vec![Request::Stats { seq: 1 }]);
        assert_eq!(err, Some(ProtoError::BadLength(MAX_REQUEST_FRAME + 1)));
        // The poisoned frame's payload never grew the window toward
        // 1 MiB: the error surfaced at the prefix, so capacity stays at
        // the minimum growth quantum.
        assert!(
            fb.capacity() <= MIN_GROW,
            "payload was buffered past the cap: {} bytes",
            fb.capacity()
        );
    }

    /// Garbage *payloads* behind valid-length prefixes error cleanly
    /// when dribbled, same as when they arrive whole.
    #[test]
    fn dribbled_garbage_payload_is_a_clean_decode_error() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&5u32.to_le_bytes());
        wire.extend_from_slice(&[0x7F, 1, 2, 3, 4]); // unknown opcode
        let mut fb = FrameBuf::with_capacity(0).with_max_frame(MAX_REQUEST_FRAME);
        let mut src = Dribble {
            bytes: &wire,
            ready: false,
        };
        let (got, err) = drain_dribble(&mut fb, &mut src);
        assert!(got.is_empty());
        assert_eq!(err, Some(ProtoError::BadOpcode(0x7F)));
    }

    /// A zero-capacity buffer must grow and make progress instead of
    /// reading zero bytes forever (which looks exactly like EOF).
    #[test]
    fn zero_capacity_buffer_grows_instead_of_spinning() {
        let mut wire = Vec::new();
        encode_request(&Request::Stats { seq: 9 }, &mut wire);
        let mut fb = FrameBuf::with_capacity(0);
        let mut src = std::io::Cursor::new(wire);
        let n = fb.read_from(&mut src).unwrap();
        assert!(n > 0, "a grown buffer must actually read");
        assert_eq!(fb.next_request().unwrap(), Some(Request::Stats { seq: 9 }));
    }

    #[test]
    fn reclaim_shrinks_only_an_empty_window() {
        let mut fb = FrameBuf::with_capacity(16);
        let mut wire = Vec::new();
        encode_request(&Request::Stats { seq: 1 }, &mut wire);
        wire.extend_from_slice(&19u32.to_le_bytes()); // partial second frame
        let mut src = std::io::Cursor::new(wire);
        while fb.read_from(&mut src).unwrap() > 0 {}
        assert_eq!(fb.next_request().unwrap(), Some(Request::Stats { seq: 1 }));
        assert_eq!(fb.next_request().unwrap(), None);
        let grown = fb.capacity();
        // 4 prefix bytes of the second frame are pending: reclaim must
        // keep them.
        fb.reclaim(8);
        assert_eq!(fb.capacity(), grown, "pending bytes pin the window");
        assert_eq!(fb.pending(), 4);
        // Finish the second frame, drain it, then reclaim for real.
        let mut rest = std::io::Cursor::new(vec![0u8; 19]);
        while fb.read_from(&mut rest).unwrap() > 0 {}
        let _ = fb.next_request();
        fb.reclaim(8);
        assert_eq!(fb.capacity(), 8);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn blocks_zero_is_preserved_for_the_engine_to_clamp() {
        let req = Request::Io {
            seq: 0,
            write: false,
            disk: 0,
            block: 0,
            blocks: 0,
        };
        assert_eq!(roundtrip_request(&req), req);
    }
}
