//! The load generator: replays a [`Workload`] stream against a
//! `pc-server` over M concurrent connections, open-loop, and collects a
//! closing report (client-measured latency plus the server's own STATS
//! snapshot).
//!
//! The client speaks the overload protocol: a `BUSY` response parks the
//! request for a retry round paced by capped exponential backoff with
//! seeded jitter, up to a per-request retry budget; requests whose
//! budget runs out are counted as `exhausted` — the caller's signal
//! that the server stayed saturated beyond what backing off could
//! absorb. All sockets carry read *and* write timeouts, so a server
//! that accepts connections and then goes silent (or stops reading)
//! surfaces as an error instead of a hang.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pc_cache::IntervalHistogram;
use pc_trace::{IoOp, Record, RecordStream, Workload};
use pc_units::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pc_crc::crc32c;

use crate::data::fill_block;
use crate::protocol::{
    encode_data_request, encode_request, FrameBuf, Request, Response, DEFAULT_BLOCK_BYTES,
    MAX_DATA_BLOCKS,
};
use crate::stats::{parse_stats_json, ClusterSnapshot, StatsSummary};

/// Outstanding-request ring size per connection (latency timestamps and
/// retry metadata are stored by `seq % RING`).
const RING: usize = 1 << 16;

/// Maximum in-flight requests per connection: half the ring, so a
/// response always finds its send timestamp intact.
const WINDOW: i64 = (RING as i64) / 2;

/// Flush the send buffer at this size.
const SEND_CHUNK: usize = 48 * 1024;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Workload family to replay.
    pub workload: Workload,
    /// Concurrent hot connections (each drives a workload stream).
    pub conns: usize,
    /// Total connections to hold open, hot plus mostly-idle (0 = just
    /// the hot ones). Each idle connection sends a single I/O request
    /// after connecting — proving it is served, and landing it in the
    /// server's books — then stays open and silent until the hot phase
    /// ends, so the event loop's many-connection claim is actually
    /// drivable and measurable.
    pub connections: usize,
    /// Wall-clock duration; the run stops at the deadline or when the
    /// per-connection streams are exhausted, whichever is first.
    pub secs: f64,
    /// Base RNG seed (connection `i` streams with `seed + i`).
    pub seed: u64,
    /// Open-loop target rate in requests/second across all connections
    /// (`None` = as fast as the window allows).
    pub rate: Option<f64>,
    /// Resend attempts granted to a request answered `BUSY` before it
    /// counts as exhausted.
    pub retry_budget: u32,
    /// Base backoff before the first retry, in microseconds; doubles
    /// per attempt.
    pub backoff_us: u64,
    /// Backoff ceiling in microseconds.
    pub backoff_cap_us: u64,
    /// Socket read/write timeout: a server that stops reading or never
    /// replies surfaces as an error instead of a hang.
    pub io_timeout: Duration,
    /// Drive the protocol-v2 data plane: writes carry their block
    /// payloads (`WRITE_DATA`), reads are `READ_DATA`, and every `DATA`
    /// reply is verified — CRC32C and exact contents — against the
    /// deterministic disk image the server serves.
    pub payload: bool,
    /// Payload bytes per block in `payload` mode; must match the
    /// server's block size.
    pub block_bytes: usize,
    /// Replay a binary `.pct` trace file instead of generating
    /// `workload`: the file is memory-mapped and verified once, then
    /// records are dealt round-robin across the hot connections (each
    /// connection's subsequence keeps file order) straight off the
    /// shared map — no per-connection record vectors — so a captured
    /// production stream drives the server without recompiling and
    /// without materializing the trace.
    pub trace: Option<std::path::PathBuf>,
}

impl LoadgenConfig {
    /// A default run: synthetic workload, 8 connections, 2 seconds,
    /// 8 retries starting at 200 µs backoff capped at 20 ms, 10 s
    /// socket timeouts.
    #[must_use]
    pub fn new(addr: String) -> Self {
        LoadgenConfig {
            addr,
            workload: Workload::parse("synthetic").expect("synthetic exists"),
            conns: 8,
            connections: 0,
            secs: 2.0,
            seed: 42,
            rate: None,
            retry_budget: 8,
            backoff_us: 200,
            backoff_cap_us: 20_000,
            io_timeout: Duration::from_secs(10),
            payload: false,
            block_bytes: DEFAULT_BLOCK_BYTES,
            trace: None,
        }
    }

    /// The per-connection request bound: effectively unbounded for the
    /// synthetic stream, the configured count capped at 2 M otherwise.
    /// The cap keeps the eager OLTP generator from materializing tens of
    /// millions of records up front; Cello streams lazily but its
    /// busy/quiet cycle scales with the request count, so it keeps one.
    #[must_use]
    fn stream_for(&self, conn: usize) -> pc_trace::RecordStream {
        let bounded = match self.workload {
            Workload::Synthetic(_) => self.workload.clone().with_requests(usize::MAX),
            _ => {
                let cap = self.workload.requests().min(2_000_000);
                self.workload.clone().with_requests(cap)
            }
        };
        bounded.stream(self.seed + conn as u64)
    }
}

/// A round-robin cursor over a shared memory-mapped trace: the cursor
/// for connection `c` yields records `c, c+stride, c+2·stride, …` in
/// file order, decoding each straight off the map. The map is verified
/// in full before any cursor is built, so `get` cannot fail here.
#[derive(Debug)]
struct StrideCursor {
    map: Arc<pc_tracefile::MappedTrace>,
    next: u64,
    stride: u64,
}

impl Iterator for StrideCursor {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.next >= self.map.len() {
            return None;
        }
        let record = self
            .map
            .get(self.next)
            .expect("trace verified before replay");
        self.next += self.stride;
        Some(record)
    }
}

/// What a connection worker replays: a generated workload stream or a
/// stride cursor over a shared mapped trace. One concrete type keeps
/// both spawn paths on a single `conn_worker` instantiation.
#[derive(Debug)]
enum ReplaySource {
    Generated(Box<RecordStream>),
    Mapped(StrideCursor),
}

impl Iterator for ReplaySource {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        match self {
            ReplaySource::Generated(s) => s.next(),
            ReplaySource::Mapped(c) => c.next(),
        }
    }
}

/// Per-connection results.
#[derive(Debug, Default, Clone)]
struct ConnStats {
    sent: u64,
    responses: u64,
    hits: u64,
    busy: u64,
    retries: u64,
    exhausted: u64,
    lat_ns_total: u64,
    payload_bytes: u64,
    verify_failures: u64,
    corrupt: u64,
    /// True when the `--secs` deadline stopped this connection; false
    /// when its record source (generator bound or trace file) ran dry.
    hit_deadline: bool,
}

/// The retry/backoff knobs a connection worker needs, detached from
/// [`LoadgenConfig`] so worker threads can own a copy.
#[derive(Debug, Clone, Copy)]
struct RetryKnobs {
    budget: u32,
    backoff_us: u64,
    backoff_cap_us: u64,
    io_timeout: Duration,
    seed: u64,
    /// `Some(block_bytes)` drives the data plane (`READ_DATA`/
    /// `WRITE_DATA`); `None` is the metadata protocol.
    data: Option<usize>,
}

/// The closing report of a load-generation run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests written to the sockets (first sends plus retries).
    pub sent: u64,
    /// I/O responses received.
    pub responses: u64,
    /// Responses flagged as cache hits.
    pub hits: u64,
    /// `BUSY` responses received (each retried send that bounces again
    /// counts again).
    pub busy_rejects: u64,
    /// Requests re-sent after a `BUSY`.
    pub retries: u64,
    /// Requests dropped after exhausting the retry budget — non-zero
    /// means the server stayed saturated beyond what backoff absorbed.
    pub exhausted: u64,
    /// Wall-clock duration of the request phase.
    pub elapsed: Duration,
    /// Client-measured round-trip latency distribution.
    pub latency_hist: IntervalHistogram,
    /// Mean client-measured latency.
    pub mean_latency: Duration,
    /// The server's final STATS payload, verbatim.
    pub stats_json: String,
    /// The parsed summary of `stats_json`.
    pub stats: StatsSummary,
    /// Mostly-idle connections held open through the run (the
    /// `connections` high-count mode; 0 otherwise).
    pub idle_conns: u64,
    /// Payload bytes carried by `DATA` replies (payload mode only).
    pub payload_bytes: u64,
    /// `DATA` replies whose CRC or contents did not match the expected
    /// disk image — any non-zero value is a data-plane bug.
    pub verify_failures: u64,
    /// `CORRUPT` replies: the server's CRC check caught a damaged slab
    /// frame (expected non-zero only under `--corrupt-rate` fault
    /// injection).
    pub corrupt: u64,
    /// Hot connections the `--secs` deadline stopped mid-stream. The
    /// rest ran their record source dry (trace exhaustion, or the
    /// generator's request bound) — the run is bounded by whichever
    /// comes first.
    pub deadline_stops: u64,
    /// Hot connections driven (`--conns`).
    pub hot_conns: u64,
}

impl LoadReport {
    /// Aggregate throughput over the request phase.
    #[must_use]
    pub fn req_per_sec(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.responses as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Verified payload throughput over the request phase, in MB/s
    /// (decimal megabytes, counting `DATA` reply bytes only).
    #[must_use]
    pub fn payload_mb_per_sec(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.payload_bytes as f64 / 1e6 / self.elapsed.as_secs_f64()
        }
    }

    /// Client-observed hit ratio.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.hits as f64 / self.responses as f64
        }
    }

    /// The human-readable closing report.
    #[must_use]
    pub fn render(&self) -> String {
        let p50 = self.latency_hist.quantile(0.5);
        let p99 = self.latency_hist.quantile(0.99);
        let mut out = String::new();
        out.push_str(&format!(
            "sent={} responses={} elapsed={:.3}s rate={:.0} req/s hit_ratio={:.4}\n",
            self.sent,
            self.responses,
            self.elapsed.as_secs_f64(),
            self.req_per_sec(),
            self.hit_ratio(),
        ));
        out.push_str(&format!(
            "client latency: mean={:?} p50={} p99={}\n",
            self.mean_latency, p50, p99,
        ));
        out.push_str(&format!(
            "backpressure: busy_rejects={} retries={} exhausted={}\n",
            self.busy_rejects, self.retries, self.exhausted,
        ));
        // The run is bounded by min(source exhaustion, --secs); say
        // which bound actually ended it so a replay that quietly ran
        // out of trace is not mistaken for a full-duration run.
        out.push_str(&format!(
            "run end: {}\n",
            if self.deadline_stops == 0 {
                "source exhausted on every connection".to_owned()
            } else if self.deadline_stops >= self.hot_conns {
                "--secs deadline on every connection".to_owned()
            } else {
                format!(
                    "--secs deadline on {}/{} connections (source exhausted on the rest)",
                    self.deadline_stops, self.hot_conns,
                )
            }
        ));
        if self.payload_bytes > 0 || self.verify_failures > 0 || self.corrupt > 0 {
            out.push_str(&format!(
                "payload: bytes={} rate={:.1} MB/s verify_failures={} corrupt={} server_crc_failures={}\n",
                self.payload_bytes,
                self.payload_mb_per_sec(),
                self.verify_failures,
                self.corrupt,
                self.stats.crc_failures,
            ));
        }
        out.push_str(&format!(
            "server: requests={} hits={} energy_j={:.2} shards={} busy_rejects={} queue_hw={} (all energies > 0: {})\n",
            self.stats.requests,
            self.stats.hits,
            self.stats.energy_j,
            self.stats.shard_energy_j.len(),
            self.stats.busy_rejects,
            self.stats.queue_high_water,
            self.stats.shard_energy_j.iter().all(|&e| e > 0.0),
        ));
        // Present only when the server runs the adaptive meta-policy
        // AND it actually switched champions — the line greppable smoke
        // tests assert on.
        if self.stats.meta_switches > 0 {
            out.push_str(&format!(
                "server meta: switches={}\n",
                self.stats.meta_switches
            ));
        }
        if self.idle_conns > 0 || self.stats.io_connections > 0 {
            let per_conn = self
                .stats
                .io_buffer_bytes
                .checked_div(self.stats.io_connections)
                .unwrap_or(0);
            out.push_str(&format!(
                "conn-scale: idle_held={} server_fds={} server_buffer_bytes={} (~{per_conn} B/conn)\n",
                self.idle_conns, self.stats.io_connections, self.stats.io_buffer_bytes,
            ));
        }
        out
    }
}

/// Runs the load against a live server and collects the report.
///
/// # Errors
///
/// Propagates connection and socket errors, and reports a malformed or
/// unparseable STATS payload as `InvalidData`.
pub fn run_tcp(cfg: &LoadgenConfig) -> std::io::Result<LoadReport> {
    assert!(cfg.conns > 0, "need at least one connection");

    // File replay: memory-map the trace and verify every chunk up front
    // (a corrupt file must fail before any load hits the server); the
    // hot connections then share the map through round-robin cursors —
    // connection `c` replays records c, c+conns, c+2·conns, … in file
    // order, with no per-connection vectors and no per-record
    // allocation in the send loop.
    let trace_map: Option<Arc<pc_tracefile::MappedTrace>> = match &cfg.trace {
        Some(path) => {
            let map = pc_tracefile::MappedTrace::open(path)?;
            map.verify_all()?;
            Some(Arc::new(map))
        }
        None => None,
    };

    // High-count mode: everything past the hot `conns` is a
    // mostly-idle connection — opened up front, served one request,
    // then held silent so the final STATS snapshot observes the full
    // fd population on the server's IO-thread gauges.
    let idle_target = cfg.connections.saturating_sub(cfg.conns);
    let release = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicU64::new(0));
    let mut holders = Vec::new();
    if idle_target > 0 {
        let threads = idle_target.min(4);
        let per = idle_target.div_ceil(threads);
        for t in 0..threads {
            let (lo, hi) = (t * per, ((t + 1) * per).min(idle_target));
            if lo >= hi {
                break;
            }
            let addr = cfg.addr.clone();
            let release = Arc::clone(&release);
            let ready = Arc::clone(&ready);
            let timeout = cfg.io_timeout;
            holders.push(std::thread::spawn(move || {
                idle_holder(&addr, lo..hi, timeout, &ready, &release)
            }));
        }
    }

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.secs.max(0.01));
    let mut handles = Vec::with_capacity(cfg.conns);
    for conn in 0..cfg.conns {
        let addr = cfg.addr.clone();
        let stream = match &trace_map {
            Some(map) => ReplaySource::Mapped(StrideCursor {
                map: Arc::clone(map),
                next: conn as u64,
                stride: cfg.conns as u64,
            }),
            None => ReplaySource::Generated(Box::new(cfg.stream_for(conn))),
        };
        let pace_ns = cfg
            .rate
            .map(|r| ((1e9 * cfg.conns as f64) / r.max(1.0)) as u64);
        let knobs = RetryKnobs {
            budget: cfg.retry_budget,
            backoff_us: cfg.backoff_us.max(1),
            backoff_cap_us: cfg.backoff_cap_us.max(cfg.backoff_us.max(1)),
            io_timeout: cfg.io_timeout,
            seed: cfg.seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            data: cfg.payload.then_some(cfg.block_bytes.max(1)),
        };
        handles.push(std::thread::spawn(move || {
            conn_worker(&addr, stream, deadline, pace_ns, knobs)
        }));
    }
    let mut sent = 0u64;
    let mut responses = 0u64;
    let mut hits = 0u64;
    let mut busy_rejects = 0u64;
    let mut retries = 0u64;
    let mut exhausted = 0u64;
    let mut lat_ns_total = 0u64;
    let mut payload_bytes = 0u64;
    let mut verify_failures = 0u64;
    let mut corrupt = 0u64;
    let mut deadline_stops = 0u64;
    let mut latency_hist = latency_histogram();
    for h in handles {
        let (stats, hist) = h
            .join()
            .map_err(|_| std::io::Error::other("worker panicked"))??;
        sent += stats.sent;
        responses += stats.responses;
        hits += stats.hits;
        busy_rejects += stats.busy;
        retries += stats.retries;
        exhausted += stats.exhausted;
        lat_ns_total += stats.lat_ns_total;
        payload_bytes += stats.payload_bytes;
        verify_failures += stats.verify_failures;
        corrupt += stats.corrupt;
        deadline_stops += u64::from(stats.hit_deadline);
        latency_hist.merge(&hist);
    }
    let elapsed = started.elapsed();

    // Every idle connection must be established (and its one request
    // answered) before the snapshot, or the gauge undercounts fds.
    if idle_target > 0 {
        let wait_until = Instant::now() + cfg.io_timeout;
        while ready.load(Ordering::Acquire) < idle_target as u64 {
            if Instant::now() > wait_until {
                break; // The holder thread will surface its own error.
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Final STATS over a fresh connection, after all load finished but
    // while the idle population is still holding its sockets open.
    let stats_json = fetch_stats(&cfg.addr, cfg.io_timeout)?;
    let stats = parse_stats_json(&stats_json).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "server STATS payload did not parse",
        )
    })?;
    release.store(true, Ordering::Release);
    let mut idle_conns = 0u64;
    for h in holders {
        let (h_sent, h_resp, h_hits, h_busy) = h
            .join()
            .map_err(|_| std::io::Error::other("idle holder panicked"))??;
        sent += h_sent;
        responses += h_resp;
        hits += h_hits;
        busy_rejects += h_busy;
        idle_conns += h_resp + h_busy;
    }
    let mean_latency = lat_ns_total
        .checked_div(responses)
        .map_or(Duration::ZERO, Duration::from_nanos);
    Ok(LoadReport {
        sent,
        responses,
        hits,
        busy_rejects,
        retries,
        exhausted,
        elapsed,
        latency_hist,
        mean_latency,
        stats_json,
        stats,
        idle_conns,
        payload_bytes,
        verify_failures,
        corrupt,
        deadline_stops,
        hot_conns: cfg.conns as u64,
    })
}

/// Appends the deterministic disk-image payload for `blocks` blocks
/// starting at `(disk, block)` — exactly the bytes the server stores on
/// a write and synthesizes on a miss, so `DATA` replies verify
/// bit-for-bit.
fn image_payload(disk: u32, block: u64, blocks: u16, block_bytes: usize, buf: &mut Vec<u8>) {
    let n = usize::from(blocks.max(1));
    let at = buf.len();
    buf.resize(at + n * block_bytes, 0);
    for i in 0..n {
        let lo = at + i * block_bytes;
        fill_block(
            disk,
            block.wrapping_add(i as u64),
            &mut buf[lo..lo + block_bytes],
        );
    }
}

/// Encodes one load request: the metadata frame, or — when `data`
/// carries the block size — the payload frame, with a write's image
/// bytes regenerated into `scratch` on the spot. Regeneration is what
/// makes `BUSY` retries free: nothing sent ever needs to be stored.
#[allow(clippy::too_many_arguments)]
fn encode_load_request(
    seq: u32,
    write: bool,
    disk: u32,
    block: u64,
    blocks: u16,
    data: Option<usize>,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    match data {
        None => encode_request(
            &Request::Io {
                seq,
                write,
                disk,
                block,
                blocks,
            },
            out,
        ),
        Some(bb) => {
            scratch.clear();
            if write {
                image_payload(disk, block, blocks, bb, scratch);
            }
            encode_data_request(seq, write, disk, block, blocks, scratch, out);
        }
    }
}

/// Opens the `ids` slice of mostly-idle connections: each connects,
/// sends a single READ, waits for the reply (counting it toward the
/// run's books so client and server totals still balance), then holds
/// the socket open and silent until `release` flips. Returns
/// `(sent, responses, hits, busy)` for the slice.
fn idle_holder(
    addr: &str,
    ids: std::ops::Range<usize>,
    timeout: Duration,
    ready: &AtomicU64,
    release: &AtomicBool,
) -> std::io::Result<(u64, u64, u64, u64)> {
    let mut held = Vec::with_capacity(ids.len());
    let (mut sent, mut responses, mut hits, mut busy) = (0u64, 0u64, 0u64, 0u64);
    for id in ids {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut wire = Vec::new();
        encode_request(
            &Request::Io {
                seq: id as u32,
                write: false,
                disk: (id % 61) as u32,
                block: (id as u64).wrapping_mul(0x9E37_79B9),
                blocks: 1,
            },
            &mut wire,
        );
        stream.write_all(&wire)?;
        sent += 1;
        let mut fb = FrameBuf::new();
        'reply: loop {
            match fb
                .next_response()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            {
                Some(Response::Io { hit, .. }) => {
                    responses += 1;
                    if hit {
                        hits += 1;
                    }
                    break 'reply;
                }
                Some(Response::Busy { .. }) => {
                    busy += 1;
                    break 'reply;
                }
                Some(_) => continue,
                None => {
                    if fb.read_from(&mut stream)? == 0 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed an idle connection's first request",
                        ));
                    }
                }
            }
        }
        held.push(stream);
        ready.fetch_add(1, Ordering::Release);
    }
    while !release.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(held);
    Ok((sent, responses, hits, busy))
}

/// Client-side latency bins: 1 µs … ~4.5 min in 28 doubling bins.
fn latency_histogram() -> IntervalHistogram {
    IntervalHistogram::geometric(SimDuration::from_micros(1), 28)
}

/// Fetches a STATS snapshot over a dedicated connection. Both socket
/// directions carry `timeout`, so a server that accepts but never
/// replies (or never reads) fails the call instead of hanging it.
///
/// # Errors
///
/// Propagates socket errors; a closed or unframeable stream is
/// `InvalidData`/`UnexpectedEof`; a silent server is
/// `WouldBlock`/`TimedOut`.
pub fn fetch_stats(addr: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut wire = Vec::new();
    encode_request(&Request::Stats { seq: 0 }, &mut wire);
    stream.write_all(&wire)?;
    let mut fb = FrameBuf::new();
    loop {
        match fb
            .next_response()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
        {
            Some(Response::Stats { json, .. }) => return Ok(json),
            Some(_) => continue,
            None => {
                if fb.read_from(&mut stream)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed before STATS reply",
                    ));
                }
            }
        }
    }
}

/// Asks the server to drain and exit (the `SHUTDOWN` opcode), waiting
/// for the acknowledgement.
///
/// # Errors
///
/// Propagates socket errors.
pub fn send_shutdown(addr: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut wire = Vec::new();
    encode_request(&Request::Shutdown { seq: 0 }, &mut wire);
    stream.write_all(&wire)?;
    let mut fb = FrameBuf::new();
    loop {
        match fb
            .next_response()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
        {
            Some(Response::Shutdown { .. }) => return Ok(()),
            Some(_) => continue,
            None => {
                if fb.read_from(&mut stream)? == 0 {
                    return Ok(()); // Ack lost in the drain: still shut down.
                }
            }
        }
    }
}

/// A request bounced with `BUSY`, travelling from the receiver thread
/// back to the sender for a backoff-paced resend.
#[derive(Debug, Clone, Copy)]
struct RetryReq {
    disk: u32,
    block: u64,
    blocks: u16,
    write: bool,
    /// 1 for the first resend, incremented per bounce.
    attempt: u32,
}

/// Packs the fields a retry needs into the per-slot metadata word:
/// `disk:32 | blocks:16 | attempt:15 | write:1`.
fn pack_meta(disk: u32, blocks: u16, attempt: u32, write: bool) -> u64 {
    (u64::from(disk) << 32)
        | (u64::from(blocks) << 16)
        | (u64::from(attempt & 0x7FFF) << 1)
        | u64::from(write)
}

/// Sleeps one capped-exponential backoff round (with jitter, so
/// connections do not resynchronize), then resends every pending retry
/// under fresh sequence numbers. Returns the number of resends.
#[allow(clippy::too_many_arguments)]
fn resend_round(
    pending: &mut Vec<RetryReq>,
    write_half: &mut TcpStream,
    buf: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    seq: &mut u32,
    start: Instant,
    ring: &[AtomicU64],
    meta: &[(AtomicU64, AtomicU64)],
    outstanding: &AtomicI64,
    rng: &mut StdRng,
    knobs: &RetryKnobs,
) -> std::io::Result<u64> {
    if pending.is_empty() {
        return Ok(0);
    }
    // One sleep per round, scaled to the round's furthest-along request.
    let attempt = pending.iter().map(|r| r.attempt).max().unwrap_or(1).max(1);
    let base = knobs
        .backoff_us
        .saturating_mul(1u64 << (attempt - 1).min(20));
    let us = (base.min(knobs.backoff_cap_us) as f64 * rng.gen_range(0.5..1.5)) as u64;
    // Flush queued fresh requests first so they are not held back by
    // the sleep.
    if !buf.is_empty() {
        write_half.write_all(buf)?;
        buf.clear();
    }
    std::thread::sleep(Duration::from_micros(us.max(1)));
    let n = pending.len() as u64;
    for r in pending.drain(..) {
        let slot = *seq as usize % RING;
        ring[slot].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        meta[slot].0.store(
            pack_meta(r.disk, r.blocks, r.attempt, r.write),
            Ordering::Relaxed,
        );
        meta[slot].1.store(r.block, Ordering::Relaxed);
        encode_load_request(
            *seq, r.write, r.disk, r.block, r.blocks, knobs.data, scratch, buf,
        );
        *seq = seq.wrapping_add(1);
        outstanding.fetch_add(1, Ordering::AcqRel);
    }
    write_half.write_all(buf)?;
    buf.clear();
    Ok(n)
}

/// One connection: a sender thread (this one) paced open-loop plus a
/// receiver thread matching responses to send timestamps. `BUSY`
/// responses flow back to the sender over a retry channel and are
/// resent after a backoff, until the per-request budget runs out.
fn conn_worker(
    addr: &str,
    records: ReplaySource,
    deadline: Instant,
    pace_ns: Option<u64>,
    knobs: RetryKnobs,
) -> std::io::Result<(ConnStats, IntervalHistogram)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(knobs.io_timeout))?;
    let mut read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(Duration::from_millis(50)))?;

    let ring: Arc<Vec<AtomicU64>> = Arc::new((0..RING).map(|_| AtomicU64::new(0)).collect());
    let meta: Arc<Vec<(AtomicU64, AtomicU64)>> = Arc::new(
        (0..RING)
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
            .collect(),
    );
    let outstanding = Arc::new(AtomicI64::new(0));
    let sender_done = Arc::new(AtomicBool::new(false));
    let abort = Arc::new(AtomicBool::new(false));
    let (retry_tx, retry_rx) = channel::<RetryReq>();
    let start = Instant::now();

    let receiver = {
        let ring = Arc::clone(&ring);
        let meta = Arc::clone(&meta);
        let outstanding = Arc::clone(&outstanding);
        let sender_done = Arc::clone(&sender_done);
        let abort = Arc::clone(&abort);
        let budget = knobs.budget;
        let data = knobs.data;
        std::thread::spawn(move || -> std::io::Result<(ConnStats, IntervalHistogram)> {
            let mut fb = FrameBuf::new();
            let mut stats = ConnStats::default();
            let mut hist = latency_histogram();
            let mut expected = Vec::new();
            let hard_stop = deadline + Duration::from_secs(15);
            loop {
                while let Some(resp) = fb
                    .next_response()
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
                {
                    match resp {
                        Response::Io { seq, hit, .. } => {
                            let sent_ns = ring[seq as usize % RING].load(Ordering::Relaxed);
                            let now_ns = start.elapsed().as_nanos() as u64;
                            let lat_ns = now_ns.saturating_sub(sent_ns);
                            stats.lat_ns_total += lat_ns;
                            hist.record(SimDuration::from_micros((lat_ns / 1_000).max(1)));
                            stats.responses += 1;
                            stats.hits += u64::from(hit);
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                        }
                        Response::Data {
                            seq, hit, payload, ..
                        } => {
                            let slot = seq as usize % RING;
                            let sent_ns = ring[slot].load(Ordering::Relaxed);
                            let now_ns = start.elapsed().as_nanos() as u64;
                            let lat_ns = now_ns.saturating_sub(sent_ns);
                            stats.lat_ns_total += lat_ns;
                            hist.record(SimDuration::from_micros((lat_ns / 1_000).max(1)));
                            stats.responses += 1;
                            stats.hits += u64::from(hit);
                            stats.payload_bytes += payload.len() as u64;
                            if let Some(bb) = data {
                                // Recover the request from the slot
                                // metadata and verify the reply against
                                // the deterministic image: CRC first,
                                // then exact bytes.
                                let w1 = meta[slot].0.load(Ordering::Relaxed);
                                let block = meta[slot].1.load(Ordering::Relaxed);
                                expected.clear();
                                image_payload(
                                    (w1 >> 32) as u32,
                                    block,
                                    (w1 >> 16) as u16,
                                    bb,
                                    &mut expected,
                                );
                                if crc32c(&payload) != crc32c(&expected) || payload != expected {
                                    stats.verify_failures += 1;
                                }
                            }
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                        }
                        Response::Corrupt { .. } => {
                            // Detected server-side and counted there too;
                            // the request is answered, not retried.
                            stats.corrupt += 1;
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                        }
                        Response::Busy { seq, .. } => {
                            stats.busy += 1;
                            let slot = seq as usize % RING;
                            let w1 = meta[slot].0.load(Ordering::Relaxed);
                            let attempt = ((w1 >> 1) & 0x7FFF) as u32;
                            // Forward-then-decrement: the sender treats
                            // "outstanding is zero" as proof the retry
                            // channel has gone quiet, so the enqueue
                            // must be visible before the count drops.
                            if attempt >= budget
                                || retry_tx
                                    .send(RetryReq {
                                        disk: (w1 >> 32) as u32,
                                        blocks: (w1 >> 16) as u16,
                                        write: w1 & 1 == 1,
                                        block: meta[slot].1.load(Ordering::Relaxed),
                                        attempt: attempt + 1,
                                    })
                                    .is_err()
                            {
                                stats.exhausted += 1;
                            }
                            outstanding.fetch_sub(1, Ordering::AcqRel);
                        }
                        _ => {}
                    }
                }
                if sender_done.load(Ordering::Acquire) && outstanding.load(Ordering::Acquire) <= 0 {
                    return Ok((stats, hist));
                }
                if abort.load(Ordering::Acquire) || Instant::now() > hard_stop {
                    return Ok((stats, hist)); // Give up on stragglers.
                }
                match fb.read_from(&mut read_half) {
                    Ok(0) => return Ok((stats, hist)),
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(e) => return Err(e),
                }
            }
        })
    };

    let mut write_half = stream;
    let mut rng = StdRng::seed_from_u64(knobs.seed);
    let send_result = (|| -> std::io::Result<(u64, u64, bool)> {
        let mut buf = Vec::with_capacity(SEND_CHUNK + 64);
        let mut scratch = Vec::new();
        let mut seq = 0u32;
        let mut sent = 0u64;
        let mut retries = 0u64;
        let mut hit_deadline = false;
        let mut pending: Vec<RetryReq> = Vec::new();
        // Payload replies are block-sized, not 14 bytes: cap the
        // in-flight window so a connection's reply backlog stays a few
        // MiB instead of WINDOW × block_bytes.
        let window = if knobs.data.is_some() {
            WINDOW.min(1024)
        } else {
            WINDOW
        };
        for record in records {
            // Check the clock often enough for the deadline to bite
            // without paying a syscall per request, and pick up bounced
            // requests on the same cadence.
            if sent.is_multiple_of(512) {
                if Instant::now() >= deadline {
                    hit_deadline = true;
                    break;
                }
                pending.extend(retry_rx.try_iter());
                retries += resend_round(
                    &mut pending,
                    &mut write_half,
                    &mut buf,
                    &mut scratch,
                    &mut seq,
                    start,
                    &ring,
                    &meta,
                    &outstanding,
                    &mut rng,
                    &knobs,
                )?;
            }
            if let Some(gap) = pace_ns {
                let target = start + Duration::from_nanos(sent * gap);
                if !buf.is_empty() && Instant::now() < target {
                    write_half.write_all(&buf)?;
                    buf.clear();
                }
                // A paced stream can sit in this wait far longer than
                // the 512-send clock cadence above — without its own
                // deadline check, --trace --secs overshoots by up to
                // 512 paced gaps.
                while Instant::now() < target {
                    if Instant::now() >= deadline {
                        hit_deadline = true;
                        break;
                    }
                    std::thread::yield_now();
                }
                if hit_deadline {
                    break;
                }
            }
            while outstanding.load(Ordering::Relaxed) >= window {
                if !buf.is_empty() {
                    write_half.write_all(&buf)?;
                    buf.clear();
                }
                std::thread::yield_now();
                if Instant::now() >= deadline {
                    hit_deadline = true;
                    break;
                }
            }
            // A full window at the deadline ends the run; sending one
            // more record anyway would push past both bounds.
            if hit_deadline {
                break;
            }
            let slot = seq as usize % RING;
            ring[slot].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let write = record.op == IoOp::Write;
            let disk = record.block.disk().index();
            let block = record.block.block().number();
            let mut blocks = u16::try_from(record.blocks).unwrap_or(u16::MAX);
            if knobs.data.is_some() {
                blocks = blocks.clamp(1, MAX_DATA_BLOCKS);
            }
            meta[slot]
                .0
                .store(pack_meta(disk, blocks, 0, write), Ordering::Relaxed);
            meta[slot].1.store(block, Ordering::Relaxed);
            encode_load_request(
                seq,
                write,
                disk,
                block,
                blocks,
                knobs.data,
                &mut scratch,
                &mut buf,
            );
            seq = seq.wrapping_add(1);
            sent += 1;
            outstanding.fetch_add(1, Ordering::AcqRel);
            if buf.len() >= SEND_CHUNK {
                write_half.write_all(&buf)?;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            write_half.write_all(&buf)?;
            buf.clear();
        }

        // Drain: keep resending bounced requests until every send has
        // been answered. The grace period is the socket timeout — the
        // same budget we give a silent server elsewhere; giving up
        // flips `abort` so the receiver stops waiting for stragglers.
        let drain_deadline =
            deadline.max(Instant::now()) + knobs.io_timeout.max(Duration::from_millis(100));
        loop {
            pending.extend(retry_rx.try_iter());
            if pending.is_empty() {
                if outstanding.load(Ordering::Acquire) <= 0 {
                    // Every enqueue precedes its decrement, so with the
                    // count at zero one more look at the channel is
                    // conclusive.
                    pending.extend(retry_rx.try_iter());
                    if pending.is_empty() {
                        break;
                    }
                } else {
                    match retry_rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(r) => pending.push(r),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
            retries += resend_round(
                &mut pending,
                &mut write_half,
                &mut buf,
                &mut scratch,
                &mut seq,
                start,
                &ring,
                &meta,
                &outstanding,
                &mut rng,
                &knobs,
            )?;
            if Instant::now() > drain_deadline {
                abort.store(true, Ordering::Release);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!(
                        "server went silent: {} requests still unanswered after the drain grace",
                        outstanding.load(Ordering::Acquire).max(0)
                    ),
                ));
            }
        }
        Ok((sent, retries, hit_deadline))
    })();

    if send_result.is_err() {
        abort.store(true, Ordering::Release);
    }
    sender_done.store(true, Ordering::Release);
    let recv_result = receiver
        .join()
        .map_err(|_| std::io::Error::other("receiver panicked"))?;
    let (sent, retries, hit_deadline) = send_result?;
    let (mut stats, hist) = recv_result?;
    stats.sent = sent + retries;
    stats.retries = retries;
    stats.hit_deadline = hit_deadline;
    Ok((stats, hist))
}

/// The closing report of a deterministic in-process run: client-side
/// tallies plus the final cluster snapshot with closed energy books.
#[derive(Debug)]
pub struct InProcReport {
    /// Requests submitted to the cluster.
    pub submitted: u64,
    /// Requests admitted and executed.
    pub served: u64,
    /// Served requests that hit the cache.
    pub hits: u64,
    /// Requests rejected at a full shard queue (`submitted` minus
    /// `served`); rejected requests never touch the energy books.
    pub busy_rejects: u64,
    /// The final snapshot, with idle tails closed.
    pub snapshot: ClusterSnapshot,
}

/// Runs the workload through an in-process cluster (no sockets): the
/// deterministic mode. Backpressure is modelled in virtual time — with
/// a `--slow-shard` delay and a tiny queue bound the same records are
/// rejected on every run.
#[must_use]
pub fn run_in_process(
    engine: &crate::shard::EngineConfig,
    workload: &Workload,
    seed: u64,
) -> InProcReport {
    let mut cluster = crate::shard::InProcCluster::new(engine);
    let mut submitted = 0u64;
    let mut served = 0u64;
    let mut hits = 0u64;
    for record in workload.stream(seed) {
        submitted += 1;
        if let Some(outcome) = cluster.submit(&record).served() {
            served += 1;
            hits += u64::from(outcome.hit);
        }
    }
    let busy_rejects = cluster.busy_rejects().iter().sum();
    InProcReport {
        submitted,
        served,
        hits,
        busy_rejects,
        snapshot: cluster.into_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::EngineConfig;

    #[test]
    fn in_process_mode_is_deterministic_end_to_end() {
        let w = Workload::parse("synthetic").unwrap().with_requests(4_000);
        let engine = EngineConfig::new(2, 4);
        let r1 = run_in_process(&engine, &w, 7);
        let r2 = run_in_process(&engine, &w, 7);
        assert_eq!(r1.submitted, 4_000);
        assert_eq!(r1.served, 4_000, "an unslowed cluster admits everything");
        assert_eq!(r1.busy_rejects, 0);
        assert_eq!(
            (r1.submitted, r1.served, r1.hits),
            (r2.submitted, r2.served, r2.hits)
        );
        assert_eq!(r1.snapshot.to_json(), r2.snapshot.to_json());
        assert!(r1.hits > 0, "a 4k-request zipf stream must hit sometimes");
    }

    #[test]
    fn retry_metadata_packs_and_unpacks() {
        let w1 = pack_meta(7, 16, 3, true);
        assert_eq!((w1 >> 32) as u32, 7);
        assert_eq!((w1 >> 16) as u16, 16);
        assert_eq!(((w1 >> 1) & 0x7FFF) as u32, 3);
        assert_eq!(w1 & 1, 1);
        let w2 = pack_meta(u32::MAX, u16::MAX, 0x7FFF, false);
        assert_eq!((w2 >> 32) as u32, u32::MAX);
        assert_eq!((w2 >> 16) as u16, u16::MAX);
        assert_eq!(((w2 >> 1) & 0x7FFF) as u32, 0x7FFF);
        assert_eq!(w2 & 1, 0);
    }

    #[test]
    fn stride_cursors_deal_records_round_robin_in_file_order() {
        // The mapped replacement must preserve the old deal semantics:
        // connection c gets records c, c+conns, c+2·conns, … in order.
        let workload = Workload::parse("synthetic").unwrap().with_requests(103);
        let records: Vec<Record> = workload.clone().stream(11).collect();
        let dir = std::env::temp_dir().join(format!("pc-loadgen-deal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deal.pct");
        pc_tracefile::write_records(&path, workload.disk_count(), records.iter().copied()).unwrap();

        let map = Arc::new(pc_tracefile::MappedTrace::open(&path).unwrap());
        map.verify_all().unwrap();
        let conns = 3;
        for conn in 0..conns {
            let dealt: Vec<Record> = StrideCursor {
                map: Arc::clone(&map),
                next: conn as u64,
                stride: conns as u64,
            }
            .collect();
            let expected: Vec<Record> = records.iter().skip(conn).step_by(conns).copied().collect();
            assert_eq!(dealt, expected, "connection {conn}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_block_payloads_are_the_per_block_images_joined() {
        let bb = 4096;
        let mut payload = vec![0xEE; 3]; // appends, never overwrites
        image_payload(9, u64::MAX - 1, 3, bb, &mut payload);
        let mut want = vec![0xEE; 3];
        for block in [u64::MAX - 1, u64::MAX, 0] {
            let mut image = vec![0u8; bb];
            fill_block(9, block, &mut image);
            want.extend_from_slice(&image);
        }
        assert_eq!(payload, want);
    }

    #[test]
    fn eager_workloads_get_a_request_cap() {
        let cfg = LoadgenConfig {
            workload: Workload::parse("oltp").unwrap().with_requests(usize::MAX),
            ..LoadgenConfig::new("unused".into())
        };
        // Must not try to materialize usize::MAX records.
        let n = cfg.stream_for(0).take(3).count();
        assert_eq!(n, 3);
    }
}
