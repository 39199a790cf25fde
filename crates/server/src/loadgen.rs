//! The load generator: replays a [`Workload`] stream against a
//! `pc-server` over M concurrent connections, open-loop, and collects a
//! closing report (client-measured latency plus the server's own STATS
//! snapshot).
//!
//! Each hot connection is one thread with one nonblocking socket under
//! its own [`Poller`], and one seq-keyed in-flight table that owns each
//! request from first send to final answer. A `BUSY` reply parks the
//! request for a capped exponential backoff with seeded jitter, then
//! resends it under a fresh seq, up to a per-request retry budget; a
//! request whose budget runs out counts as `exhausted`. What keeps
//! `BUSY` rare is the connection's in-flight window, which halves on
//! `BUSY` and grows back on clean replies, so a closed loop settles at
//! what the server admits. A silent server is a `TimedOut` error, never
//! a hang.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, ErrorKind, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pc_cache::IntervalHistogram;
use pc_trace::{IoOp, Record, Workload};
use pc_tracefile::MappedTrace;
use pc_units::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::fill_block;
use crate::poller::{Interest, Poller};
use crate::protocol::{
    encode_data_request, encode_request, FrameBuf, Request, Response, DEFAULT_BLOCK_BYTES,
    MAX_DATA_BLOCKS,
};
use crate::stats::{parse_stats_json, StatsSummary};

/// The largest in-flight window of a metadata connection.
const WINDOW_CAP: usize = 32 * 1024;

/// The largest in-flight window in payload mode: replies are
/// block-sized, not 14 bytes, so a connection's reply backlog stays a
/// few MiB instead of `WINDOW_CAP × block_bytes`.
const PAYLOAD_WINDOW_CAP: usize = 1024;

/// The window a connection opens with; it doubles per clean round trip
/// until the first `BUSY`.
const INITIAL_WINDOW: usize = 64;

/// Encode at most this many bytes ahead of the socket.
const SEND_CHUNK: usize = 48 * 1024;

/// Resends granted to a request answered `BUSY` before it counts as
/// exhausted.
const RETRY_BUDGET: u32 = 8;

/// Backoff before the first resend, in microseconds; doubles per
/// attempt up to [`BACKOFF_CAP_US`].
const BACKOFF_US: u64 = 200;

/// Backoff ceiling in microseconds.
const BACKOFF_CAP_US: u64 = 20_000;

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
    /// The grace a hot connection gives its last replies after the run,
    /// and the socket timeout of the STATS and idle-probe round trips.
    pub io_timeout: Duration,
    /// Drive the protocol-v2 data plane: writes carry their block
    /// payloads (`WRITE_DATA`), reads are `READ_DATA`, and every `DATA`
    /// reply is verified byte for byte against the deterministic disk
    /// image the server serves.
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
    /// 10 s socket timeouts.
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

/// Connection `conn`'s share of a mapped trace: records `conn`,
/// `conn + conns`, `conn + 2·conns`, … in file order, decoded straight
/// off the shared map. The map is verified in full before any share is
/// dealt, so `get` cannot fail here.
fn stride(map: Arc<MappedTrace>, conn: usize, conns: usize) -> impl Iterator<Item = Record> + Send {
    (conn as u64..map.len())
        .step_by(conns)
        .map(move |i| map.get(i).expect("trace verified before replay"))
}

/// One connection's tallies, summed into the report by [`ConnStats::add`].
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
    /// 1 when the `--secs` deadline stopped this connection; 0 when its
    /// record source (generator bound or trace file) ran dry.
    deadline_stops: u64,
    /// The in-flight window at the end of the run (not summed).
    window: u64,
}

impl ConnStats {
    fn add(&mut self, o: &ConnStats) {
        self.sent += o.sent;
        self.responses += o.responses;
        self.hits += o.hits;
        self.busy += o.busy;
        self.retries += o.retries;
        self.exhausted += o.exhausted;
        self.lat_ns_total += o.lat_ns_total;
        self.payload_bytes += o.payload_bytes;
        self.verify_failures += o.verify_failures;
        self.corrupt += o.corrupt;
        self.deadline_stops += o.deadline_stops;
    }
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
    /// `DATA` replies whose contents did not match the expected disk
    /// image — any non-zero value is a data-plane bug.
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
    /// The smallest in-flight window a hot connection ended the run
    /// with.
    pub window_min: u64,
    /// The largest in-flight window a hot connection ended the run with.
    pub window_max: u64,
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
            "backpressure: busy_rejects={} retries={} exhausted={} window={}..{}\n",
            self.busy_rejects, self.retries, self.exhausted, self.window_min, self.window_max,
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
pub fn run_tcp(cfg: &LoadgenConfig) -> io::Result<LoadReport> {
    assert!(cfg.conns > 0, "need at least one connection");

    // File replay: memory-map the trace and verify every chunk up front
    // (a corrupt file must fail before any load hits the server); the
    // hot connections then share the map through round-robin strides —
    // connection `c` replays records c, c+conns, c+2·conns, … in file
    // order, with no per-connection vectors and no per-record
    // allocation in the send loop.
    let trace_map = cfg.trace.as_ref().map(MappedTrace::open).transpose()?;
    let trace_map = trace_map.map(Arc::new);
    if let Some(map) = &trace_map {
        map.verify_all()?;
    }

    // High-count mode: everything past the hot `conns` is a
    // mostly-idle connection — opened up front, served one request,
    // then held silent so the final STATS snapshot observes the full
    // fd population on the server's IO-thread gauges.
    let idle_target = cfg.connections.saturating_sub(cfg.conns);
    let threads = idle_target.min(4);
    let mut holders = Vec::with_capacity(threads);
    for t in 0..threads {
        let ids = t * idle_target / threads..(t + 1) * idle_target / threads;
        let (addr, timeout) = (cfg.addr.clone(), cfg.io_timeout);
        holders.push(std::thread::spawn(move || idle_holder(&addr, ids, timeout)));
    }

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.secs.max(0.01));
    let pace_ns = cfg
        .rate
        .map(|r| ((1e9 * cfg.conns as f64) / r.max(1.0)) as u64);
    let mut handles = Vec::with_capacity(cfg.conns);
    for conn in 0..cfg.conns {
        let records: Box<dyn Iterator<Item = Record> + Send> = match &trace_map {
            Some(map) => Box::new(stride(Arc::clone(map), conn, cfg.conns)),
            None => Box::new(cfg.stream_for(conn)),
        };
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            HotConn::connect(&cfg, conn)?.run(records, deadline, pace_ns)
        }));
    }
    let mut total = ConnStats::default();
    let (mut window_min, mut window_max) = (u64::MAX, 0u64);
    let mut latency_hist = latency_histogram();
    for h in handles {
        let (stats, hist) = h
            .join()
            .map_err(|_| io::Error::other("connection thread panicked"))??;
        total.add(&stats);
        window_min = window_min.min(stats.window);
        window_max = window_max.max(stats.window);
        latency_hist.merge(&hist);
    }
    let elapsed = started.elapsed();

    // Every idle connection must be established (and its one request
    // answered) before the snapshot, or the gauge undercounts fds.
    let mut idle = ConnStats::default();
    let mut held = Vec::with_capacity(idle_target);
    for h in holders {
        let (stats, streams) = h
            .join()
            .map_err(|_| io::Error::other("idle holder panicked"))??;
        idle.add(&stats);
        held.extend(streams);
    }
    total.add(&idle);

    // Final STATS over a fresh connection, after all load finished but
    // while the idle population is still holding its sockets open.
    let stats_json = fetch_stats(&cfg.addr, cfg.io_timeout)?;
    let stats = parse_stats_json(&stats_json)
        .ok_or_else(|| invalid_data("server STATS payload did not parse"))?;
    drop(held);
    let mean_ns = total.lat_ns_total.checked_div(total.responses);
    Ok(LoadReport {
        sent: total.sent,
        responses: total.responses,
        hits: total.hits,
        busy_rejects: total.busy,
        retries: total.retries,
        exhausted: total.exhausted,
        elapsed,
        latency_hist,
        mean_latency: Duration::from_nanos(mean_ns.unwrap_or(0)),
        stats_json,
        stats,
        idle_conns: idle.responses + idle.busy,
        payload_bytes: total.payload_bytes,
        verify_failures: total.verify_failures,
        corrupt: total.corrupt,
        deadline_stops: total.deadline_stops,
        hot_conns: cfg.conns as u64,
        window_min,
        window_max,
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

/// Opens the `ids` slice of mostly-idle connections: each connects,
/// sends a single READ and waits for the reply (counting it toward the
/// run's books so client and server totals still balance). Returns the
/// open sockets, which the caller holds silent until its snapshot.
fn idle_holder(
    addr: &str,
    ids: std::ops::Range<usize>,
    timeout: Duration,
) -> io::Result<(ConnStats, Vec<TcpStream>)> {
    let mut held = Vec::with_capacity(ids.len());
    let mut stats = ConnStats::default();
    for id in ids {
        let probe = Request::Io {
            seq: id as u32,
            write: false,
            disk: (id % 61) as u32,
            block: (id as u64).wrapping_mul(0x9E37_79B9),
            blocks: 1,
        };
        // `Some(hit)` for an IO reply, `None` for BUSY.
        let (stream, answer) = round_trip(addr, timeout, &probe, |resp| match resp {
            Response::Io { hit, .. } => Some(Some(hit)),
            Response::Busy { .. } => Some(None),
            _ => None,
        })?;
        let closed = "server closed an idle connection's first request";
        stats.sent += 1;
        match answer.ok_or_else(|| error(ErrorKind::UnexpectedEof, closed))? {
            Some(hit) => {
                stats.responses += 1;
                stats.hits += u64::from(hit);
            }
            None => stats.busy += 1,
        }
        held.push(stream);
    }
    Ok((stats, held))
}

/// Client-side latency bins: 1 µs … ~4.5 min in 28 doubling bins.
fn latency_histogram() -> IntervalHistogram {
    IntervalHistogram::geometric(SimDuration::from_micros(1), 28)
}

fn error(kind: ErrorKind, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(kind, e.to_string())
}

fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    error(ErrorKind::InvalidData, e)
}

/// One request over a fresh connection whose both directions carry
/// `timeout`: sends `request`, then reads until `answer` picks a reply.
/// Returns the still-open stream with the picked value, or `None` when
/// the server closed the stream first.
fn round_trip<T>(
    addr: &str,
    timeout: Duration,
    request: &Request,
    mut answer: impl FnMut(Response) -> Option<T>,
) -> io::Result<(TcpStream, Option<T>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut wire = Vec::new();
    encode_request(request, &mut wire);
    stream.write_all(&wire)?;
    let mut fb = FrameBuf::new();
    loop {
        match fb.next_response().map_err(invalid_data)? {
            Some(resp) => {
                if let Some(picked) = answer(resp) {
                    return Ok((stream, Some(picked)));
                }
            }
            None => {
                if fb.read_from(&mut stream)? == 0 {
                    return Ok((stream, None));
                }
            }
        }
    }
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
pub fn fetch_stats(addr: &str, timeout: Duration) -> io::Result<String> {
    let request = Request::Stats { seq: 0 };
    let (_, json) = round_trip(addr, timeout, &request, |resp| match resp {
        Response::Stats { json, .. } => Some(json),
        _ => None,
    })?;
    json.ok_or_else(|| error(ErrorKind::UnexpectedEof, "server closed before STATS reply"))
}

/// Asks the server to drain and exit (the `SHUTDOWN` opcode), waiting
/// for the acknowledgement.
///
/// # Errors
///
/// Propagates socket errors.
pub fn send_shutdown(addr: &str) -> io::Result<()> {
    let request = Request::Shutdown { seq: 0 };
    // A stream closed before the ack means the ack was lost in the
    // drain: the server shut down all the same.
    round_trip(addr, Duration::from_secs(10), &request, |resp| {
        matches!(resp, Response::Shutdown { .. }).then_some(())
    })?;
    Ok(())
}

/// What a connection remembers about a request until it is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    seq: u32,
    /// Nanoseconds since the connection's epoch at the send a reply
    /// answers: a resend restamps it.
    sent_ns: u64,
    disk: u32,
    block: u64,
    blocks: u16,
    write: bool,
    /// Resends taken so far.
    attempt: u32,
}

/// The requests a connection has on the wire, keyed by `seq`. A send
/// takes the next seq whose slot (`seq % slots`) is free, so however
/// replies are reordered, a reply finds its own request or none.
#[derive(Debug)]
struct InFlight {
    slots: Vec<Option<Pending>>,
    len: usize,
    next_seq: u32,
}

impl InFlight {
    /// A table for up to `cap` requests (twice that many slots).
    fn new(cap: usize) -> Self {
        InFlight {
            slots: vec![None; (2 * cap).next_power_of_two()],
            len: 0,
            next_seq: 0,
        }
    }

    /// Files `p` under the next free seq and returns that seq.
    fn insert(&mut self, mut p: Pending) -> u32 {
        assert!(self.len < self.slots.len(), "in-flight table overfull");
        let mask = self.slots.len() - 1;
        while self.slots[self.next_seq as usize & mask].is_some() {
            self.next_seq = self.next_seq.wrapping_add(1);
        }
        p.seq = self.next_seq;
        self.slots[p.seq as usize & mask] = Some(p);
        self.next_seq = self.next_seq.wrapping_add(1);
        self.len += 1;
        p.seq
    }

    /// Removes and returns the request `seq` answers, if it is pending.
    fn take(&mut self, seq: u32) -> Option<Pending> {
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[seq as usize & mask];
        if slot.is_some_and(|p| p.seq == seq) {
            self.len -= 1;
            slot.take()
        } else {
            None
        }
    }
}

/// A connection's in-flight window: how many requests it may have sent
/// or parked but not yet answered, never more than `cap`. It halves on
/// `BUSY` at most once per round trip: a `BUSY` for a request sent
/// before the last cut reports the overload that cut already answered.
/// Until the first cut it grows by one per clean reply, doubling each
/// round trip; after it, by one per window of clean replies, one per
/// round trip.
#[derive(Debug)]
struct Window {
    size: usize,
    cap: usize,
    /// The first seq sent after the last cut.
    recover_seq: u32,
    /// No `BUSY` seen yet.
    opening: bool,
    /// Clean replies since the window last grew, after the first cut.
    clean: usize,
}

impl Window {
    fn new(cap: usize) -> Self {
        Window {
            size: INITIAL_WINDOW.min(cap),
            cap,
            recover_seq: 0,
            opening: true,
            clean: 0,
        }
    }

    fn on_clean_reply(&mut self) {
        self.clean += 1;
        if self.opening || self.clean >= self.size {
            self.clean = 0;
            self.size = (self.size + 1).min(self.cap);
        }
    }

    /// A `BUSY` for request `seq`; `next_seq` is the seq the next send
    /// would take.
    fn on_busy(&mut self, seq: u32, next_seq: u32) {
        // Wrapping order: `seq` was sent at or after `recover_seq`.
        if (seq.wrapping_sub(self.recover_seq) as i32) >= 0 {
            self.size = (self.size / 2).max(1);
            self.recover_seq = next_seq;
            self.opening = false;
            self.clean = 0;
        }
    }
}

/// One hot connection: a nonblocking socket, its poller, and every
/// request it owes an answer for, from first send to final answer.
struct HotConn {
    stream: TcpStream,
    poller: Poller,
    frames: FrameBuf,
    out: Vec<u8>,
    /// Bytes of `out` the socket has taken.
    out_at: usize,
    writable_armed: bool,
    inflight: InFlight,
    /// `BUSY`-bounced requests, earliest resend time first.
    parked: BinaryHeap<Reverse<(u64, Pending)>>,
    window: Window,
    epoch: Instant,
    rng: StdRng,
    cfg: LoadgenConfig,
    /// `Some(block_bytes)` drives the data plane (`READ_DATA`/
    /// `WRITE_DATA`); `None` is the metadata protocol.
    data: Option<usize>,
    scratch: Vec<u8>,
    stats: ConnStats,
    hist: IntervalHistogram,
}

impl HotConn {
    fn connect(cfg: &LoadgenConfig, conn: usize) -> io::Result<Self> {
        let stream = TcpStream::connect(&cfg.addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(stream.as_raw_fd(), 0, Interest::Readable)?;
        let data = cfg.payload.then_some(cfg.block_bytes.max(1));
        let cap = data.map_or(WINDOW_CAP, |_| PAYLOAD_WINDOW_CAP);
        let seed = cfg.seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Ok(HotConn {
            stream,
            poller,
            frames: FrameBuf::new(),
            out: Vec::with_capacity(SEND_CHUNK + 64),
            out_at: 0,
            writable_armed: false,
            inflight: InFlight::new(cap),
            parked: BinaryHeap::new(),
            window: Window::new(cap),
            epoch: Instant::now(),
            rng: StdRng::seed_from_u64(seed),
            cfg: cfg.clone(),
            data,
            scratch: Vec::new(),
            stats: ConnStats::default(),
            hist: latency_histogram(),
        })
    }

    /// Requests sent or parked and not yet answered.
    fn outstanding(&self) -> usize {
        self.inflight.len + self.parked.len()
    }

    /// Files `p` in the in-flight table and encodes it onto `out`. A
    /// write's image bytes are regenerated on the spot: nothing sent is
    /// ever stored, so a resend costs what a first send does.
    fn send(&mut self, mut p: Pending, now_ns: u64) {
        p.sent_ns = now_ns;
        let seq = self.inflight.insert(p);
        let (disk, block, blocks, write) = (p.disk, p.block, p.blocks, p.write);
        match self.data {
            None => {
                let io = Request::Io {
                    seq,
                    write,
                    disk,
                    block,
                    blocks,
                };
                encode_request(&io, &mut self.out);
            }
            Some(bb) => {
                self.scratch.clear();
                if write {
                    image_payload(disk, block, blocks, bb, &mut self.scratch);
                }
                encode_data_request(
                    seq,
                    write,
                    disk,
                    block,
                    blocks,
                    &self.scratch,
                    &mut self.out,
                );
            }
        }
    }

    /// Writes what the socket takes; arms writable interest for the
    /// rest.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let backlog = self.out_at < self.out.len();
        if !backlog {
            self.out.clear();
            self.out_at = 0;
        }
        if backlog != self.writable_armed {
            let interest = if backlog {
                Interest::Both
            } else {
                Interest::Readable
            };
            self.poller.modify(self.stream.as_raw_fd(), 0, interest)?;
            self.writable_armed = backlog;
        }
        Ok(())
    }

    /// Reads the socket dry and settles every complete reply.
    fn read_replies(&mut self) -> io::Result<()> {
        loop {
            match self.frames.read_from(&mut self.stream) {
                Ok(0) => {
                    let n = self.outstanding();
                    let msg = format!("server closed the connection with {n} requests unanswered");
                    return Err(error(ErrorKind::UnexpectedEof, msg));
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            while let Some(resp) = self.frames.next_response().map_err(invalid_data)? {
                self.settle(resp, now_ns)?;
            }
        }
    }

    fn settle(&mut self, resp: Response, now_ns: u64) -> io::Result<()> {
        let (seq, hit) = match &resp {
            Response::Io { seq, hit, .. } | Response::Data { seq, hit, .. } => (*seq, Some(*hit)),
            Response::Busy { seq, .. } | Response::Corrupt { seq } => (*seq, None),
            // STATS and SHUTDOWN replies answer no load request.
            Response::Stats { .. } | Response::Shutdown { .. } => return Ok(()),
        };
        let stray = || invalid_data(format!("reply for seq {seq}, which is not in flight"));
        let mut p = self.inflight.take(seq).ok_or_else(stray)?;
        match resp {
            Response::Busy { .. } => {
                self.stats.busy += 1;
                self.window.on_busy(seq, self.inflight.next_seq);
                if p.attempt >= RETRY_BUDGET {
                    self.stats.exhausted += 1;
                } else {
                    p.attempt += 1;
                    let due = now_ns + self.backoff_ns(p.attempt);
                    self.parked.push(Reverse((due, p)));
                }
                return Ok(());
            }
            // Detected server-side and counted there too; the request is
            // answered, not retried.
            Response::Corrupt { .. } => self.stats.corrupt += 1,
            Response::Data { payload, .. } => {
                self.stats.payload_bytes += payload.len() as u64;
                if let Some(bb) = self.data {
                    // Verify the reply against the deterministic image,
                    // byte for byte.
                    self.scratch.clear();
                    image_payload(p.disk, p.block, p.blocks, bb, &mut self.scratch);
                    if payload != self.scratch {
                        self.stats.verify_failures += 1;
                    }
                }
            }
            _ => {}
        }
        if let Some(hit) = hit {
            let lat_ns = now_ns.saturating_sub(p.sent_ns);
            self.stats.lat_ns_total += lat_ns;
            self.hist
                .record(SimDuration::from_micros((lat_ns / 1_000).max(1)));
            self.stats.responses += 1;
            self.stats.hits += u64::from(hit);
        }
        self.window.on_clean_reply();
        Ok(())
    }

    /// The capped exponential backoff before resend `attempt` (≥ 1),
    /// with jitter so connections do not resynchronize.
    fn backoff_ns(&mut self, attempt: u32) -> u64 {
        let us = (BACKOFF_US << (attempt - 1).min(20)).min(BACKOFF_CAP_US);
        ((us as f64 * self.rng.gen_range(0.5..1.5)) as u64).max(1) * 1_000
    }

    /// Drives `records` until the deadline or the source runs dry, then
    /// drains: resends bounced requests until every one is answered or
    /// exhausted, for at most `io_timeout` past the deadline.
    fn run(
        mut self,
        mut records: Box<dyn Iterator<Item = Record> + Send>,
        deadline: Instant,
        pace_ns: Option<u64>,
    ) -> io::Result<(ConnStats, IntervalHistogram)> {
        let grace = self.cfg.io_timeout.max(Duration::from_millis(100));
        let mut first_sends = 0u64;
        let mut events = Vec::new();
        // Set once no fresh record will go out: the end of the drain.
        let mut drain_by: Option<Instant> = None;
        loop {
            let now = Instant::now();
            let now_ns = now.duration_since(self.epoch).as_nanos() as u64;
            if drain_by.is_none() && now >= deadline {
                self.stats.deadline_stops = 1;
                drain_by = Some(now + grace);
            }
            while self
                .parked
                .peek()
                .is_some_and(|Reverse((due, _))| *due <= now_ns)
            {
                let Reverse((_, p)) = self.parked.pop().expect("peeked");
                self.stats.retries += 1;
                self.send(p, now_ns);
            }
            // Fresh records while the window has room. A paced record
            // waits for its slot; the wait ends at the deadline check
            // above, so a paced --trace run cannot overshoot --secs.
            let mut pace_wait = None;
            while drain_by.is_none()
                && self.outstanding() < self.window.size
                && self.out.len() - self.out_at < SEND_CHUNK
            {
                let slot_ns = pace_ns.map_or(0, |gap| first_sends * gap);
                if slot_ns > now_ns {
                    pace_wait = Some(self.epoch + Duration::from_nanos(slot_ns));
                    break;
                }
                let Some(record) = records.next() else {
                    drain_by = Some(deadline.max(now) + grace);
                    break;
                };
                let mut blocks = u16::try_from(record.blocks).unwrap_or(u16::MAX);
                if self.data.is_some() {
                    blocks = blocks.clamp(1, MAX_DATA_BLOCKS);
                }
                let p = Pending {
                    seq: 0,
                    sent_ns: 0,
                    disk: record.block.disk().index(),
                    block: record.block.block().number(),
                    blocks,
                    write: record.op == IoOp::Write,
                    attempt: 0,
                };
                self.send(p, now_ns);
                first_sends += 1;
            }
            self.flush()?;

            if drain_by.is_some() && self.outstanding() == 0 {
                break;
            }
            if drain_by.is_some_and(|by| now > by) {
                let n = self.outstanding();
                let msg = format!(
                    "server went silent: {n} requests still unanswered after the drain grace"
                );
                return Err(error(ErrorKind::TimedOut, msg));
            }
            // Sleep until a reply, a writable socket, or the next thing
            // due: a parked resend, a paced slot, the deadline or the
            // drain's end. No sleep while fresh records can go out now.
            let can_send = drain_by.is_none()
                && pace_wait.is_none()
                && self.outstanding() < self.window.size
                && self.out.is_empty();
            let resend_at = self
                .parked
                .peek()
                .map(|Reverse((due, _))| self.epoch + Duration::from_nanos(*due));
            let wake = [pace_wait, resend_at]
                .into_iter()
                .flatten()
                .fold(drain_by.unwrap_or(deadline), Instant::min);
            // Round up so a sub-millisecond wait still sleeps.
            let wait = wake.saturating_duration_since(now).as_micros();
            let ms = u32::try_from(wait.div_ceil(1_000)).unwrap_or(u32::MAX);
            events.clear();
            self.poller
                .wait(&mut events, Some(if can_send { 0 } else { ms }))?;
            if events.iter().any(|ev| ev.readable || ev.error) {
                self.read_replies()?;
            }
        }
        self.stats.sent = first_sends + self.stats.retries;
        self.stats.window = self.window.size as u64;
        Ok((self.stats, self.hist))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(attempt: u32) -> Pending {
        Pending {
            seq: 0,
            sent_ns: 0,
            disk: 3,
            block: 17,
            blocks: 1,
            write: false,
            attempt,
        }
    }

    #[test]
    fn reordered_replies_find_their_own_request() {
        let mut table = InFlight::new(4);
        assert_eq!(table.slots.len(), 8);
        let seqs: Vec<u32> = (0..4).map(|i| table.insert(pending(i))).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        // Seq 0 stays unanswered while 1..3 are answered and refilled:
        // the send that would reuse seq 0's slot skips to the next seq.
        for seq in 1..4 {
            assert_eq!(table.take(seq).map(|p| p.attempt), Some(seq));
        }
        let fresh: Vec<u32> = (4..8).map(|i| table.insert(pending(i))).collect();
        assert_eq!(fresh, [4, 5, 6, 7]);
        table.take(4).unwrap();
        assert_eq!(table.insert(pending(8)), 9, "slot 0 is still seq 0's");
        assert_eq!(table.take(0).map(|p| p.attempt), Some(0));
        // A duplicate or stray reply matches nothing.
        assert_eq!(table.take(0), None);
        assert_eq!(table.take(8), None);
        assert_eq!(table.len, 4);
    }

    #[test]
    fn seqs_wrap_around_u32_without_losing_requests() {
        let mut table = InFlight::new(4);
        table.next_seq = u32::MAX - 1;
        let seqs: Vec<u32> = (0..4).map(|i| table.insert(pending(i))).collect();
        assert_eq!(seqs, [u32::MAX - 1, u32::MAX, 0, 1]);
        for (i, seq) in seqs.into_iter().enumerate().rev() {
            assert_eq!(table.take(seq).map(|p| p.attempt), Some(i as u32));
        }
        assert_eq!(table.len, 0);
    }

    #[test]
    fn window_halves_once_per_round_trip_and_grows_back() {
        let mut w = Window::new(WINDOW_CAP);
        assert_eq!(w.size, INITIAL_WINDOW);
        // Opening: one per clean reply, up to the cap and no further.
        for _ in 0..WINDOW_CAP {
            w.on_clean_reply();
        }
        assert_eq!(w.size, WINDOW_CAP);
        // The first BUSY cuts; BUSYs for requests sent before the cut
        // (seqs below 100) do not cut again.
        w.on_busy(40, 100);
        assert_eq!(w.size, WINDOW_CAP / 2);
        w.on_busy(41, 120);
        w.on_busy(99, 130);
        assert_eq!(w.size, WINDOW_CAP / 2);
        // After the cut it grows by one per window of clean replies.
        for _ in 0..WINDOW_CAP / 2 - 1 {
            w.on_clean_reply();
        }
        assert_eq!(w.size, WINDOW_CAP / 2);
        w.on_clean_reply();
        assert_eq!(w.size, WINDOW_CAP / 2 + 1);
        // A BUSY for a request sent after the cut cuts again.
        w.on_busy(100, 200);
        assert_eq!(w.size, WINDOW_CAP / 4);
        // The window never closes.
        for seq in 200..240 {
            w.on_busy(seq, seq + 1);
        }
        assert_eq!(w.size, 1);
        // Payload mode has its own cap.
        let mut p = Window::new(PAYLOAD_WINDOW_CAP);
        for _ in 0..4 * PAYLOAD_WINDOW_CAP {
            p.on_clean_reply();
        }
        assert_eq!(p.size, PAYLOAD_WINDOW_CAP);
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
            let dealt: Vec<Record> = stride(Arc::clone(&map), conn, conns).collect();
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
