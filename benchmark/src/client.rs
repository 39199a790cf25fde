//! The benchmark's own load client: one thread, a few connections, a
//! fixed number of requests in flight per connection (a closed loop).
//!
//! Latency is an exact `u32` of nanoseconds per request, from the
//! instant its frame was encoded to the instant the read that carried
//! its reply returned. In-flight state is keyed by `seq`: two shards
//! answer one connection, so replies come back out of order, and a
//! depth-sized ring hands a late reply another request's send time and
//! expected bytes. `BUSY` is answered by a bounded resend and counted.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use pc_server::protocol::{encode_data_request, encode_request, FrameBuf, Request, Response};
use pc_server::{fill_block, parse_stats_json, Event, Interest, Poller, StatsSummary};
use pc_trace::Record;

use crate::span::{SpanId, Tracer};
use crate::stats::{percentile, samples_beyond};

/// Slots of the in-flight table; `seq` modulo this picks the slot.
const TABLE_SLOTS: usize = 1 << 16;

/// Resends one request may take before it counts as failed.
pub const MAX_RESENDS: u8 = 8;

/// How long a drain or a STATS reply may take before the run gives up.
const PATIENCE: Duration = Duration::from_secs(20);

/// What the client remembers about a request until its reply arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    pub seq: u32,
    /// First send, ns since the client's epoch: a resend keeps it, so
    /// time spent bounced counts as latency.
    pub sent_ns: u64,
    pub disk: u32,
    pub block: u64,
    pub blocks: u16,
    pub write: bool,
    pub resends: u8,
}

/// Requests awaiting replies, keyed by `seq`. A slot is reused only
/// after 65 536 newer requests, and refuses to be overwritten while
/// occupied, so no reply order can attribute a reply to the wrong
/// request.
#[derive(Debug)]
pub struct InFlight {
    slots: Vec<Option<Pending>>,
    len: usize,
}

impl InFlight {
    pub fn new() -> Self {
        InFlight {
            slots: vec![None; TABLE_SLOTS],
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Remembers a request; hands it back if its slot is still taken.
    pub fn insert(&mut self, p: Pending) -> Result<(), Pending> {
        let slot = &mut self.slots[p.seq as usize % TABLE_SLOTS];
        if slot.is_some() {
            return Err(p);
        }
        *slot = Some(p);
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the request `seq` answers, if it is pending.
    pub fn take(&mut self, seq: u32) -> Option<Pending> {
        let slot = &mut self.slots[seq as usize % TABLE_SLOTS];
        if slot.is_some_and(|p| p.seq == seq) {
            self.len -= 1;
            slot.take()
        } else {
            None
        }
    }
}

/// Counts over the client's whole life (warm-up included), for the
/// books-balance checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Distinct requests issued (resends not counted).
    pub sent: u64,
    pub resent: u64,
    /// Requests answered with IO or DATA.
    pub responses: u64,
    pub hits: u64,
    pub busy: u64,
    /// Requests given up on after [`MAX_RESENDS`].
    pub exhausted: u64,
    /// DATA replies that differ from the disk image.
    pub verify_failures: u64,
    /// CORRUPT replies (the server's own CRC check fired).
    pub corrupt: u64,
    /// Replies whose `seq` matches nothing in flight.
    pub unknown: u64,
    /// Sends refused because the in-flight slot was still taken.
    pub collisions: u64,
}

/// Most latency samples one window keeps.
const SAMPLE_CAPACITY: usize = 1 << 19;

/// Marks a write's sample; latencies saturate below it (2.1 s).
const WRITE_BIT: u32 = 1 << 31;

/// The latency samples of one window: exact values, every reply's until
/// [`SAMPLE_CAPACITY`] of them, then every 2nd, 4th, … reply's (a full
/// buffer drops every other sample and doubles the stride). The buffer
/// is touched once when made, so the memory a run needs does not follow
/// the request rate: a faster server must not read as a fatter one.
#[derive(Debug)]
pub struct Samples {
    ns: Vec<u32>,
    stride: u64,
    seen: u64,
}

impl Default for Samples {
    fn default() -> Self {
        let mut ns = vec![0; SAMPLE_CAPACITY];
        ns.clear();
        Samples {
            ns,
            stride: 1,
            seen: 0,
        }
    }
}

impl Samples {
    fn push(&mut self, lat_ns: u32, write: bool) {
        if self.seen.is_multiple_of(self.stride) && self.ns.len() == SAMPLE_CAPACITY {
            // Kept samples sit at multiples of the stride; keeping the
            // even ones leaves multiples of twice the stride.
            let mut index = 0usize;
            self.ns.retain(|_| {
                index += 1;
                index % 2 == 1
            });
            self.stride *= 2;
        }
        if self.seen.is_multiple_of(self.stride) {
            let flag = if write { WRITE_BIT } else { 0 };
            self.ns.push(lat_ns.min(WRITE_BIT - 1) | flag);
        }
        self.seen += 1;
    }
}

/// What one measurement window saw.
#[derive(Debug, Default)]
pub struct Window {
    pub seconds: f64,
    pub samples: Samples,
    /// Verified `DATA` bytes plus acknowledged `WRITE_DATA` bytes.
    pub payload_bytes: u64,
}

impl Window {
    pub fn replies(&self) -> u64 {
        self.samples.seen
    }

    /// Reduces the window to its numbers and frees its samples.
    pub fn into_stats(self) -> WindowStats {
        let sorted = |keep: &dyn Fn(u32) -> bool| {
            let mut ns: Vec<u32> = self
                .samples
                .ns
                .iter()
                .filter(|&&s| keep(s))
                .map(|s| s & !WRITE_BIT)
                .collect();
            ns.sort_unstable();
            ns
        };
        let us = |sorted: &[u32], p: f64| {
            if sorted.is_empty() {
                0.0
            } else {
                f64::from(percentile(sorted, p)) / 1e3
            }
        };
        let all = sorted(&|_| true);
        WindowStats {
            seconds: self.seconds,
            replies: self.samples.seen,
            payload_bytes: self.payload_bytes,
            p50_us: us(&all, 0.50),
            p99_us: us(&all, 0.99),
            p999_us: us(&all, 0.999),
            read_p50_us: us(&sorted(&|s| s & WRITE_BIT == 0), 0.50),
            write_p50_us: us(&sorted(&|s| s & WRITE_BIT != 0), 0.50),
            beyond_p99: samples_beyond(all.len(), 0.99),
        }
    }
}

/// One window's numbers: nearest-rank percentiles of its own samples.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    pub seconds: f64,
    pub replies: u64,
    pub payload_bytes: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    /// Samples strictly beyond the window's p99.
    pub beyond_p99: usize,
}

/// When a pump of the event loop ends.
#[derive(Clone, Copy)]
enum Until {
    /// At this instant, leaving the pipeline full.
    Deadline(Instant),
    /// When this many more requests have been issued and answered.
    Issued(u64),
    /// When nothing is in flight (no new requests).
    Drained,
    /// When a STATS reply has arrived (no new requests).
    StatsReply,
}

struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    out: Vec<u8>,
    out_at: usize,
    writable_armed: bool,
    inflight: InFlight,
    records: Box<dyn Iterator<Item = Record>>,
    next_seq: u32,
    /// BUSY-bounced requests waiting for the next fill.
    bounced: Vec<Pending>,
}

pub struct Client {
    conns: Vec<Conn>,
    poller: Poller,
    events: Vec<Event>,
    epoch: Instant,
    depth: usize,
    /// Block size when driving the payload plane.
    payload: Option<usize>,
    pub totals: Totals,
    scratch: Vec<u8>,
    /// The JSON of the last STATS reply, until [`Client::stats`] takes it.
    stats_reply: Option<String>,
}

fn invalid(what: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.into())
}

/// Appends the disk image of `blocks` blocks from `(disk, block)`.
fn image(disk: u32, block: u64, blocks: u16, block_bytes: usize, buf: &mut Vec<u8>) {
    let n = usize::from(blocks.max(1));
    buf.clear();
    buf.resize(n * block_bytes, 0);
    for (i, chunk) in buf.chunks_exact_mut(block_bytes).enumerate() {
        fill_block(disk, block.wrapping_add(i as u64), chunk);
    }
}

impl Client {
    /// Connects one socket per record stream.
    pub fn connect(
        addr: SocketAddr,
        depth: usize,
        payload: Option<usize>,
        streams: Vec<Box<dyn Iterator<Item = Record>>>,
    ) -> std::io::Result<Client> {
        assert!(
            depth > 0 && depth < TABLE_SLOTS,
            "depth must fit the in-flight table"
        );
        let poller = Poller::new()?;
        let mut conns = Vec::new();
        for (token, records) in streams.into_iter().enumerate() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.register(stream.as_raw_fd(), token as u64, Interest::Readable)?;
            conns.push(Conn {
                stream,
                frames: FrameBuf::new(),
                out: Vec::new(),
                out_at: 0,
                writable_armed: false,
                inflight: InFlight::new(),
                records,
                next_seq: 0,
                bounced: Vec::new(),
            });
        }
        Ok(Client {
            conns,
            poller,
            events: Vec::new(),
            epoch: Instant::now(),
            depth,
            payload,
            totals: Totals::default(),
            scratch: Vec::new(),
            stats_reply: None,
        })
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Encodes one request (first send or resend) onto `conn`'s output.
    fn encode(&mut self, at: usize, mut p: Pending) {
        let conn = &mut self.conns[at];
        p.seq = conn.next_seq;
        conn.next_seq = conn.next_seq.wrapping_add(1);
        match self.payload {
            None => encode_request(
                &Request::Io {
                    seq: p.seq,
                    write: p.write,
                    disk: p.disk,
                    block: p.block,
                    blocks: p.blocks,
                },
                &mut conn.out,
            ),
            Some(bb) => {
                self.scratch.clear();
                if p.write {
                    image(p.disk, p.block, p.blocks, bb, &mut self.scratch);
                }
                encode_data_request(
                    p.seq,
                    p.write,
                    p.disk,
                    p.block,
                    p.blocks,
                    &self.scratch,
                    &mut conn.out,
                );
            }
        }
        if conn.inflight.insert(p).is_err() {
            self.totals.collisions += 1;
        }
    }

    /// Tops every connection up to the in-flight depth, bounced
    /// requests first, then at most `quota` new ones.
    fn fill(&mut self, quota: &mut u64) {
        for at in 0..self.conns.len() {
            if self.conns[at].inflight.len() >= self.depth {
                continue;
            }
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            while self.conns[at].inflight.len() < self.depth {
                if let Some(p) = self.conns[at].bounced.pop() {
                    self.totals.resent += 1;
                    self.encode(at, p);
                    continue;
                }
                if *quota == 0 {
                    break;
                }
                let Some(r) = self.conns[at].records.next() else {
                    break;
                };
                *quota -= 1;
                self.totals.sent += 1;
                self.encode(
                    at,
                    Pending {
                        seq: 0,
                        sent_ns: now_ns,
                        disk: r.block.disk().index(),
                        block: r.block.block().number(),
                        blocks: u16::try_from(r.blocks).unwrap_or(u16::MAX),
                        write: r.op.is_write(),
                        resends: 0,
                    },
                );
            }
        }
    }

    /// Writes what the sockets take; arms writable interest for the rest.
    fn flush(&mut self) -> std::io::Result<()> {
        for (token, conn) in self.conns.iter_mut().enumerate() {
            while conn.out_at < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_at..]) {
                    Ok(0) => return Err(invalid("socket accepted no bytes")),
                    Ok(n) => conn.out_at += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let pending = conn.out_at < conn.out.len();
            if !pending {
                conn.out.clear();
                conn.out_at = 0;
            }
            if pending != conn.writable_armed {
                let interest = if pending {
                    Interest::Both
                } else {
                    Interest::Readable
                };
                self.poller
                    .modify(conn.stream.as_raw_fd(), token as u64, interest)?;
                conn.writable_armed = pending;
            }
        }
        Ok(())
    }

    /// Reads `conn` dry and settles every complete reply.
    fn drain_replies(&mut self, at: usize, window: &mut Window) -> std::io::Result<()> {
        loop {
            let conn = &mut self.conns[at];
            match conn.frames.read_from(&mut &conn.stream) {
                Ok(0) => return Err(invalid("server closed the connection")),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            while let Some(resp) = self.conns[at]
                .frames
                .next_response()
                .map_err(|e| invalid(e.to_string()))?
            {
                self.settle(at, resp, now_ns, window);
            }
        }
    }

    fn settle(&mut self, at: usize, mut resp: Response, now_ns: u64, window: &mut Window) {
        let seq = match &mut resp {
            Response::Io { seq, .. }
            | Response::Data { seq, .. }
            | Response::Busy { seq, .. }
            | Response::Corrupt { seq } => *seq,
            Response::Stats { json, .. } => {
                self.stats_reply = Some(std::mem::take(json));
                return;
            }
            Response::Shutdown { .. } => return,
        };
        let Some(p) = self.conns[at].inflight.take(seq) else {
            self.totals.unknown += 1;
            return;
        };
        let lat = u32::try_from(now_ns.saturating_sub(p.sent_ns)).unwrap_or(u32::MAX);
        let bytes = usize::from(p.blocks.max(1)) * self.payload.unwrap_or(0);
        match resp {
            Response::Io { hit, .. } => {
                // A READ_DATA must come back as DATA, never as bare IO.
                if self.payload.is_some() && !p.write {
                    self.totals.verify_failures += 1;
                }
                self.totals.responses += 1;
                self.totals.hits += u64::from(hit);
                window.payload_bytes += if p.write { bytes as u64 } else { 0 };
                window.samples.push(lat, p.write);
            }
            Response::Data { hit, payload, .. } => {
                self.totals.responses += 1;
                self.totals.hits += u64::from(hit);
                let bb = self.payload.unwrap_or(1);
                image(p.disk, p.block, p.blocks, bb, &mut self.scratch);
                if self.payload.is_none() || p.write || payload != self.scratch {
                    self.totals.verify_failures += 1;
                } else {
                    window.payload_bytes += bytes as u64;
                }
                window.samples.push(lat, false);
            }
            Response::Busy { .. } => {
                self.totals.busy += 1;
                if p.resends < MAX_RESENDS {
                    self.conns[at].bounced.push(Pending {
                        resends: p.resends + 1,
                        ..p
                    });
                } else {
                    self.totals.exhausted += 1;
                }
            }
            Response::Corrupt { .. } => self.totals.corrupt += 1,
            Response::Stats { .. } | Response::Shutdown { .. } => unreachable!("returned above"),
        }
    }

    /// The event loop: fill, flush, wait, settle — until `until`.
    fn pump(
        &mut self,
        until: Until,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> std::io::Result<Window> {
        let start = Instant::now();
        let mut window = Window::default();
        let mut quota = match until {
            Until::Deadline(_) => u64::MAX,
            Until::Issued(n) => n,
            Until::Drained | Until::StatsReply => 0,
        };
        let give_up = start + PATIENCE;
        let mut batch = 0u64;
        loop {
            let span = tracer.open("client.encode", parent, batch);
            self.fill(&mut quota);
            self.flush()?;
            tracer.close(span);

            let now = Instant::now();
            let timeout = match until {
                Until::Deadline(t) if now >= t => break,
                Until::Deadline(t) => t - now,
                Until::Issued(_) | Until::Drained | Until::StatsReply => {
                    let done = match until {
                        Until::StatsReply => self.stats_reply.is_some(),
                        _ => {
                            self.in_flight() == 0
                                && self
                                    .conns
                                    .iter()
                                    .all(|c| c.out.is_empty() && c.bounced.is_empty())
                        }
                    };
                    if done {
                        break;
                    }
                    if now >= give_up {
                        return Err(invalid(format!(
                            "server silent for {PATIENCE:?} with {} replies missing",
                            self.in_flight()
                        )));
                    }
                    give_up - now
                }
            };

            let span = tracer.open("client.wait", parent, batch);
            self.events.clear();
            // Round up so a sub-millisecond remainder still sleeps.
            let ms = u32::try_from(timeout.as_millis() + 1).unwrap_or(u32::MAX);
            self.poller.wait(&mut self.events, Some(ms))?;
            tracer.close(span);

            let span = tracer.open("client.verify", parent, batch);
            for i in 0..self.events.len() {
                let ev = self.events[i];
                if ev.readable || ev.error {
                    self.drain_replies(ev.token as usize, &mut window)?;
                }
            }
            tracer.close(span);
            batch += 1;
        }
        window.seconds = start.elapsed().as_secs_f64();
        Ok(window)
    }

    /// One timed window; the pipeline stays full when it ends.
    pub fn run_for(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> std::io::Result<Window> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        self.pump(Until::Deadline(deadline), tracer, parent)
    }

    /// Issues `count` more requests and waits for all their replies.
    pub fn run_requests(
        &mut self,
        count: u64,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> std::io::Result<Window> {
        self.pump(Until::Issued(count), tracer, parent)
    }

    /// Stops issuing and waits until nothing is in flight.
    pub fn drain(&mut self, tracer: &mut Tracer) -> std::io::Result<Window> {
        self.pump(Until::Drained, tracer, None)
    }

    /// Asks the server for its statistics over the first connection.
    /// Call after [`drain`](Self::drain).
    pub fn stats(&mut self) -> std::io::Result<StatsSummary> {
        self.stats_reply = None;
        encode_request(&Request::Stats { seq: u32::MAX }, &mut self.conns[0].out);
        self.pump(Until::StatsReply, &mut Tracer::new(false), None)?;
        let json = self.stats_reply.take().expect("the pump ends on the reply");
        parse_stats_json(&json).ok_or_else(|| invalid("malformed STATS JSON"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(seq: u32) -> Pending {
        Pending {
            seq,
            sent_ns: u64::from(seq) * 10,
            disk: seq % 20,
            block: u64::from(seq) * 3,
            blocks: 1,
            write: seq.is_multiple_of(2),
            resends: 0,
        }
    }

    /// Two shards answer one connection, so replies overtake each other
    /// by more than the in-flight depth allows a ring to absorb.
    #[test]
    fn reordered_replies_find_their_own_request() {
        const DEPTH: u32 = 8;
        let mut table = InFlight::new();
        for seq in 0..DEPTH {
            table.insert(pending(seq)).unwrap();
        }
        // Shard B answers 1..8 while shard A sits on seq 0; the closed
        // loop refills with 8..15 — seq 8 shares `0 % DEPTH` with the
        // still-pending seq 0.
        for (answered, fresh) in (1..DEPTH).zip(DEPTH..) {
            assert_eq!(table.take(answered), Some(pending(answered)));
            table.insert(pending(fresh)).unwrap();
        }
        assert_eq!(table.len(), DEPTH as usize);
        // The late reply still finds seq 0's own send time.
        assert_eq!(table.take(0).map(|p| p.sent_ns), Some(0));
        assert_eq!(table.take(8).map(|p| p.sent_ns), Some(80));
        // A duplicate or stray reply matches nothing.
        assert_eq!(table.take(0), None);
        assert_eq!(table.take(1_000_000), None);
        assert_eq!(table.len(), DEPTH as usize - 2);
    }

    #[test]
    fn an_occupied_slot_refuses_to_be_overwritten() {
        let mut table = InFlight::new();
        table.insert(pending(5)).unwrap();
        let twin = pending(5 + TABLE_SLOTS as u32);
        assert_eq!(table.insert(twin), Err(twin));
        assert_eq!(
            table.take(twin.seq),
            None,
            "the twin's reply matches nothing"
        );
        assert_eq!(table.take(5), Some(pending(5)));
        table.insert(twin).unwrap();
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn samples_stay_exact_uniform_and_bounded() {
        let mut s = Samples::default();
        let offered = 3 * SAMPLE_CAPACITY as u32 + 17;
        for i in 0..offered {
            s.push(i, i % 3 == 0);
        }
        assert_eq!(s.seen, u64::from(offered));
        assert_eq!(s.stride, 4, "two halvings fit 3x the capacity");
        assert!(s.ns.len() > SAMPLE_CAPACITY / 2 && s.ns.len() <= SAMPLE_CAPACITY);
        for (k, &sample) in s.ns.iter().enumerate() {
            let value = sample & !WRITE_BIT;
            assert_eq!(value, 4 * k as u32, "every 4th reply, in order");
            assert_eq!(sample & WRITE_BIT != 0, value.is_multiple_of(3));
        }
        // A window reduces them by op type; a stalled reply saturates.
        let mut w = Window::default();
        w.samples.push(1_000, false);
        w.samples.push(3_000, true);
        w.samples.push(u32::MAX, true);
        let stats = w.into_stats();
        assert_eq!(
            (stats.replies, stats.read_p50_us, stats.write_p50_us),
            (3, 1.0, 3.0)
        );
        assert_eq!(stats.p999_us, f64::from(WRITE_BIT - 1) / 1e3);
    }

    #[test]
    fn seq_wraps_around_u32_without_losing_requests() {
        let mut table = InFlight::new();
        for seq in [u32::MAX - 1, u32::MAX, 0, 1] {
            table.insert(pending(seq)).unwrap();
        }
        for seq in [0, u32::MAX, 1, u32::MAX - 1] {
            assert_eq!(table.take(seq).map(|p| p.seq), Some(seq));
        }
        assert_eq!(table.len(), 0);
    }
}
