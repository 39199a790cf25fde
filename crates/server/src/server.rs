//! The TCP daemon: thread-per-shard engines behind a readiness-based
//! connection front-end.
//!
//! ```text
//!            ┌── IO thread 0: epoll ──▶ conns 0,N,2N… ──┐
//! accept ────┤                                          ├─batches─▶ shard threads
//!            └── IO thread 1: epoll ──▶ conns 1,N+1,…  ──┘              │
//!                    ▲                                                  │
//!                    └───────────── reply hub (token, bytes) ◀──────────┘
//! ```
//!
//! The front-end is an **event loop**: a handful of IO threads, each
//! multiplexing thousands of nonblocking connections through one
//! [`Poller`] (a first-party epoll wrapper — see [`crate::poller`]).
//! Per readable wakeup a connection's buffered bytes are drained and
//! every complete frame goes to the admission core (`front.rs`),
//! which batches IO requests per shard and admits each batch through
//! the bounded [`queue`] of at most [`EngineConfig::queue_bound`]
//! requests, answering the overflow `BUSY`: every request is answered
//! exactly once, with its IO result or with `BUSY`. Overload pushes back
//! on clients instead of reshaping the request stream a shard sees,
//! whose shape decides the exploitable idle periods. Shard replies route
//! back to the owning IO thread over a reply hub (an mpsc channel plus
//! an eventfd [`Waker`]) and are queued on the connection's
//! scatter-gather write buffer; a partial write arms `EPOLLOUT` for the
//! rest. An idle connection costs one slab slot, one 4 KiB read window
//! and a deadline-heap entry, which sweeps silent peers after the idle
//! timeout.
//!
//! The TCP daemon is **Linux-only**: [`Server::run`] needs epoll and
//! returns `ErrorKind::Unsupported` elsewhere. The simulator and the
//! in-process cluster ([`crate::InProcCluster`]) stay portable.
//!
//! Shutdown (SIGTERM bridge or the `SHUTDOWN` opcode) sets one atomic
//! flag: the accept loop stops, IO threads deliver outstanding shard
//! replies and flush write buffers, shard channels disconnect, and
//! every shard closes its energy books and hands back a final
//! [`ShardSnapshot`] for the closing report.

use std::collections::BinaryHeap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::capture::{Capture, CaptureReport, CaptureRing, DEFAULT_CAPTURE_QUEUE};
use crate::conn::{Conn, FillOutcome};
use crate::front::{Front, IoReq, Step};
use crate::poller::{Event, Interest, Poller, Waker};
use crate::protocol::{self, Response};
use crate::queue::{self, QueueReceiver, QueueSender};
use crate::shard::{EngineConfig, ShardEngine};
use crate::stats::{ClusterSnapshot, IoThreadSnapshot, ShardSnapshot};

/// How often the accept loop re-checks the stop flag; also the event
/// loop's maximum poll timeout for the same check.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Default per-connection idle timeout: a peer that sends no bytes for
/// this long is disconnected so it cannot pin server state forever.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// The poller token reserved for each IO thread's waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// How long a stopping IO thread waits for shards to answer its
/// outstanding batches before abandoning undelivered replies.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Where a shard sends a batch's encoded responses: the owning IO
/// thread's reply hub, tagged with the connection's slab token; the
/// waker interrupts its poll.
#[derive(Clone)]
struct ReplySink {
    hub: Sender<(u64, Vec<u8>)>,
    token: u64,
    waker: Arc<Waker>,
}

impl ReplySink {
    fn send(&self, bytes: Vec<u8>) {
        // The receiving side may already be gone mid-shutdown.
        if self.hub.send((self.token, bytes)).is_ok() {
            self.waker.wake();
        }
    }
}

/// Work sent to a shard thread.
enum ShardMsg {
    /// A batch of requests from one connection; encoded responses go
    /// back through `reply`.
    Io { reply: ReplySink, batch: Vec<IoReq> },
    /// A snapshot request; the live snapshot goes back through `reply`.
    Stats { reply: Sender<ShardSnapshot> },
}

/// One IO thread's live gauges, shared as atomics so a STATS request on
/// any thread reads every thread's current values.
#[derive(Debug, Default)]
struct IoGauges {
    connections: AtomicU64,
    wakeups: AtomicU64,
    frames: AtomicU64,
    writeback_bytes: AtomicU64,
    buffer_bytes: AtomicU64,
}

fn io_snapshots(gauges: &[IoGauges]) -> Vec<IoThreadSnapshot> {
    let snapshot = |(thread, g): (usize, &IoGauges)| IoThreadSnapshot {
        thread,
        connections: g.connections.load(Ordering::Relaxed),
        wakeups: g.wakeups.load(Ordering::Relaxed),
        frames: g.frames.load(Ordering::Relaxed),
        writeback_bytes: g.writeback_bytes.load(Ordering::Relaxed),
        buffer_bytes: g.buffer_bytes.load(Ordering::Relaxed),
    };
    gauges.iter().enumerate().map(snapshot).collect()
}

/// The daemon: bind, then [`run`](Self::run) until stopped.
pub struct Server {
    listener: TcpListener,
    engine: EngineConfig,
    stop: Arc<AtomicBool>,
    idle_timeout: Duration,
    capture: Option<std::path::PathBuf>,
}

/// What a completed run hands back for the closing report.
#[derive(Debug)]
pub struct RunSummary {
    /// Final cluster snapshot with closed energy books (includes the
    /// per-IO-thread gauges when the event-loop front-end served).
    pub snapshot: ClusterSnapshot,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// The closing capture report when `--capture` recorded the run.
    pub capture: Option<CaptureReport>,
}

impl Server {
    /// Binds the listener. The engine is not built until [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, engine: EngineConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            engine,
            stop: Arc::new(AtomicBool::new(false)),
            idle_timeout: IDLE_TIMEOUT,
            capture: None,
        })
    }

    /// Records every request the shards accept into a binary `.pct`
    /// trace file at `path` (see [`crate::capture`]). Capture never
    /// blocks a shard: when the writer falls behind, records are
    /// dropped and counted instead.
    #[must_use]
    pub fn with_capture(mut self, path: std::path::PathBuf) -> Self {
        self.capture = Some(path);
        self
    }

    /// Overrides the per-connection idle timeout (default 60 s): a peer
    /// that sends no bytes for this long is disconnected.
    #[cfg(test)]
    #[must_use]
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the underlying `local_addr` failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The stop flag: store `true` (from a signal bridge, a test, or
    /// the `SHUTDOWN` opcode path) to trigger a graceful drain.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Builds the shard threads. Each shard holds its own handle to the
    /// capture ring (when capturing) so the writer thread's channel
    /// disconnects exactly when the last shard joins.
    fn spawn_shards(
        &self,
        busy_gauges: &Arc<Vec<AtomicU64>>,
        capture: Option<&Arc<CaptureRing>>,
    ) -> (
        Vec<QueueSender<ShardMsg>>,
        Vec<std::thread::JoinHandle<ShardSnapshot>>,
    ) {
        let mut shard_txs = Vec::with_capacity(self.engine.shards);
        let mut shard_joins = Vec::with_capacity(self.engine.shards);
        for id in 0..self.engine.shards {
            let engine = ShardEngine::new(id, &self.engine);
            let (tx, rx) = queue::bounded(self.engine.queue_bound);
            shard_txs.push(tx);
            let gauges = Arc::clone(busy_gauges);
            let delay_us = self.engine.slow_delay_micros(id);
            let ring = capture.map(Arc::clone);
            shard_joins.push(std::thread::spawn(move || {
                shard_main(engine, &rx, &gauges[id], delay_us, ring.as_deref())
            }));
        }
        (shard_txs, shard_joins)
    }

    /// Serves until the stop flag is set, then drains and returns the
    /// final snapshot: accept here, serve on N event-loop IO threads.
    ///
    /// # Errors
    ///
    /// `ErrorKind::Unsupported` off Linux (the daemon needs epoll).
    /// Fatal listener errors are returned after the drain, so shards
    /// still close their books; per-connection errors just close that
    /// connection.
    ///
    /// # Panics
    ///
    /// Panics if a shard or IO thread panicked (the engine is poisoned
    /// beyond reporting).
    pub fn run(self) -> std::io::Result<RunSummary> {
        let policy = self.engine.policy.name();
        let write_policy = self.engine.sim.write_policy.name().to_owned();
        let epoch = Instant::now();

        let nthreads = effective_io_threads(self.engine.io_threads);
        let mut wakers = Vec::with_capacity(nthreads);
        let mut pollers = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            pollers.push(Poller::new()?);
            wakers.push(Arc::new(Waker::new()?));
        }
        let wakers = Arc::new(wakers);
        let io_gauges: Arc<Vec<IoGauges>> =
            Arc::new((0..nthreads).map(|_| IoGauges::default()).collect());

        let busy_gauges: Arc<Vec<AtomicU64>> =
            Arc::new((0..self.engine.shards).map(|_| AtomicU64::new(0)).collect());
        let capture = self
            .capture
            .as_ref()
            .map(|path| Capture::start(path, self.engine.disks, DEFAULT_CAPTURE_QUEUE))
            .transpose()?;
        let capture_ring = capture.as_ref().map(Capture::ring);
        let (shard_txs, shard_joins) = self.spawn_shards(&busy_gauges, capture_ring.as_ref());
        let shard_txs = Arc::new(shard_txs);

        let mut intakes = Vec::with_capacity(nthreads);
        let mut io_joins = Vec::with_capacity(nthreads);
        for (thread, poller) in pollers.into_iter().enumerate() {
            let (intake_tx, intake_rx) = channel();
            intakes.push(intake_tx);
            let ctx = IoThreadCtx {
                thread,
                poller,
                waker: Arc::clone(&wakers[thread]),
                all_wakers: Arc::clone(&wakers),
                intake: intake_rx,
                shard_txs: Arc::clone(&shard_txs),
                busy_gauges: Arc::clone(&busy_gauges),
                io_gauges: Arc::clone(&io_gauges),
                stop: Arc::clone(&self.stop),
                epoch,
                names: (policy.clone(), write_policy.clone()),
                idle_timeout: self.idle_timeout,
                block_bytes: self.engine.block_bytes,
                capture: capture_ring.as_ref().map(Arc::clone),
            };
            io_joins.push(std::thread::spawn(move || io_thread_main(ctx)));
        }

        self.listener.set_nonblocking(true)?;
        let mut connections = 0u64;
        let mut fatal = None;
        while !self.stop.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let at = (connections as usize) % nthreads;
                    connections += 1;
                    if intakes[at].send(stream).is_ok() {
                        wakers[at].wake();
                    }
                }
                Err(e) if accept_can_continue(&e) => std::thread::sleep(POLL_INTERVAL),
                Err(e) => {
                    // A broken listener still owes the clients their
                    // replies and the shards their closed books.
                    fatal = Some(e);
                    self.stop.store(true, Ordering::Relaxed);
                }
            }
        }

        // Drain: wake every IO thread so it observes the flag, let each
        // deliver its outstanding replies and flush, then close the
        // shard channels so the books close.
        drop(intakes);
        for w in wakers.iter() {
            w.wake();
        }
        for j in io_joins {
            j.join().expect("IO thread panicked");
        }
        let io = io_snapshots(&io_gauges);
        drop(shard_txs);
        let shards = shard_joins
            .into_iter()
            .map(|j| j.join().expect("shard thread panicked"))
            .collect();
        // Every shard has joined: read the final capture gauges, release
        // the last ring handle so the writer's channel disconnects, and
        // wait for the file to finalize.
        let capture_snap = capture_ring.as_ref().map(|r| r.snapshot());
        drop(capture_ring);
        let report = capture.map(Capture::finish).transpose()?;
        if let Some(e) = fatal {
            return Err(e);
        }
        Ok(RunSummary {
            snapshot: ClusterSnapshot::new(policy, write_policy, shards)
                .with_io(io)
                .with_capture(capture_snap),
            connections,
            capture: report,
        })
    }
}

/// Whether the accept loop should sleep a [`POLL_INTERVAL`] and retry
/// after `accept(2)` failed with `e`: nothing pending, a peer that reset
/// before it was accepted, or a resource shortage (descriptors, socket
/// buffers, memory) that closing connections will relieve. Anything
/// else means the listener itself is broken.
fn accept_can_continue(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{ConnectionAborted, ConnectionReset, WouldBlock};
    // Linux errno values: std has no stable `ErrorKind` for most of these.
    const ENOMEM: i32 = 12;
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOBUFS: i32 = 105;
    matches!(e.kind(), WouldBlock | ConnectionAborted | ConnectionReset)
        || matches!(e.raw_os_error(), Some(ENOMEM | ENFILE | EMFILE | ENOBUFS))
}

/// Resolves the IO-thread count: explicit, or a quarter of the
/// available parallelism clamped to `[1, 8]` (shard threads want the
/// rest of the cores).
fn effective_io_threads(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    (cores / 4).clamp(1, 8)
}

/// Everything one IO thread needs; moved into the thread at spawn.
struct IoThreadCtx {
    thread: usize,
    poller: Poller,
    waker: Arc<Waker>,
    all_wakers: Arc<Vec<Arc<Waker>>>,
    intake: Receiver<TcpStream>,
    shard_txs: Arc<Vec<QueueSender<ShardMsg>>>,
    busy_gauges: Arc<Vec<AtomicU64>>,
    io_gauges: Arc<Vec<IoGauges>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    names: (String, String),
    idle_timeout: Duration,
    /// The engine's block size; sizes the per-connection frame cap and
    /// validates data-request payload lengths.
    block_bytes: usize,
    /// The live capture gauges, for `STATS` (`None` when not capturing).
    capture: Option<Arc<CaptureRing>>,
}

/// One multiplexed connection's slab slot.
struct Entry {
    conn: Conn,
    /// Where this connection's shard replies go, under its slab token.
    reply: ReplySink,
    /// Batches submitted to shards whose replies have not yet been
    /// delivered to this connection; an EOF'd connection closes only
    /// once this reaches zero and the write queue drains, so nothing
    /// admitted goes unanswered.
    inflight: usize,
    /// Whether writable interest is currently armed.
    want_out: bool,
    /// Gauge contributions last folded into the shared atomics.
    accounted_wb: u64,
    accounted_buf: u64,
}

/// The per-IO-thread event loop state.
struct EventLoop {
    ctx: IoThreadCtx,
    hub_tx: Sender<(u64, Vec<u8>)>,
    hub_rx: Receiver<(u64, Vec<u8>)>,
    slab: Vec<Option<Entry>>,
    /// Current generation per slab index; bumped on close so stale
    /// poller events and deadline entries miss.
    gens: Vec<u32>,
    free: Vec<usize>,
    /// Lazy-deletion idle deadlines: `(deadline, token)`, min-first.
    deadlines: BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    /// The admission core: per-shard batches, empty between connections.
    front: Front,
    /// This thread's total outstanding shard batches (drain barrier).
    inflight: usize,
}

fn io_thread_main(ctx: IoThreadCtx) {
    let (hub_tx, hub_rx) = channel();
    ctx.poller
        .register(ctx.waker.fd(), WAKER_TOKEN, Interest::Readable)
        .expect("register waker with poller");
    let mut lp = EventLoop {
        front: Front::new(ctx.shard_txs.len(), ctx.block_bytes),
        ctx,
        hub_tx,
        hub_rx,
        slab: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        deadlines: BinaryHeap::new(),
        inflight: 0,
    };
    let mut events: Vec<Event> = Vec::new();
    loop {
        lp.adopt_new_conns();
        lp.deliver_replies(None);
        lp.sweep_idle();
        if lp.ctx.stop.load(Ordering::Relaxed) {
            break;
        }
        events.clear();
        let timeout = lp.next_timeout_ms();
        if lp.ctx.poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        lp.gauges().wakeups.fetch_add(1, Ordering::Relaxed);
        for ev in &events {
            if ev.token == WAKER_TOKEN {
                lp.ctx.waker.drain();
            } else {
                lp.handle_conn_event(*ev);
            }
        }
    }
    lp.drain();
}

impl EventLoop {
    fn gauges(&self) -> &IoGauges {
        &self.ctx.io_gauges[self.ctx.thread]
    }

    /// Folds a connection's gauge deltas into the shared atomics.
    /// Wrapping arithmetic makes concurrent deltas from sibling threads
    /// commute.
    fn settle(entry: &mut Entry, gauges: &IoGauges) {
        let wb = entry.conn.pending_write_bytes() as u64;
        let buf = entry.conn.buffer_bytes() as u64;
        gauges
            .writeback_bytes
            .fetch_add(wb.wrapping_sub(entry.accounted_wb), Ordering::Relaxed);
        gauges
            .buffer_bytes
            .fetch_add(buf.wrapping_sub(entry.accounted_buf), Ordering::Relaxed);
        entry.accounted_wb = wb;
        entry.accounted_buf = buf;
    }

    /// Adopts connections handed over by the accept loop.
    fn adopt_new_conns(&mut self) {
        while let Ok(stream) = self.ctx.intake.try_recv() {
            let max_frame = protocol::max_request_frame(self.ctx.block_bytes);
            let Ok(conn) = Conn::new(stream, max_frame) else {
                continue; // Peer died between accept and adoption.
            };
            let idx = self.free.pop().unwrap_or_else(|| {
                self.slab.push(None);
                self.gens.push(0);
                self.slab.len() - 1
            });
            let token = token_of(idx, self.gens[idx]);
            if self
                .ctx
                .poller
                .register(conn.stream().as_raw_fd(), token, Interest::Readable)
                .is_err()
            {
                self.free.push(idx);
                continue;
            }
            let reply = ReplySink {
                hub: self.hub_tx.clone(),
                token,
                waker: Arc::clone(&self.ctx.waker),
            };
            let mut entry = Entry {
                conn,
                reply,
                inflight: 0,
                want_out: false,
                accounted_wb: 0,
                accounted_buf: 0,
            };
            Self::settle(&mut entry, &self.ctx.io_gauges[self.ctx.thread]);
            self.deadlines.push(std::cmp::Reverse((
                entry.conn.last_data + self.ctx.idle_timeout,
                token,
            )));
            self.slab[idx] = Some(entry);
            self.gauges().connections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Delivers shard replies queued on the hub to their connections.
    /// `detached` is an entry currently held out of the slab (the one
    /// being served): its replies land on it directly.
    fn deliver_replies(&mut self, mut detached: Option<&mut Entry>) {
        while let Ok((token, bytes)) = self.hub_rx.try_recv() {
            self.inflight = self.inflight.saturating_sub(1);
            let (idx, gen) = split_token(token);
            match detached.as_deref_mut() {
                Some(entry) if entry.reply.token == token => {
                    entry.inflight = entry.inflight.saturating_sub(1);
                    entry.conn.queue_write(bytes);
                }
                // `None`: the connection closed while the batch was in flight.
                _ => {
                    if let Some(mut entry) = self.take_entry(idx, gen) {
                        entry.inflight = entry.inflight.saturating_sub(1);
                        entry.conn.queue_write(bytes);
                        self.finish_entry(idx, entry);
                    }
                }
            }
        }
    }

    /// Pops due idle deadlines; reinserts entries whose connection
    /// spoke since the deadline was scheduled (lazy deletion).
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        while let Some(&std::cmp::Reverse((at, token))) = self.deadlines.peek() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            let (idx, gen) = split_token(token);
            let Some(entry) = self.take_entry(idx, gen) else {
                continue; // Stale: the connection is already gone.
            };
            let fresh = entry.conn.last_data + self.ctx.idle_timeout;
            if fresh <= now {
                self.close_entry(idx, entry);
            } else {
                self.deadlines.push(std::cmp::Reverse((fresh, token)));
                self.slab[idx] = Some(entry);
            }
        }
    }

    /// Milliseconds until the next idle deadline, capped at the
    /// stop-flag check interval.
    fn next_timeout_ms(&self) -> u32 {
        let cap = POLL_INTERVAL.as_millis() as u32;
        match self.deadlines.peek() {
            Some(&std::cmp::Reverse((at, _))) => {
                let until = at.saturating_duration_since(Instant::now());
                (until.as_millis() as u32).min(cap)
            }
            None => cap,
        }
    }

    /// Removes the entry for `idx` if the generation matches; the
    /// caller must put it back via [`finish_entry`](Self::finish_entry)
    /// or close it.
    fn take_entry(&mut self, idx: usize, gen: u32) -> Option<Entry> {
        if idx >= self.slab.len() || self.gens[idx] != gen {
            return None;
        }
        self.slab[idx].take()
    }

    /// One poller event for a connection token.
    fn handle_conn_event(&mut self, ev: Event) {
        let (idx, gen) = split_token(ev.token);
        let Some(mut entry) = self.take_entry(idx, gen) else {
            return; // Stale event for a closed connection.
        };
        if ev.error {
            self.close_entry(idx, entry);
            return;
        }
        if ev.writable && entry.conn.wants_write() && entry.conn.flush().is_err() {
            self.close_entry(idx, entry);
            return;
        }
        if ev.readable && !self.read_and_serve(&mut entry) {
            // Protocol error or dead socket: nothing to salvage.
            self.close_entry(idx, entry);
            return;
        }
        self.finish_entry(idx, entry);
    }

    /// Re-arms interest, settles gauges, and either parks the entry
    /// back in the slab or closes it if it finished draining.
    fn finish_entry(&mut self, idx: usize, mut entry: Entry) {
        // Flush whatever got queued this round; EPOLLOUT handles the rest.
        if entry.conn.wants_write() && entry.conn.flush().is_err() {
            self.close_entry(idx, entry);
            return;
        }
        if entry.conn.closing && !entry.conn.wants_write() && entry.inflight == 0 {
            self.close_entry(idx, entry);
            return;
        }
        let want_out = entry.conn.wants_write();
        if want_out != entry.want_out {
            let interest = if want_out {
                Interest::Both
            } else {
                Interest::Readable
            };
            let token = entry.reply.token;
            if self
                .ctx
                .poller
                .modify(entry.conn.stream().as_raw_fd(), token, interest)
                .is_err()
            {
                self.close_entry(idx, entry);
                return;
            }
            entry.want_out = want_out;
        }
        Self::settle(&mut entry, &self.ctx.io_gauges[self.ctx.thread]);
        self.slab[idx] = Some(entry);
    }

    /// Drains the socket and hands every complete frame to the
    /// admission core, acting on each step it stops at. Returns `false`
    /// if the connection must close immediately.
    fn read_and_serve(&mut self, entry: &mut Entry) -> bool {
        match entry.conn.fill() {
            Ok(FillOutcome::Open(_)) => {}
            Ok(FillOutcome::Eof(_)) => entry.conn.closing = true,
            Err(_) => return false,
        }
        let at_us = self.ctx.epoch.elapsed().as_micros() as u64;
        loop {
            let mut pushed = 0;
            let mut lanes = (&self.ctx.shard_txs[..], |batch| {
                pushed += 1;
                let reply = entry.reply.clone();
                ShardMsg::Io { reply, batch }
            });
            let (mut decoded, mut out) = (0u64, Vec::new());
            let next = || {
                let req = entry.conn.next_request();
                decoded += u64::from(matches!(req, Ok(Some(_))));
                req
            };
            let step = self.front.step(next, at_us, &mut lanes, &mut out);
            entry.inflight += pushed;
            self.inflight += pushed;
            entry.conn.queue_write(out);
            for (gauge, busy) in self.ctx.busy_gauges.iter().zip(&mut self.front.busy) {
                if *busy > 0 {
                    gauge.fetch_add(std::mem::take(busy), Ordering::Relaxed);
                }
            }
            self.gauges().frames.fetch_add(decoded, Ordering::Relaxed);
            match step {
                Step::Drained => return true,
                Step::Poisoned => return false,
                Step::Stats { seq } => {
                    let json = collect_stats(&self.ctx);
                    // Shards answer Stats *after* the batches queued ahead
                    // of it (FIFO), so every IO reply that must precede
                    // this snapshot is already on the hub: deliver them
                    // first so replies leave in request order.
                    self.deliver_replies(Some(entry));
                    let mut out = Vec::with_capacity(json.len() + 16);
                    protocol::encode_response(&Response::Stats { seq, json }, &mut out);
                    entry.conn.queue_write(out);
                }
                Step::Shutdown { .. } => {
                    self.ctx.stop.store(true, Ordering::Relaxed);
                    for w in self.ctx.all_wakers.iter() {
                        w.wake();
                    }
                }
            }
        }
    }

    /// Tears a connection down: bumps the generation so stale events
    /// and deadlines miss, returns its gauge contributions, frees the
    /// slot.
    fn close_entry(&mut self, idx: usize, entry: Entry) {
        let gauges = &self.ctx.io_gauges[self.ctx.thread];
        gauges
            .writeback_bytes
            .fetch_add(0u64.wrapping_sub(entry.accounted_wb), Ordering::Relaxed);
        gauges
            .buffer_bytes
            .fetch_add(0u64.wrapping_sub(entry.accounted_buf), Ordering::Relaxed);
        let _ = self.ctx.poller.deregister(entry.conn.stream().as_raw_fd());
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.gauges().connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Post-stop drain: deliver outstanding shard replies (bounded by
    /// [`DRAIN_GRACE`]), then push remaining write queues out with
    /// bounded blocking writes so acks and late replies still land.
    fn drain(mut self) {
        let deadline = Instant::now() + DRAIN_GRACE;
        while self.inflight > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            // `self.hub_tx` lives on, so the hub never disconnects.
            let wait = left.min(Duration::from_millis(50));
            let Ok((token, bytes)) = self.hub_rx.recv_timeout(wait) else {
                continue;
            };
            self.inflight -= 1;
            let (idx, gen) = split_token(token);
            if let Some(mut entry) = self.take_entry(idx, gen) {
                entry.inflight = entry.inflight.saturating_sub(1);
                entry.conn.queue_write(bytes);
                self.slab[idx] = Some(entry);
            }
        }
        for entry in self.slab.iter_mut().flatten() {
            if entry.conn.wants_write() {
                let stream = entry.conn.stream();
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = entry.conn.flush();
            }
        }
    }
}

/// A connection's poller/reply token: `generation << 32 | slab index`.
fn token_of(idx: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

/// Splits a slab token into `(index, generation)`.
fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// A shard thread: apply batches in arrival order until every sender is
/// gone, then close the books.
///
/// `delay_us` is the fault-injected per-request service delay (0 for a
/// healthy shard); `busy` is this shard's reject counter, incremented by
/// the connection front-end and folded into every snapshot here.
fn shard_main(
    mut engine: ShardEngine,
    rx: &QueueReceiver<ShardMsg>,
    busy: &AtomicU64,
    delay_us: u64,
    capture: Option<&CaptureRing>,
) -> ShardSnapshot {
    let delay = (delay_us > 0).then(|| Duration::from_micros(delay_us));
    while let Some(msg) = rx.pop() {
        match msg {
            ShardMsg::Io { reply, batch } => {
                let mut out = Vec::with_capacity(batch.len() * 14);
                for r in &batch {
                    if let Some(d) = delay {
                        std::thread::sleep(d);
                    }
                    if let Some(cap) = capture {
                        // Non-blocking by construction: a full ring
                        // drops and counts instead of stalling the
                        // shard's request loop.
                        cap.record(r.at_us, r.disk, r.block, r.blocks, r.write);
                    }
                    engine.serve(r, &mut out);
                }
                reply.send(out);
            }
            ShardMsg::Stats { reply } => {
                let mut snap = engine.snapshot();
                snap.busy_rejects = busy.load(Ordering::Relaxed);
                snap.queue_depth = rx.depth() as u64;
                snap.queue_high_water = rx.high_water();
                let _ = reply.send(snap);
            }
        }
    }
    let mut snap = engine.into_snapshot();
    snap.busy_rejects = busy.load(Ordering::Relaxed);
    snap.queue_high_water = rx.high_water();
    snap
}

/// Gathers a live snapshot from every shard and renders the JSON with
/// the IO-thread gauges and (when capturing) the capture gauges.
fn collect_stats(ctx: &IoThreadCtx) -> String {
    let (tx, rx) = channel();
    for s in ctx.shard_txs.iter() {
        s.push_control(ShardMsg::Stats { reply: tx.clone() });
    }
    drop(tx);
    // A shard gone mid-shutdown reports empty rather than nothing.
    let mut snaps: Vec<_> = (0..ctx.shard_txs.len()).map(ShardSnapshot::empty).collect();
    for s in rx {
        let at = s.shard;
        snaps[at] = s;
    }
    ClusterSnapshot::new(ctx.names.0.clone(), ctx.names.1.clone(), snaps)
        .with_io(io_snapshots(&ctx.io_gauges))
        .with_capture(ctx.capture.as_deref().map(CaptureRing::snapshot))
        .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        encode_data_request, encode_request, FrameBuf, Request, DEFAULT_BLOCK_BYTES,
        MAX_DATA_BLOCKS,
    };
    use crate::stats::parse_stats_json;
    use std::io::{Error, ErrorKind, Read, Write};

    fn read_response(stream: &mut TcpStream, fb: &mut FrameBuf) -> Response {
        loop {
            if let Some(resp) = fb.next_response().unwrap() {
                return resp;
            }
            assert!(fb.read_from(stream).unwrap() > 0, "server closed early");
        }
    }

    #[test]
    fn serves_io_stats_and_shutdown_over_loopback() {
        let server = Server::bind("127.0.0.1:0", EngineConfig::new(2, 4)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        // Miss then hit on the same block.
        for seq in 0..2u32 {
            encode_request(
                &Request::Io {
                    seq,
                    write: false,
                    disk: 1,
                    block: 77,
                    blocks: 1,
                },
                &mut wire,
            );
        }
        encode_request(&Request::Stats { seq: 2 }, &mut wire);
        stream.write_all(&wire).unwrap();

        let mut hits = Vec::new();
        for want_seq in 0..2u32 {
            match read_response(&mut stream, &mut fb) {
                Response::Io { seq, hit, .. } => {
                    assert_eq!(seq, want_seq);
                    hits.push(hit);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(hits, vec![false, true]);

        match read_response(&mut stream, &mut fb) {
            Response::Stats { seq, json } => {
                assert_eq!(seq, 2);
                let summary = parse_stats_json(&json).expect("stats must parse");
                assert_eq!(summary.requests, 2);
                assert_eq!(summary.hits, 1);
                assert_eq!(summary.shard_energy_j.len(), 2);
                assert_eq!(
                    summary.io_connections, 1,
                    "the event loop must report its one connection"
                );
            }
            other => panic!("unexpected response {other:?}"),
        }

        let mut wire = Vec::new();
        encode_request(&Request::Shutdown { seq: 3 }, &mut wire);
        stream.write_all(&wire).unwrap();
        assert_eq!(
            read_response(&mut stream, &mut fb),
            Response::Shutdown { seq: 3 }
        );

        let summary = handle.join().unwrap();
        assert_eq!(summary.snapshot.total_requests(), 2);
        assert_eq!(summary.connections, 1);
    }

    #[test]
    fn accept_errors_are_classified_transient_or_fatal() {
        let cases = [
            (Error::from(ErrorKind::WouldBlock), true),
            (Error::from(ErrorKind::ConnectionAborted), true),
            (Error::from(ErrorKind::ConnectionReset), true),
            (Error::from_raw_os_error(103), true), // ECONNABORTED
            (Error::from_raw_os_error(24), true),  // EMFILE
            (Error::from_raw_os_error(23), true),  // ENFILE
            (Error::from_raw_os_error(105), true), // ENOBUFS
            (Error::from_raw_os_error(12), true),  // ENOMEM
            (Error::from_raw_os_error(9), false),  // EBADF
            (Error::from_raw_os_error(22), false), // EINVAL: not listening
            (Error::from(ErrorKind::PermissionDenied), false),
        ];
        for (e, transient) in cases {
            assert_eq!(accept_can_continue(&e), transient, "{e:?}");
        }
    }

    #[test]
    fn stop_flag_drains_an_idle_server() {
        let server = Server::bind("127.0.0.1:0", EngineConfig::new(1, 1)).unwrap();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.run().unwrap());
        stop.store(true, Ordering::Relaxed);
        let summary = handle.join().unwrap();
        assert_eq!(summary.snapshot.total_requests(), 0);
        assert_eq!(summary.connections, 0);
    }

    #[test]
    fn idle_connections_are_disconnected() {
        let server = Server::bind("127.0.0.1:0", EngineConfig::new(1, 1))
            .unwrap()
            .with_idle_timeout(Duration::from_millis(150));
        let addr = server.local_addr().unwrap();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.run().unwrap());

        // An active connection opened *before* the silent one: it must
        // survive the sweep that reaps its silent sibling.
        let mut good = TcpStream::connect(addr).unwrap();
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        encode_request(&Request::Stats { seq: 1 }, &mut wire);
        good.write_all(&wire).unwrap();
        assert!(matches!(
            read_response(&mut good, &mut fb),
            Response::Stats { seq: 1, .. }
        ));

        // Connect, send nothing: the sweep must hang up on us instead
        // of holding per-connection state until we bother to speak.
        // Meanwhile `good` keeps talking, so the same sweep must leave
        // it alone.
        let mut silent = TcpStream::connect(addr).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let started = Instant::now();
        let mut seq = 2u32;
        loop {
            assert!(
                started.elapsed() < Duration::from_secs(4),
                "disconnect must come from the idle sweep, not this loop's patience"
            );
            let mut wire = Vec::new();
            encode_request(&Request::Stats { seq }, &mut wire);
            good.write_all(&wire).unwrap();
            assert!(
                matches!(read_response(&mut good, &mut fb), Response::Stats { .. }),
                "the active connection must survive the sweep"
            );
            seq += 1;
            let mut buf = [0u8; 8];
            match silent.read(&mut buf) {
                Ok(0) => break, // Swept: exactly what we want.
                Ok(_) => panic!("the silent connection got data from nowhere"),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => break, // A reset counts as closed too.
            }
        }

        // And `good` is still fully functional afterwards.
        let mut wire = Vec::new();
        encode_request(&Request::Stats { seq }, &mut wire);
        good.write_all(&wire).unwrap();
        assert!(matches!(
            read_response(&mut good, &mut fb),
            Response::Stats { .. }
        ));

        stop.store(true, Ordering::Relaxed);
        drop(good);
        handle.join().unwrap();
    }

    #[test]
    fn garbage_input_kills_only_that_connection() {
        let server = Server::bind("127.0.0.1:0", EngineConfig::new(1, 1)).unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.run().unwrap());

        // A zero length prefix is unframeable; the data frames decode
        // but break the size contract `valid_data_request` enforces.
        let data_frame = |write, blocks, payload_len| {
            let mut wire = Vec::new();
            encode_data_request(7, write, 0, 0, blocks, &vec![0xAB; payload_len], &mut wire);
            wire
        };
        let offenders = [
            ("zero length prefix", vec![0u8; 8]),
            ("short WRITE_DATA", data_frame(true, 2, DEFAULT_BLOCK_BYTES)),
            ("READ_DATA with a body", data_frame(false, 1, 1)),
            ("too many blocks", data_frame(false, MAX_DATA_BLOCKS + 1, 0)),
        ];
        for (what, wire) in &offenders {
            let mut bad = TcpStream::connect(addr).unwrap();
            bad.write_all(wire).unwrap();
            let mut buf = [0u8; 16];
            // Server closes the connection: read returns 0 (or a reset).
            let n = bad.read(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "{what}: must be closed without a response");
        }

        // A fresh, well-behaved connection still works, and no rejected
        // frame reached a shard.
        let mut good = TcpStream::connect(addr).unwrap();
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        encode_request(&Request::Stats { seq: 9 }, &mut wire);
        good.write_all(&wire).unwrap();
        match read_response(&mut good, &mut fb) {
            Response::Stats { seq: 9, json } => {
                let summary = parse_stats_json(&json).expect("stats must parse");
                assert_eq!(summary.requests, 0);
                assert_eq!(summary.crc_failures, 0);
            }
            other => panic!("unexpected response {other:?}"),
        }

        stop.store(true, Ordering::Relaxed);
        drop(good);
        handle.join().unwrap();
    }

    #[test]
    fn oversized_request_frames_poison_only_the_offender() {
        let server = Server::bind("127.0.0.1:0", EngineConfig::new(1, 1)).unwrap();
        let addr = server.local_addr().unwrap();
        let stop = server.stop_flag();
        let handle = std::thread::spawn(move || server.run().unwrap());

        // A frame claiming 1 MiB: legal for the *protocol* but larger
        // than any request, so the server-side cap must kill the
        // connection at the prefix instead of buffering a megabyte.
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(&(1024u32 * 1024).to_le_bytes()).unwrap();
        let mut buf = [0u8; 16];
        let n = bad.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "oversized frame must close the connection");

        let mut good = TcpStream::connect(addr).unwrap();
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        encode_request(&Request::Stats { seq: 4 }, &mut wire);
        good.write_all(&wire).unwrap();
        assert!(matches!(
            read_response(&mut good, &mut fb),
            Response::Stats { seq: 4, .. }
        ));

        stop.store(true, Ordering::Relaxed);
        drop(good);
        handle.join().unwrap();
    }
}
