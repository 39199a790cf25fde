//! The two server workloads: an in-process `pc-server` on its own
//! threads, driven over loopback by the benchmark's closed-loop client.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use pc_server::{ClusterSnapshot, EngineConfig, InProcCluster, RunSummary, Server, StatsSummary};
use pc_sim::PolicySpec;
use pc_trace::{Record, SyntheticConfig, Workload};

use crate::client::{Client, Window, WindowStats};
use crate::span::Tracer;
use crate::stats::median;
use crate::{host, Checks};

/// Connections the one client thread drives (≤ `nproc` on the
/// reference box).
pub const CONNECTIONS: usize = 2;

/// Measurement windows per untraced run, shared evenly among its
/// sessions (one per set-up); rates, CPU per request and percentiles
/// are medians over all of them.
pub const WINDOWS: usize = 20;

/// Records of the first stream the deterministic in-process run serves
/// (`sim_energy_j`, `sim_resp_ms`, `energy_saving_pct`).
pub const IN_PROCESS_RECORDS: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    Meta,
    Payload,
}

impl ServerKind {
    /// Payload bytes per block on the data plane.
    pub fn block_bytes(self) -> Option<usize> {
        match self {
            ServerKind::Meta => None,
            ServerKind::Payload => Some(4096),
        }
    }

    /// Two shards over the synthetic generator's 20 disks, one IO
    /// thread, LRU write-back with the paper's simulator defaults.
    pub fn engine(self) -> EngineConfig {
        let cfg = EngineConfig::new(2, 20).with_io_threads(1);
        match self.block_bytes() {
            Some(bb) => cfg.with_block_bytes(bb),
            None => cfg,
        }
    }

    /// Requests in flight per connection.
    pub fn depth(self) -> usize {
        match self {
            ServerKind::Meta => 32,
            ServerKind::Payload => 8,
        }
    }

    /// Requests the warm-up serves before anything is timed: enough to
    /// fill both shards' 4096-block caches several times over.
    pub fn warmup_requests(self) -> u64 {
        match self {
            ServerKind::Meta => 200_000,
            ServerKind::Payload => 30_000,
        }
    }

    /// Table-3 synthetic traffic: 50% writes, ≤ 8 blocks per request,
    /// half of all accesses re-use a recent block.
    pub fn workload(self) -> Workload {
        Workload::Synthetic(
            SyntheticConfig::default()
                .with_write_ratio(0.5)
                .with_requests(usize::MAX),
        )
    }

    /// One record stream per connection, seeded `seed + connection`.
    pub fn streams(self, seed: u64) -> Vec<Box<dyn Iterator<Item = Record>>> {
        (0..CONNECTIONS as u64)
            .map(|c| Box::new(self.workload().stream(seed + c)) as Box<dyn Iterator<Item = Record>>)
            .collect()
    }
}

/// A running server plus the client connected to it.
pub struct Live {
    pub client: Client,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<RunSummary>>,
}

impl Live {
    /// Binds an ephemeral loopback port, serves on background threads
    /// and connects the client.
    pub fn start(
        engine: EngineConfig,
        depth: usize,
        payload: Option<usize>,
        streams: Vec<Box<dyn Iterator<Item = Record>>>,
    ) -> std::io::Result<Live> {
        let server = Server::bind("127.0.0.1:0", engine)?;
        let addr = server.local_addr()?;
        let stop = server.stop_flag();
        let thread = std::thread::spawn(move || server.run());
        let client = Client::connect(addr, depth, payload, streams)?;
        Ok(Live {
            client,
            stop,
            thread,
        })
    }

    /// Closes the client's sockets, stops the server and waits for its
    /// threads; returns the server's closing summary.
    pub fn shut_down(self) -> std::io::Result<RunSummary> {
        drop(self.client);
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// One measured session, or several absorbed into one.
pub struct LiveRun {
    pub windows: Vec<WindowStats>,
    /// Every window's CPU µs per reply, all threads (client, IO
    /// thread, shards), in order.
    pub window_cpu_us: Vec<f64>,
    /// The client thread's share of each.
    pub window_client_cpu_us: Vec<f64>,
    pub stats: StatsSummary,
}

impl LiveRun {
    /// Adds a later session's windows; the books are the later session's.
    pub fn absorb(mut self, later: LiveRun) -> LiveRun {
        self.windows.extend(later.windows);
        self.window_cpu_us.extend(later.window_cpu_us);
        self.window_client_cpu_us.extend(later.window_client_cpu_us);
        self.stats = later.stats;
        self
    }

    /// CPU µs of every thread (client, IO thread, shards) per reply:
    /// the median over the windows of the window's own ratio.
    pub fn cpu_us_per_req(&self) -> f64 {
        median(&self.window_cpu_us)
    }

    /// The client thread's share of that.
    pub fn client_cpu_us_per_req(&self) -> f64 {
        median(&self.window_client_cpu_us)
    }
}

/// What a measured session sends.
#[derive(Debug, Clone, Copy)]
pub enum Session {
    /// Back-to-back timed windows; the pipeline stays full between them.
    Windows { count: usize, seconds: f64 },
    /// Exactly this many requests, as one window.
    Requests(u64),
}

/// Runs one session under `client.window` spans, then drains, asks for
/// STATS and balances the books.
pub fn measure(
    live: &mut Live,
    session: Session,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> std::io::Result<LiveRun> {
    let mut seen = Vec::new();
    // CPU µs per reply of each window: every thread's, the client's.
    let (mut cpu_us, mut mine_us) = (Vec::new(), Vec::new());
    let count = match session {
        Session::Windows { count, .. } => count,
        Session::Requests(_) => 1,
    };
    for w in 0..count as u64 {
        let (cpu0, mine0) = (host::cpu_ns_all_threads(), host::cpu_ns_this_thread());
        let span = tracer.open("client.window", None, w);
        let window = match session {
            Session::Windows { seconds, .. } => live.client.run_for(seconds, tracer, Some(span))?,
            Session::Requests(n) => live.client.run_requests(n, tracer, Some(span))?,
        };
        tracer.close(span);
        let per_reply = |ns: u64| ns as f64 / 1e3 / window.replies().max(1) as f64;
        cpu_us.push(per_reply(host::cpu_ns_all_threads() - cpu0));
        mine_us.push(per_reply(host::cpu_ns_this_thread() - mine0));
        seen.push(window);
    }

    live.client.drain(&mut Tracer::new(false))?;
    let stats = live.client.stats()?;
    let t = live.client.totals;
    checks.require(t.responses + t.exhausted + t.corrupt == t.sent, || {
        format!("client books do not balance: {t:?}")
    });
    checks.require(stats.requests == t.responses + t.corrupt, || {
        format!(
            "server STATS counts {} requests, client saw {} answered",
            stats.requests,
            t.responses + t.corrupt
        )
    });
    checks.fail(
        t.verify_failures,
        "DATA replies differ from the disk image".into(),
    );
    checks.fail(
        t.exhausted,
        format!(
            "requests still BUSY after {} resends",
            crate::client::MAX_RESENDS
        ),
    );
    checks.fail(t.corrupt + stats.crc_failures, "server CRC failures".into());
    checks.fail(
        t.unknown + t.collisions,
        "replies or sends the in-flight table could not place".into(),
    );

    Ok(LiveRun {
        windows: seen.into_iter().map(Window::into_stats).collect(),
        window_cpu_us: cpu_us,
        window_client_cpu_us: mine_us,
        stats,
    })
}

/// Serves `records` through an in-process cluster — no sockets, record
/// times as arrival times — and closes the books. Deterministic.
pub fn in_process(engine: &EngineConfig, records: &[Record]) -> ClusterSnapshot {
    let mut cluster = InProcCluster::new(engine);
    for r in records {
        cluster.submit(r);
    }
    cluster.into_snapshot()
}

/// The simulated energy and mean response the server's own engine
/// books for a fixed request set, plus the PA-LRU saving over it.
pub struct InProcess {
    pub energy_j: f64,
    pub resp_ms: f64,
    pub saving_pct: f64,
    pub digest: u32,
}

pub fn in_process_books(kind: ServerKind, records: &[Record], checks: &mut Checks) -> InProcess {
    let engine = kind.engine();
    let first = in_process(&engine, records);
    let json = first.to_json();
    checks.require(in_process(&engine, records).to_json() == json, || {
        "two in-process runs over the same records differ".to_owned()
    });
    checks.require(first.total_requests() == records.len() as u64, || {
        format!(
            "in-process cluster served {} of {} records",
            first.total_requests(),
            records.len()
        )
    });
    let pa = in_process(&engine.clone().with_policy(PolicySpec::PaLru), records);
    let response_us: u64 = first
        .shards
        .iter()
        .map(|s| s.response_total.as_micros())
        .sum();
    let energy_j = first.total_energy().as_joules();
    InProcess {
        energy_j,
        resp_ms: response_us as f64 / 1e3 / records.len().max(1) as f64,
        saving_pct: 100.0 * (1.0 - pa.total_energy().as_joules() / energy_j),
        digest: pc_crc::crc32c(json.as_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole loop on a small scale: server threads, the client's
    /// event loop, payload verification, STATS and the shutdown path.
    #[test]
    fn a_short_live_session_balances_its_books() {
        for kind in [ServerKind::Meta, ServerKind::Payload] {
            let mut live = Live::start(
                kind.engine(),
                kind.depth(),
                kind.block_bytes(),
                kind.streams(7),
            )
            .unwrap();
            live.client
                .run_requests(500, &mut Tracer::new(false), None)
                .unwrap();
            let mut tracer = Tracer::new(true);
            let mut checks = Checks::default();
            let session = Session::Windows {
                count: 2,
                seconds: 0.05,
            };
            let run = measure(&mut live, session, &mut tracer, &mut checks).unwrap();
            let summary = live.shut_down().unwrap();
            assert_eq!(checks.failed, 0, "{kind:?}: {:?}", checks.messages);
            let replies: u64 = run.windows.iter().map(|w| w.replies).sum();
            assert!(replies > 0 && run.stats.requests >= 500 + replies);
            assert_eq!(summary.snapshot.total_requests(), run.stats.requests);
            assert_eq!(summary.connections, CONNECTIONS as u64);
            let moved: u64 = run.windows.iter().map(|w| w.payload_bytes).sum();
            assert_eq!(moved > 0, kind == ServerKind::Payload);
            // Window spans hold the three client phases as children.
            let window_ns: u64 = run.windows.iter().map(|w| (w.seconds * 1e9) as u64).sum();
            let selfs = tracer.self_ns_by_name();
            let phases = selfs["client.encode"] + selfs["client.wait"] + selfs["client.verify"];
            assert!(phases > 0 && phases <= window_ns + selfs["client.window"]);
        }
    }

    #[test]
    fn in_process_books_repeat_exactly() {
        let records: Vec<Record> = ServerKind::Meta.workload().stream(3).take(5_000).collect();
        let mut checks = Checks::default();
        let a = in_process_books(ServerKind::Meta, &records, &mut checks);
        let b = in_process_books(ServerKind::Payload, &records, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);
        // The payload plane never touches policy or energy state.
        assert_eq!((a.digest, a.energy_j), (b.digest, b.energy_j));
        assert!(a.energy_j > 0.0 && a.resp_ms > 0.0);
    }
}
