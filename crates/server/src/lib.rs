//! `pc-server`: the online serving layer over the `powercache` stack.
//!
//! Everything below this crate simulates — caches, disks, energy. This
//! crate puts that stack behind a socket: a long-running daemon that
//! serves block read/write requests over a compact length-prefixed
//! binary protocol ([`protocol`]), hash-partitions `(disk, block)`
//! across N independent shard threads ([`shard`]), and advances each
//! shard's own virtual-time disk timeline so the service can report
//! *live* energy, hit-ratio and latency statistics ([`stats`]) while it
//! runs. A companion load generator ([`loadgen`]) replays the workspace
//! workloads over M concurrent connections and collects a closing
//! report.
//!
//! Two binaries ship with the crate:
//!
//! * `pc-server` — the daemon (graceful SIGTERM drain, closing report).
//! * `pc-loadgen` — the load generator (also hosts the deterministic
//!   `--in-process` mode, which needs no sockets at all).
//!
//! See DESIGN.md §8 for the architecture discussion.
//!
//! # Examples
//!
//! In-process, no sockets (the deterministic mode):
//!
//! ```
//! use pc_server::shard::{EngineConfig, InProcCluster};
//! use pc_trace::Workload;
//!
//! let workload = Workload::parse("synthetic").unwrap().with_requests(1_000);
//! let mut cluster = InProcCluster::new(&EngineConfig::new(4, 4));
//! for record in workload.stream(42) {
//!     cluster.submit(&record);
//! }
//! let snapshot = cluster.into_snapshot();
//! assert_eq!(snapshot.total_requests(), 1_000);
//! assert!(snapshot.total_energy() > pc_units::Joules::ZERO);
//! ```

// `unsafe` is denied crate-wide; the one exception is [`poller`],
// which wraps the epoll/eventfd syscalls behind a safe API and is the
// only module allowed to opt in.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod conn;
pub mod data;
pub mod loadgen;
#[allow(unsafe_code)]
pub mod poller;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod shard;
pub mod stats;

pub use capture::{Capture, CaptureReport, CaptureRing, DEFAULT_CAPTURE_QUEUE};
pub use conn::Conn;
pub use data::{fill_block, BlockStore};
pub use loadgen::{run_in_process, run_tcp, InProcReport, LoadReport, LoadgenConfig};
pub use poller::{Event, Interest, Poller, Waker};
pub use server::{RunSummary, Server};
pub use shard::{
    parse_slow_shard, parse_write_policy, shard_of, EngineConfig, InProcCluster, ShardEngine,
    SlowShard, SubmitOutcome, DEFAULT_QUEUE_BOUND,
};
pub use stats::{parse_stats_json, CaptureSnapshot, ClusterSnapshot, ShardSnapshot, StatsSummary};
