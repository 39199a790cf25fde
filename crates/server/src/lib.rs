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
//! * `pc-loadgen` — the TCP load generator.
//!
//! See DESIGN.md §8 for the architecture discussion.
//!
//! # Examples
//!
//! In-process, no sockets (the deterministic mode, a library API
//! with no binary of its own):
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

// `unsafe` is denied crate-wide. The exceptions are [`poller`], which
// wraps the epoll/eventfd syscalls behind a safe API and is the only
// module allowed to opt in, and, in `data::fill_block`, the two calls
// into the `#[target_feature]` fill kernels, each after the
// `is_x86_feature_detected!` check that proves the CPU runs it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod conn;
pub mod data;
mod front;
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
pub use data::{fill_block, fill_kernel, BlockStore};
pub use loadgen::{run_tcp, LoadReport, LoadgenConfig};
pub use poller::{Event, Interest, Poller, Waker};
pub use server::{RunSummary, Server};
pub use shard::{
    parse_slow_shard, shard_of, EngineConfig, InProcCluster, ShardEngine, SlowShard,
    DEFAULT_QUEUE_BOUND,
};
pub use stats::{parse_stats_json, CaptureSnapshot, ClusterSnapshot, ShardSnapshot, StatsSummary};
