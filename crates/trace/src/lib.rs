//! I/O traces and workload generators for the `powercache` simulator.
//!
//! The paper evaluates on two real traces (an OLTP/TPC-C trace and HP's
//! Cello96 file-server trace) plus the Table-3 synthetic traces used for
//! the write-policy study. The real traces are proprietary, so this crate
//! provides statistically-shaped generators matched to every characteristic
//! the paper reports (see DESIGN.md §2 for the substitution argument):
//!
//! * [`SyntheticConfig`] — the paper's Table-3 generator: controlled write
//!   ratio, exponential or Pareto inter-arrival times, sequential / local /
//!   random spatial mix, Zipf temporal locality.
//! * [`OltpConfig`] — OLTP-like: 21 disks, 22% writes, ~99 ms mean gap,
//!   per-disk skew with a cacheable "priority-shaped" disk subset.
//! * [`CelloConfig`] — Cello96-like: 19 disks, 38% writes, ~5.61 ms mean
//!   gap, ~64% cold misses.
//!
//! # Examples
//!
//! ```
//! use pc_trace::{OltpConfig, TraceStats};
//!
//! let trace = OltpConfig::default().with_requests(2_000).generate(42);
//! let stats = TraceStats::of(&trace);
//! assert_eq!(stats.disks, 21);
//! assert!(stats.write_fraction > 0.15 && stats.write_fraction < 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cello;
mod layout;
mod nonstationary;
mod oltp;
mod recency;
mod record;
mod samplers;
mod stats;
mod stream;
mod synthetic;

pub use cello::{CelloConfig, CelloStream};
pub use layout::DataLayout;
pub use nonstationary::{NonStationaryConfig, NonStationaryStream, Scenario};
pub use oltp::OltpConfig;
pub use record::{IoOp, Record, Trace};
pub use samplers::{GapDistribution, ZipfSampler};
pub use stats::{DiskStats, TraceStats};
pub use stream::{RecordStream, Workload};
pub use synthetic::{SyntheticConfig, SyntheticStream};
