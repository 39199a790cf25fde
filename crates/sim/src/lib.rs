//! The complete storage-system simulator: cache + disks + power
//! management, wired together the way the paper's CacheSim + DiskSim
//! stack was.
//!
//! One loop — an [`OnlineStepper`] advancing cache and disks together,
//! request by request — sits behind both of the paper's experiment
//! families:
//!
//! * [`run_replacement`] (and [`run_replacement_stream`], the same loop
//!   fed from an iterator) — the §5 replacement-policy experiments
//!   (Figures 6–8), under Oracle or Practical DPM. Oracle prices each
//!   idle gap when the next arrival closes it, so it needs no second
//!   pass.
//! * [`run_write_policy`] — the §6 write-policy experiments (Figure 9).
//!   WBEU and WTDU consult the disks' *current* power mode, so the DPM
//!   must be causal (Practical, like the paper's published panels).
//!
//! # Examples
//!
//! ```
//! use pc_sim::{run_replacement, PolicySpec, SimConfig};
//! use pc_trace::OltpConfig;
//!
//! let trace = OltpConfig::default().with_requests(2_000).generate(1);
//! let config = SimConfig::default().with_cache_blocks(512);
//! let lru = run_replacement(&trace, &PolicySpec::Lru, &config);
//! let infinite = run_replacement(&trace, &PolicySpec::Lru, &config.clone().with_infinite_cache());
//! assert!(infinite.cache.hit_ratio() >= lru.cache.hit_ratio());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod report;
mod runner;

pub use config::{PolicySpec, SimConfig};
pub use report::{RunTiming, SimReport};
pub use runner::{
    run_replacement, run_replacement_stream, run_write_policy, OnlineStepper, StepOutcome,
};
