//! Reproduction drivers for every table and figure in the paper's
//! evaluation, plus the `repro` command-line tool.
//!
//! Each experiment is a function taking [`Params`] and returning its
//! formatted output (the rows/series the paper reports). The `repro`
//! binary maps sub-commands to these functions; integration tests call
//! them at reduced scale and assert the paper's qualitative shapes.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 (disk parameters)            | [`table1::run`] |
//! | Figure 2 (energy lines + envelope)   | [`fig2::run`] |
//! | Figure 3 (Belady not energy-optimal) | [`fig3::run`] |
//! | Figure 4 (savings envelope)          | [`fig4::run`] |
//! | Figure 5 (interval CDF)              | [`fig5::run`] |
//! | Table 2 (trace characteristics)      | [`table2::run`] |
//! | Figure 6a/6b (energy)                | [`fig6::energy`] |
//! | Figure 6c (response time)            | [`fig6::response`] |
//! | Figure 7 (per-disk breakdown)        | [`fig7::run`] |
//! | Figure 8 (spin-up cost sweep)        | [`fig8::run`] |
//! | Table 3 (synthetic generator)        | [`table3::run`] |
//! | Figure 9 (write policies)            | [`fig9::by_write_ratio`], [`fig9::by_interarrival`] |
//!
//! # Examples
//!
//! ```
//! use pc_experiments::{fig6, Params};
//!
//! // A toy-scale run of the Figure-6a energy comparison.
//! let out = fig6::energy(&Params::quick(), pc_experiments::TraceKind::Oltp);
//! assert!(out.text.contains("pa-lru"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod nonstationary;
pub mod surgery;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod traceio;

mod params;
mod table;

pub use params::{Params, TraceKind, TraceSource};
pub use table::{ExperimentOutput, Table};
