//! Disk power and service-time models for the `powercache` simulator.
//!
//! This crate is the analytical substrate of the HPCA'04 paper *Reducing
//! Energy Consumption of Disk Storage Using Power-Aware Cache Management*:
//!
//! * [`DiskPowerSpec`] — data-sheet parameters of a disk (the paper's
//!   Table 1 values for the IBM Ultrastar 36Z15 are provided by
//!   [`DiskPowerSpec::ultrastar_36z15`]).
//! * [`PowerModel`] — a multi-speed power model derived from a spec: one
//!   [`ModeSpec`] per power mode (full-speed idle, NAP1..NAP4, standby),
//!   the per-mode energy lines of the paper's Figure 2, their
//!   [lower envelope](PowerModel::lower_envelope), the energy-*savings*
//!   envelope of Figure 4, break-even times, and the 2-competitive
//!   threshold ladder used by the Practical DPM scheme.
//! * [`ServiceModel`] — first-order mechanical timing (seek, rotation,
//!   transfer) standing in for DiskSim.
//!
//! # Examples
//!
//! ```
//! use pc_diskmodel::{DiskPowerSpec, ModeId, PowerModel};
//! use pc_units::SimDuration;
//!
//! let model = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());
//! // A 60-second idle gap is long enough that some low-power mode beats
//! // staying at full-speed idle.
//! let gap = SimDuration::from_secs(60);
//! let best = model.oracle_mode_for_gap(gap);
//! assert!(best.index() > 0);
//! assert!(model.lower_envelope(gap) < model.energy_line(ModeId::FULL_SPEED, gap));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod pricing;
mod service;
mod spec;

pub use model::{LadderStep, ModeId, ModeSpec, PowerModel, Transition};
pub use service::{ServiceModel, ServiceRequest, ServiceTime};
pub use spec::DiskPowerSpec;
