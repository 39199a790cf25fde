//! The storage system's disk farm.

use pc_diskmodel::{PowerModel, ServiceModel, ServiceRequest};
use pc_units::{DiskId, Joules, SimTime};

use crate::{DiskReport, DiskSim, DpmPolicy, Served};

/// A homogeneous array of simulated disks.
///
/// # Examples
///
/// ```
/// use pc_diskmodel::{DiskPowerSpec, PowerModel, ServiceModel, ServiceRequest};
/// use pc_disksim::{DiskArray, DpmPolicy};
/// use pc_units::{BlockNo, DiskId, SimTime};
///
/// let power = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());
/// let mut array = DiskArray::new(4, power, ServiceModel::default(), DpmPolicy::Practical);
/// array.service(DiskId::new(2), SimTime::from_secs(1), ServiceRequest::single(BlockNo::new(5)));
/// array.finish(SimTime::from_secs(30));
/// assert_eq!(array.reports().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DiskArray {
    disks: Vec<DiskSim>,
}

impl DiskArray {
    /// Creates `count` identical disks.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn new(count: u32, power: PowerModel, service: ServiceModel, policy: DpmPolicy) -> Self {
        DiskArray::new_configured(count, power, service, policy, false)
    }

    /// Creates `count` identical disks, optionally in Carrera-style
    /// serve-at-speed mode (see [`DiskSim::with_serve_at_speed`]).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, or if serve-at-speed is combined with
    /// [`DpmPolicy::Oracle`].
    #[must_use]
    pub fn new_configured(
        count: u32,
        power: PowerModel,
        service: ServiceModel,
        policy: DpmPolicy,
        serve_at_speed: bool,
    ) -> Self {
        assert!(count > 0, "need at least one disk");
        let disks = (0..count)
            .map(|i| {
                let d = DiskSim::new(DiskId::new(i), power.clone(), service, policy);
                if serve_at_speed {
                    d.with_serve_at_speed()
                } else {
                    d
                }
            })
            .collect();
        DiskArray { disks }
    }

    /// Number of disks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Always `false`: arrays have at least one disk.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Services a request on one disk.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range (see [`DiskSim::service`] for the
    /// ordering requirements).
    pub fn service(&mut self, disk: DiskId, arrival: SimTime, request: ServiceRequest) -> Served {
        self.disks[disk.as_usize()].service(arrival, request)
    }

    /// Access to one disk (e.g. for [`DiskSim::peek_mode`]).
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range.
    #[must_use]
    pub fn disk(&self, disk: DiskId) -> &DiskSim {
        &self.disks[disk.as_usize()]
    }

    /// The latest completion time across all disks (the earliest valid
    /// [`DiskArray::finish`] horizon).
    #[must_use]
    pub fn latest_completion(&self) -> SimTime {
        self.disks
            .iter()
            .map(DiskSim::ready_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Closes all disks at the simulation horizon.
    ///
    /// # Panics
    ///
    /// Propagates [`DiskSim::finish`]'s panics.
    pub fn finish(&mut self, end: SimTime) {
        for d in &mut self.disks {
            d.finish(end);
        }
    }

    /// Per-disk reports, indexed by disk.
    #[must_use]
    pub fn reports(&self) -> Vec<&DiskReport> {
        self.disks.iter().map(DiskSim::report).collect()
    }

    /// The element-wise sum of all per-disk reports.
    #[must_use]
    pub fn total_report(&self) -> DiskReport {
        let mut total = DiskReport::new(self.disks[0].power_model().mode_count());
        for d in &self.disks {
            total.merge(d.report());
        }
        total
    }

    /// Total energy across the array.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.disks.iter().map(|d| d.report().total_energy()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_diskmodel::DiskPowerSpec;
    use pc_units::{BlockNo, SimDuration};

    fn array(n: u32) -> DiskArray {
        DiskArray::new(
            n,
            PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15()),
            ServiceModel::ultrastar_36z15(),
            DpmPolicy::Practical,
        )
    }

    #[test]
    fn routes_requests_to_the_right_disk() {
        let mut a = array(3);
        a.service(
            DiskId::new(1),
            SimTime::from_secs(1),
            ServiceRequest::single(BlockNo::new(1)),
        );
        a.finish(SimTime::from_secs(10));
        let reports = a.reports();
        assert_eq!(reports[1].requests, 1);
        assert_eq!(reports[0].requests, 0);
        assert_eq!(reports[2].requests, 0);
    }

    #[test]
    fn total_energy_sums_disks() {
        let mut a = array(2);
        a.finish(SimTime::from_secs(50));
        let total = a.total_energy().as_joules();
        // Two request-free disks for 50 s each: they descend the ladder,
        // so total energy lands strictly between all-standby and all-idle.
        assert!(total > 2.0 * 50.0 * 2.5 && total < 2.0 * 50.0 * 10.2);
        let merged = a.total_report();
        assert!((merged.total_energy().as_joules() - total).abs() < 1e-9);
        assert_eq!(merged.total_time(), SimDuration::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn rejects_empty_array() {
        let _ = array(0);
    }
}
