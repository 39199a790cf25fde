//! Data-sheet parameters of a disk drive.

use pc_units::{Joules, SimDuration, Watts};

/// The power-relevant data-sheet parameters of one disk drive, plus the
/// multi-speed extension parameters used by the paper.
///
/// The values reported in the paper's Table 1 (IBM Ultrastar 36Z15) are
/// available from [`DiskPowerSpec::ultrastar_36z15`]. All derived
/// quantities — per-mode powers, transition costs, envelopes — live in
/// [`PowerModel`](crate::PowerModel).
///
/// # Examples
///
/// ```
/// use pc_diskmodel::DiskPowerSpec;
/// use pc_units::Joules;
///
/// // Figure 8 varies the standby→active spin-up energy.
/// let spec = DiskPowerSpec::ultrastar_36z15().with_spin_up_energy(Joules::new(67.5));
/// assert_eq!(spec.spin_up_energy, Joules::new(67.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiskPowerSpec {
    /// Power while actively reading or writing.
    pub active_power: Watts,
    /// Power while seeking.
    pub seek_power: Watts,
    /// Power while spinning at full speed with no activity.
    pub idle_power: Watts,
    /// Power in standby (spindle stopped).
    pub standby_power: Watts,
    /// Time to spin up from standby to active.
    pub spin_up_time: SimDuration,
    /// Energy to spin up from standby to active.
    pub spin_up_energy: Joules,
    /// Time to spin down from active to standby.
    pub spin_down_time: SimDuration,
    /// Energy to spin down from active to standby.
    pub spin_down_energy: Joules,
    /// Full rotational speed, in RPM.
    pub max_rpm: u32,
    /// Lowest intermediate rotational speed, in RPM.
    pub min_rpm: u32,
    /// Spacing between intermediate rotational speeds, in RPM.
    pub rpm_step: u32,
    /// Usable capacity, in blocks (see [`ServiceModel`](crate::ServiceModel)
    /// for the block size).
    pub capacity_blocks: u64,
}

impl DiskPowerSpec {
    /// The IBM Ultrastar 36Z15 parameters from the paper's Table 1.
    ///
    /// 18.4 GB, 15 000 RPM, 13.5 W active/seek, 10.2 W idle, 2.5 W standby,
    /// 10.9 s / 135 J spin-up, 1.5 s / 13 J spin-down, with the paper's
    /// multi-speed extension (intermediate speeds every 3 000 RPM down to
    /// 3 000 RPM).
    #[must_use]
    pub fn ultrastar_36z15() -> Self {
        DiskPowerSpec {
            active_power: Watts::new(13.5),
            seek_power: Watts::new(13.5),
            idle_power: Watts::new(10.2),
            standby_power: Watts::new(2.5),
            spin_up_time: SimDuration::from_millis(10_900),
            spin_up_energy: Joules::new(135.0),
            spin_down_time: SimDuration::from_millis(1_500),
            spin_down_energy: Joules::new(13.0),
            max_rpm: 15_000,
            min_rpm: 3_000,
            rpm_step: 3_000,
            // 18.4 GB at 8 KiB blocks.
            capacity_blocks: 18_400_000_000 / 8_192,
        }
    }

    /// A laptop-class disk in the spirit of the IBM Travelstar family,
    /// as used by Carrera & Bianchini's laptop/server combinations (the
    /// alternative the paper's §1 discusses): 4 200 RPM and single-speed
    /// (no intermediate modes), an order of magnitude less power than the
    /// Ultrastar, and a spin-up measured in a second rather than eleven.
    #[must_use]
    pub fn travelstar_laptop() -> Self {
        DiskPowerSpec {
            active_power: Watts::new(2.1),
            seek_power: Watts::new(2.3),
            idle_power: Watts::new(0.85),
            standby_power: Watts::new(0.25),
            spin_up_time: SimDuration::from_millis(1_800),
            spin_up_energy: Joules::new(8.0),
            spin_down_time: SimDuration::from_millis(400),
            spin_down_energy: Joules::new(1.0),
            max_rpm: 4_200,
            min_rpm: 4_200, // single-speed: only idle and standby
            rpm_step: 0,
            // 30 GB at 8 KiB blocks.
            capacity_blocks: 30_000_000_000 / 8_192,
        }
    }

    /// Returns a copy with a different standby→active spin-up energy
    /// (the sweep of the paper's Figure 8).
    ///
    /// Intermediate-mode transition costs, which the paper derives with the
    /// same linear model, scale along with it in
    /// [`PowerModel`](crate::PowerModel).
    #[must_use]
    pub fn with_spin_up_energy(mut self, energy: Joules) -> Self {
        self.spin_up_energy = energy;
        self
    }

    /// Returns a copy with a different standby→active spin-up time.
    #[cfg(test)]
    #[must_use]
    pub fn with_spin_up_time(mut self, time: SimDuration) -> Self {
        self.spin_up_time = time;
        self
    }
}

impl Default for DiskPowerSpec {
    fn default() -> Self {
        DiskPowerSpec::ultrastar_36z15()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let s = DiskPowerSpec::ultrastar_36z15();
        assert_eq!(s.active_power, Watts::new(13.5));
        assert_eq!(s.idle_power, Watts::new(10.2));
        assert_eq!(s.standby_power, Watts::new(2.5));
        assert_eq!(s.spin_up_time, SimDuration::from_millis(10_900));
        assert_eq!(s.spin_up_energy, Joules::new(135.0));
        assert_eq!(s.spin_down_time, SimDuration::from_millis(1_500));
        assert_eq!(s.spin_down_energy, Joules::new(13.0));
        assert_eq!(s.max_rpm, 15_000);
        assert_eq!(s.min_rpm, 3_000);
    }

    #[test]
    fn spin_up_overrides() {
        let s = DiskPowerSpec::ultrastar_36z15()
            .with_spin_up_energy(Joules::new(270.0))
            .with_spin_up_time(SimDuration::from_secs(20));
        assert_eq!(s.spin_up_energy, Joules::new(270.0));
        assert_eq!(s.spin_up_time, SimDuration::from_secs(20));
    }
}
