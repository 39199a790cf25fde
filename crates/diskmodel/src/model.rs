//! The multi-speed disk power model.
//!
//! The paper extends the 2-mode (idle/standby) power model of the IBM
//! Ultrastar 36Z15 with four intermediate rotational speeds ("NAP" modes),
//! following the DRPM proposal of Gurumurthi et al. For every mode `i` the
//! model defines the Figure-2 energy line
//!
//! ```text
//! E_i(t) = P_i · t + C_i,     C_i = E_down(i) + E_up(i)
//! ```
//!
//! the energy consumed if an idle gap of length `t` is spent entirely in
//! mode `i` (including the transition overhead to get there and back). The
//! *lower envelope* of these lines is the best possible energy for a gap —
//! what the Oracle DPM scheme achieves — and the intersection points of
//! consecutive envelope lines are the 2-competitive demotion thresholds
//! used by the Practical DPM scheme (Irani et al.).
//!
//! **Model note.** The paper cites DRPM's "linear power and time models".
//! With power strictly linear in RPM, every pairwise intersection of the
//! energy lines coincides at a single abscissa, which would remove all
//! intermediate modes from the envelope and contradict the paper's own
//! Figure 2 (distinct, increasing t0 < t1 < … < t4). DRPM's physical model
//! has spindle power super-linear in RPM, so this implementation uses
//! *quadratic* power in RPM with *linear* transition time/energy in ΔRPM,
//! which reproduces Figure 2's staircase envelope. See DESIGN.md §2.

use std::fmt;

use pc_units::{Joules, SimDuration, Watts};

use crate::pricing::{scan_oracle_mode, IdleEnergyTable};
use crate::DiskPowerSpec;

/// Index of a power mode within a [`PowerModel`].
///
/// Mode 0 is always full-speed idle; higher indices are progressively
/// lower-power modes, ending at standby.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ModeId(usize);

impl ModeId {
    /// The full-speed idle mode (the disk can service requests immediately).
    pub const FULL_SPEED: ModeId = ModeId(0);

    /// Creates a mode index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        ModeId(index)
    }

    /// Returns the mode's index (0 = full-speed idle).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }

    /// Returns `true` for the full-speed idle mode.
    #[must_use]
    pub const fn is_full_speed(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ModeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mode{}", self.0)
    }
}

/// The time and energy cost of one spindle-speed transition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Transition {
    /// Wall-clock duration of the transition.
    pub time: SimDuration,
    /// Energy consumed by the transition.
    pub energy: Joules,
}

/// One power mode of a multi-speed disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSpec {
    /// Human-readable name: `idle`, `nap1` … `nap4`, `standby`.
    pub name: String,
    /// Rotational speed in this mode (0 for standby).
    pub rpm: u32,
    /// Power drawn while resting in this mode.
    pub power: Watts,
    /// Transition from full speed down to this mode.
    pub spin_down: Transition,
    /// Transition from this mode up to full speed.
    pub spin_up: Transition,
}

/// One step of the Practical-DPM demotion ladder: after `at_idle` of
/// cumulative idle time, the disk rests in `mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderStep {
    /// Cumulative idle time at which this mode is entered.
    pub at_idle: SimDuration,
    /// The mode entered.
    pub mode: ModeId,
}

/// A complete multi-speed disk power model.
///
/// Construct with [`PowerModel::multi_speed`] (the paper's 6-mode model) or
/// [`PowerModel::two_mode`] (classic idle/standby). All envelope and
/// threshold math is precomputed and queried in O(#modes) or better.
///
/// # Examples
///
/// ```
/// use pc_diskmodel::{DiskPowerSpec, PowerModel};
/// use pc_units::SimDuration;
///
/// let m = PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15());
/// assert_eq!(m.mode_count(), 6);
/// // The first demotion happens a bit after 10 s of idleness.
/// let first = m.ladder()[1].at_idle;
/// assert!(first > SimDuration::from_secs(10) && first < SimDuration::from_secs(11));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    active_power: Watts,
    seek_power: Watts,
    modes: Vec<ModeSpec>,
    ladder: Vec<LadderStep>,
    pub(crate) pricing: IdleEnergyTable,
}

impl PowerModel {
    /// Builds the paper's 6-mode model (full-speed idle, NAP1..NAP4,
    /// standby) from a disk spec.
    ///
    /// Power at an intermediate speed `r` is
    /// `P_sb + (P_idle − P_sb)·(r/r_max)²`; transition time and energy
    /// scale linearly with the speed gap `(r_max − r)/r_max`.
    #[must_use]
    pub fn multi_speed(spec: &DiskPowerSpec) -> Self {
        let mut rpms = Vec::new();
        rpms.push(spec.max_rpm);
        let mut r = spec.max_rpm;
        while r > spec.min_rpm && spec.rpm_step > 0 {
            r -= spec.rpm_step.min(r);
            if r >= spec.min_rpm && r > 0 {
                rpms.push(r);
            }
        }
        rpms.push(0); // standby
        Self::from_rpms(spec, &rpms)
    }

    /// Builds the classic 2-mode model (full-speed idle and standby).
    #[must_use]
    pub fn two_mode(spec: &DiskPowerSpec) -> Self {
        Self::from_rpms(spec, &[spec.max_rpm, 0])
    }

    fn from_rpms(spec: &DiskPowerSpec, rpms: &[u32]) -> Self {
        assert!(
            rpms.first() == Some(&spec.max_rpm),
            "mode list must start at full speed"
        );
        let p_idle = spec.idle_power.as_watts();
        let p_sb = spec.standby_power.as_watts();
        let nap_count = rpms.len().saturating_sub(2);
        let modes = rpms
            .iter()
            .enumerate()
            .map(|(i, &rpm)| {
                let ratio = rpm as f64 / spec.max_rpm as f64;
                let power = if rpm == 0 {
                    p_sb
                } else {
                    p_sb + (p_idle - p_sb) * ratio * ratio
                };
                let gap = 1.0 - ratio;
                let name = if i == 0 {
                    "idle".to_owned()
                } else if rpm == 0 {
                    "standby".to_owned()
                } else {
                    format!("nap{i}")
                };
                let _ = nap_count;
                ModeSpec {
                    name,
                    rpm,
                    power: Watts::new(power),
                    spin_down: Transition {
                        time: spec.spin_down_time.mul_f64(gap),
                        energy: spec.spin_down_energy * gap,
                    },
                    spin_up: Transition {
                        time: spec.spin_up_time.mul_f64(gap),
                        energy: spec.spin_up_energy * gap,
                    },
                }
            })
            .collect::<Vec<_>>();
        let ladder = compute_ladder(&modes);
        let pricing = IdleEnergyTable::build(&modes, &ladder);
        PowerModel {
            active_power: spec.active_power,
            seek_power: spec.seek_power,
            modes,
            ladder,
            pricing,
        }
    }

    /// Power while actively transferring data.
    #[must_use]
    pub fn active_power(&self) -> Watts {
        self.active_power
    }

    /// Power while seeking.
    #[must_use]
    pub fn seek_power(&self) -> Watts {
        self.seek_power
    }

    /// Number of power modes (≥ 2).
    #[must_use]
    pub fn mode_count(&self) -> usize {
        self.modes.len()
    }

    /// Returns one mode's parameters.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    #[must_use]
    pub fn mode(&self, mode: ModeId) -> &ModeSpec {
        &self.modes[mode.index()]
    }

    /// Iterates over all modes, full speed first.
    pub fn modes(&self) -> impl Iterator<Item = (ModeId, &ModeSpec)> {
        self.modes.iter().enumerate().map(|(i, m)| (ModeId(i), m))
    }

    /// The standby mode (deepest mode).
    #[must_use]
    pub fn standby(&self) -> ModeId {
        ModeId(self.modes.len() - 1)
    }

    /// The round-trip transition overhead `C_i = E_down(i) + E_up(i)`.
    #[must_use]
    pub fn transition_overhead(&self, mode: ModeId) -> Joules {
        let m = self.mode(mode);
        m.spin_down.energy + m.spin_up.energy
    }

    /// The Figure-2 energy line: energy for an idle gap of length `gap`
    /// spent entirely in `mode`, including round-trip transition overhead.
    #[must_use]
    pub fn energy_line(&self, mode: ModeId, gap: SimDuration) -> Joules {
        self.mode(mode).power * gap + self.transition_overhead(mode)
    }

    /// The lower envelope `LE(gap) = min_i E_i(gap)`: the minimum energy any
    /// power-management decision can achieve for an idle gap (what Oracle
    /// DPM consumes).
    ///
    /// Served from the precomputed segment table; bit-identical to
    /// [`lower_envelope_scan`](Self::lower_envelope_scan).
    #[must_use]
    #[inline]
    pub fn lower_envelope(&self, gap: SimDuration) -> Joules {
        self.pricing.lower_envelope(gap)
    }

    /// Reference implementation of [`lower_envelope`](Self::lower_envelope):
    /// scans every mode's energy line. Kept as the reference the
    /// pricing table's equivalence tests compare against.
    #[must_use]
    pub fn lower_envelope_scan(&self, gap: SimDuration) -> Joules {
        self.energy_line(self.oracle_mode_for_gap_scan(gap), gap)
    }

    /// The mode Oracle DPM selects for an idle gap: the feasible mode with
    /// minimal energy line. A mode is feasible if its round-trip transition
    /// time fits inside the gap; full speed is always feasible.
    ///
    /// Served from the precomputed segment table; identical to
    /// [`oracle_mode_for_gap_scan`](Self::oracle_mode_for_gap_scan).
    #[must_use]
    #[inline]
    pub fn oracle_mode_for_gap(&self, gap: SimDuration) -> ModeId {
        self.pricing.oracle_mode(gap)
    }

    /// Reference implementation of
    /// [`oracle_mode_for_gap`](Self::oracle_mode_for_gap): scans every
    /// mode's energy line, keeping the shallowest mode on ties.
    #[must_use]
    pub fn oracle_mode_for_gap_scan(&self, gap: SimDuration) -> ModeId {
        scan_oracle_mode(&self.modes, gap)
    }

    /// The Figure-4 savings line: energy saved versus staying at full-speed
    /// idle if a gap of length `gap` is spent in `mode`. May be negative
    /// for gaps shorter than the mode's break-even time.
    #[must_use]
    pub fn savings_line(&self, mode: ModeId, gap: SimDuration) -> Joules {
        self.energy_line(ModeId::FULL_SPEED, gap) - self.energy_line(mode, gap)
    }

    /// The Figure-4 upper envelope: the maximum energy a gap of length
    /// `gap` can save (never negative — staying at full speed saves 0).
    #[must_use]
    pub fn max_savings(&self, gap: SimDuration) -> Joules {
        self.energy_line(ModeId::FULL_SPEED, gap) - self.lower_envelope(gap)
    }

    /// The break-even time of a mode: the gap length at which going down to
    /// `mode` and back costs exactly as much as staying at full-speed idle.
    ///
    /// Returns [`SimDuration::ZERO`] for the full-speed mode and
    /// [`SimDuration::MAX`] if the mode never pays off (power not below
    /// idle power).
    #[must_use]
    pub fn break_even(&self, mode: ModeId) -> SimDuration {
        if mode.is_full_speed() {
            return SimDuration::ZERO;
        }
        let p0 = self.modes[0].power.as_watts();
        let pi = self.mode(mode).power.as_watts();
        if pi >= p0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64(self.transition_overhead(mode).as_joules() / (p0 - pi))
    }

    /// The Practical-DPM demotion ladder: the 2-competitive thresholds of
    /// Irani et al., i.e. the breakpoints of the lower envelope.
    ///
    /// The first step is always `(0, full-speed)`; subsequent steps have
    /// strictly increasing `at_idle`. Modes that never appear on the lower
    /// envelope are skipped.
    #[must_use]
    pub fn ladder(&self) -> &[LadderStep] {
        &self.ladder
    }

    /// The mode the Practical-DPM ladder rests in after `idle` cumulative
    /// idle time.
    #[must_use]
    pub fn practical_mode_at(&self, idle: SimDuration) -> ModeId {
        let mut mode = ModeId::FULL_SPEED;
        for step in &self.ladder {
            if step.at_idle <= idle {
                mode = step.mode;
            } else {
                break;
            }
        }
        mode
    }

    /// Analytic energy consumed by an idle gap of length `gap` under the
    /// Practical-DPM threshold ladder: per-mode residency, plus spin-down
    /// energy for each demotion taken, plus the final spin-up back to full
    /// speed.
    ///
    /// This is the `E_practical` used for OPG's eviction penalties when the
    /// underlying disks use Practical DPM. (The cycle-accurate state machine
    /// in `pc-disksim` additionally models transition *durations*.)
    ///
    /// Served from the precomputed segment table; bit-identical to
    /// [`practical_idle_energy_scan`](Self::practical_idle_energy_scan).
    #[must_use]
    #[inline]
    pub fn practical_idle_energy(&self, gap: SimDuration) -> Joules {
        self.pricing.practical_idle_energy(gap)
    }

    /// Reference implementation of
    /// [`practical_idle_energy`](Self::practical_idle_energy): walks the
    /// demotion ladder step by step. Kept as the reference the pricing
    /// table's equivalence tests compare against.
    #[must_use]
    pub fn practical_idle_energy_scan(&self, gap: SimDuration) -> Joules {
        let mut energy = Joules::ZERO;
        let mut prev_down = Joules::ZERO;
        let mut current = ModeId::FULL_SPEED;
        for (i, step) in self.ladder.iter().enumerate() {
            if step.at_idle >= gap {
                break;
            }
            let end = self
                .ladder
                .get(i + 1)
                .map_or(gap, |next| next.at_idle.min(gap));
            energy += self.mode(step.mode).power * (end - step.at_idle);
            if i > 0 {
                let down = self.mode(step.mode).spin_down.energy;
                energy += down - prev_down;
            }
            prev_down = self.mode(step.mode).spin_down.energy;
            current = step.mode;
        }
        energy + self.mode(current).spin_up.energy
    }
}

/// Computes the lower-envelope breakpoints (the demotion ladder) from the
/// mode lines, using the standard lower-envelope-of-lines sweep.
fn compute_ladder(modes: &[ModeSpec]) -> Vec<LadderStep> {
    // Lines in mode order: slopes strictly decrease for useful modes.
    // Keep only modes that improve on all shallower modes somewhere.
    let line = |i: usize| -> (f64, f64) {
        let c = modes[i].spin_down.energy + modes[i].spin_up.energy;
        (modes[i].power.as_watts(), c.as_joules())
    };
    // envelope entries: (start_time_secs, mode_index)
    let mut env: Vec<(f64, usize)> = vec![(0.0, 0)];
    for i in 1..modes.len() {
        let (pi, ci) = line(i);
        loop {
            let &(start, j) = env.last().expect("envelope never empty");
            let (pj, cj) = line(j);
            if pi >= pj {
                // Not lower-power than the current last line; can never win.
                break;
            }
            let cross = (ci - cj) / (pj - pi);
            if cross <= start && env.len() > 1 {
                env.pop();
                continue;
            }
            if cross <= start {
                // Replaces the very first line (shouldn't happen: line 0 has
                // zero intercept), guard anyway.
                env[0] = (0.0, i);
            } else {
                env.push((cross, i));
            }
            break;
        }
    }
    env.into_iter()
        .map(|(start, mode)| LadderStep {
            at_idle: SimDuration::from_secs_f64(start),
            mode: ModeId(mode),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::multi_speed(&DiskPowerSpec::ultrastar_36z15())
    }

    fn secs(d: SimDuration) -> f64 {
        d.as_secs_f64()
    }

    #[test]
    fn six_modes_with_expected_powers() {
        let m = model();
        assert_eq!(m.mode_count(), 6);
        let powers: Vec<f64> = m.modes().map(|(_, s)| s.power.as_watts()).collect();
        // Quadratic in RPM: 10.2, 7.428, 5.272, 3.732, 2.808, 2.5.
        let expected = [10.2, 7.428, 5.272, 3.732, 2.808, 2.5];
        for (p, e) in powers.iter().zip(expected) {
            assert!((p - e).abs() < 1e-9, "power {p} != {e}");
        }
        assert_eq!(m.mode(ModeId::new(0)).name, "idle");
        assert_eq!(m.mode(ModeId::new(1)).name, "nap1");
        assert_eq!(m.mode(m.standby()).name, "standby");
        assert_eq!(m.mode(m.standby()).rpm, 0);
    }

    #[test]
    fn transition_costs_scale_linearly() {
        let m = model();
        // NAP1 at 12000 RPM: 20% of the full transition.
        let nap1 = m.mode(ModeId::new(1));
        assert!((nap1.spin_up.energy.as_joules() - 27.0).abs() < 1e-9);
        assert!((nap1.spin_down.energy.as_joules() - 2.6).abs() < 1e-9);
        assert_eq!(nap1.spin_up.time, SimDuration::from_millis(2_180));
        // Standby: the full costs from Table 1.
        let sb = m.mode(m.standby());
        assert!((sb.spin_up.energy.as_joules() - 135.0).abs() < 1e-9);
        assert_eq!(sb.spin_up.time, SimDuration::from_millis(10_900));
    }

    #[test]
    fn ladder_matches_hand_computed_intersections() {
        let m = model();
        let ladder = m.ladder();
        assert_eq!(ladder.len(), 6, "all modes appear on the envelope");
        let expected = [0.0, 10.678, 13.729, 19.221, 32.034, 96.104];
        for (step, e) in ladder.iter().zip(expected) {
            assert!(
                (secs(step.at_idle) - e).abs() < 5e-3,
                "threshold {} != {e}",
                secs(step.at_idle)
            );
        }
        // Strictly increasing modes and thresholds.
        for w in ladder.windows(2) {
            assert!(w[0].at_idle < w[1].at_idle);
            assert!(w[0].mode < w[1].mode);
        }
    }

    #[test]
    fn break_even_of_nap1_matches_first_threshold() {
        let m = model();
        assert!((secs(m.break_even(ModeId::new(1))) - secs(m.ladder()[1].at_idle)).abs() < 1e-6);
        // Standby break-even: 148 J / 7.7 W ≈ 19.22 s.
        assert!((secs(m.break_even(m.standby())) - 148.0 / 7.7).abs() < 1e-3);
        assert_eq!(m.break_even(ModeId::FULL_SPEED), SimDuration::ZERO);
    }

    #[test]
    fn lower_envelope_is_minimum_of_lines() {
        let m = model();
        for s in [0u64, 1, 5, 11, 15, 25, 40, 100, 1000] {
            let gap = SimDuration::from_secs(s);
            let le = m.lower_envelope(gap);
            for (id, _) in m.modes() {
                assert!(
                    le.as_joules() <= m.energy_line(id, gap).as_joules() + 1e-9,
                    "envelope above line {id} at {s}s"
                );
            }
        }
    }

    #[test]
    fn envelope_is_subadditive() {
        // Concavity with LE(0)=0 implies LE(a+b) <= LE(a)+LE(b); OPG's
        // penalty non-negativity relies on this.
        let m = model();
        for a in [1u64, 7, 12, 30, 90, 200] {
            for b in [2u64, 9, 18, 50, 400] {
                let (da, db) = (SimDuration::from_secs(a), SimDuration::from_secs(b));
                assert!(
                    m.lower_envelope(da + db).as_joules()
                        <= m.lower_envelope(da).as_joules()
                            + m.lower_envelope(db).as_joules()
                            + 1e-9
                );
            }
        }
    }

    #[test]
    fn oracle_mode_progresses_with_gap_length() {
        let m = model();
        let mut last = 0;
        for s in [1u64, 12, 15, 25, 50, 200] {
            let mode = m.oracle_mode_for_gap(SimDuration::from_secs(s)).index();
            assert!(mode >= last, "oracle mode must be monotone in gap length");
            last = mode;
        }
        assert_eq!(last, m.standby().index());
        assert_eq!(
            m.oracle_mode_for_gap(SimDuration::from_secs(1)),
            ModeId::FULL_SPEED
        );
    }

    #[test]
    fn oracle_respects_transition_feasibility() {
        // Make spin-up so slow that standby cannot fit a 20 s gap.
        let spec = DiskPowerSpec::ultrastar_36z15().with_spin_up_time(SimDuration::from_secs(100));
        let m = PowerModel::multi_speed(&spec);
        let chosen = m.oracle_mode_for_gap(SimDuration::from_secs(20));
        let ms = m.mode(chosen);
        assert!(ms.spin_down.time + ms.spin_up.time <= SimDuration::from_secs(20));
    }

    #[test]
    fn practical_mode_follows_ladder() {
        let m = model();
        assert_eq!(
            m.practical_mode_at(SimDuration::from_secs(5)),
            ModeId::FULL_SPEED
        );
        assert_eq!(m.practical_mode_at(SimDuration::from_secs(11)).index(), 1);
        assert_eq!(m.practical_mode_at(SimDuration::from_secs(14)).index(), 2);
        assert_eq!(m.practical_mode_at(SimDuration::from_secs(20)).index(), 3);
        assert_eq!(m.practical_mode_at(SimDuration::from_secs(33)).index(), 4);
        assert_eq!(
            m.practical_mode_at(SimDuration::from_secs(100)),
            m.standby()
        );
    }

    #[test]
    fn practical_energy_short_gap_is_pure_idle() {
        let m = model();
        let gap = SimDuration::from_secs(5);
        // No demotion before 10.68 s: energy = idle power * gap (+ zero
        // spin-up from full speed).
        let e = m.practical_idle_energy(gap);
        assert!((e.as_joules() - 10.2 * 5.0).abs() < 1e-9);
    }

    #[test]
    fn practical_energy_matches_manual_two_segment_sum() {
        let m = model();
        let t1 = m.ladder()[1].at_idle;
        let gap = t1 + SimDuration::from_secs(1);
        // idle segment + 1 s of NAP1 + spin-down delta + spin-up from NAP1.
        let manual = 10.2 * t1.as_secs_f64() + 7.428 + 2.6 + 27.0;
        assert!((m.practical_idle_energy(gap).as_joules() - manual).abs() < 1e-6);
    }

    #[test]
    fn practical_is_between_oracle_and_twice_oracle() {
        let m = model();
        for s in [1u64, 5, 11, 14, 20, 35, 100, 500, 5_000] {
            let gap = SimDuration::from_secs(s);
            let oracle = m.lower_envelope(gap).as_joules();
            let practical = m.practical_idle_energy(gap).as_joules();
            assert!(practical >= oracle - 1e-9, "practical below oracle at {s}s");
            assert!(
                practical <= 2.0 * oracle + 1e-9,
                "practical not 2-competitive at {s}s: {practical} vs {oracle}"
            );
        }
    }

    #[test]
    fn two_mode_model_has_single_threshold() {
        let m = PowerModel::two_mode(&DiskPowerSpec::ultrastar_36z15());
        assert_eq!(m.mode_count(), 2);
        assert_eq!(m.ladder().len(), 2);
        // Break-even: 148 J / 7.7 W.
        assert!((secs(m.ladder()[1].at_idle) - 148.0 / 7.7).abs() < 1e-3);
    }

    #[test]
    fn savings_envelope_never_negative_and_superlinear() {
        let m = model();
        let mut last_ratio = 0.0;
        for s in [1u64, 5, 11, 20, 40, 100, 400] {
            let gap = SimDuration::from_secs(s);
            let save = m.max_savings(gap).as_joules();
            assert!(save >= -1e-9);
            let ratio = save / s as f64;
            assert!(
                ratio >= last_ratio - 1e-9,
                "savings per second should not decrease with gap length"
            );
            last_ratio = ratio;
        }
    }

    #[test]
    fn figure8_spinup_sweep_shifts_thresholds() {
        // Higher spin-up cost => higher break-even => later demotion.
        let cheap = PowerModel::multi_speed(
            &DiskPowerSpec::ultrastar_36z15().with_spin_up_energy(Joules::new(33.75)),
        );
        let pricey = PowerModel::multi_speed(
            &DiskPowerSpec::ultrastar_36z15().with_spin_up_energy(Joules::new(675.0)),
        );
        assert!(cheap.ladder()[1].at_idle < pricey.ladder()[1].at_idle);
    }
}
