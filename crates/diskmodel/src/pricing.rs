//! Precomputed idle-energy pricing tables.
//!
//! [`lower_envelope`](crate::PowerModel::lower_envelope) and
//! [`practical_idle_energy`](crate::PowerModel::practical_idle_energy) are
//! both piecewise-linear in the gap length: the envelope is a minimum of
//! per-mode energy lines (with feasibility cut-ins), and the practical
//! ladder energy is linear between consecutive demotion thresholds. OPG
//! prices every eviction candidate through these functions — up to three
//! calls per re-priced block — so the scan over modes / ladder steps is
//! replaced by an [`IdleEnergyTable`]: segment boundaries in integer
//! microseconds plus per-segment `(slope, intercept)` coefficients, making
//! a pricing call one tiny ordered lookup and one multiply-add.
//!
//! The table is **exact**, not approximate: segment coefficients are the
//! very `Watts`/`Joules` values the scan would combine, applied in the
//! same order of floating-point operations, and segment boundaries are
//! chosen so the winning mode is constant on every segment (candidate
//! boundaries bracket each pairwise line crossing and each feasibility
//! cut-in, and the winner is re-derived with the reference scan at each
//! candidate). The scan implementations stay available as
//! `*_scan` methods: the reference the equivalence tests compare against.

use pc_units::{Joules, SimDuration, Watts};

use crate::model::{LadderStep, ModeId, ModeSpec};

/// Precomputed piecewise-linear pricing for one [`PowerModel`]
/// (`crate::PowerModel`): the Figure-2 lower envelope and the
/// Practical-DPM ladder energy, each as segment tables over gap length.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IdleEnergyTable {
    /// First gap (µs, inclusive) priced by each envelope segment;
    /// `env_start[0] == 0`.
    env_start: Vec<u64>,
    /// Winning mode per envelope segment (what Oracle DPM selects).
    env_mode: Vec<ModeId>,
    /// Energy-line slope per envelope segment.
    env_power: Vec<Watts>,
    /// Energy-line intercept `C_i = E_down + E_up` per envelope segment.
    env_overhead: Vec<Joules>,
    /// Ladder segment k prices gaps in `(prac_start[k], prac_start[k+1]]`.
    prac_start: Vec<u64>,
    /// Resting power of the ladder segment's mode.
    prac_power: Vec<Watts>,
    /// Energy accumulated by all fully-traversed earlier segments.
    prac_base: Vec<Joules>,
    /// Spin-down delta paid on entering this segment's mode (zero for the
    /// full-speed segment).
    prac_ddown: Vec<Joules>,
    /// Spin-up back to full speed from this segment's mode.
    prac_up: Vec<Joules>,
    /// `practical_idle_energy(0)`: the (zero) spin-up from full speed.
    prac_zero: Joules,
}

/// The per-mode Figure-2 energy line `(P_i, C_i)`.
fn line(modes: &[ModeSpec], i: usize) -> (Watts, Joules) {
    (
        modes[i].power,
        modes[i].spin_down.energy + modes[i].spin_up.energy,
    )
}

/// The reference argmin: the feasible mode with minimal energy line at
/// `gap`, exactly as the pre-table scan chose it (strict `<`, so ties keep
/// the shallower mode).
pub(crate) fn scan_oracle_mode(modes: &[ModeSpec], gap: SimDuration) -> ModeId {
    let mut best = 0usize;
    let (p0, c0) = line(modes, 0);
    let mut best_energy = p0 * gap + c0;
    for (i, m) in modes.iter().enumerate().skip(1) {
        if m.spin_down.time + m.spin_up.time > gap {
            continue;
        }
        let (p, c) = line(modes, i);
        let e = p * gap + c;
        if e < best_energy {
            best = i;
            best_energy = e;
        }
    }
    ModeId::new(best)
}

impl IdleEnergyTable {
    /// Builds both segment tables from the mode list and demotion ladder.
    pub(crate) fn build(modes: &[ModeSpec], ladder: &[LadderStep]) -> Self {
        let (env_start, env_mode) = envelope_segments(modes);
        let env_power = env_mode.iter().map(|&m| line(modes, m.index()).0).collect();
        let env_overhead = env_mode.iter().map(|&m| line(modes, m.index()).1).collect();

        // Replay the practical-energy scan, snapshotting the accumulator
        // at each ladder step so a query resumes mid-scan in O(1). The
        // accumulation order (residency, then spin-down delta) matches the
        // scan exactly, so resumed sums are bit-identical.
        let mut prac_start = Vec::with_capacity(ladder.len());
        let mut prac_power = Vec::with_capacity(ladder.len());
        let mut prac_base = Vec::with_capacity(ladder.len());
        let mut prac_ddown = Vec::with_capacity(ladder.len());
        let mut prac_up = Vec::with_capacity(ladder.len());
        let mut energy = Joules::ZERO;
        let mut prev_down = Joules::ZERO;
        for (i, step) in ladder.iter().enumerate() {
            let mode = &modes[step.mode.index()];
            prac_start.push(step.at_idle.as_micros());
            prac_power.push(mode.power);
            prac_base.push(energy);
            prac_ddown.push(if i > 0 {
                mode.spin_down.energy - prev_down
            } else {
                Joules::ZERO
            });
            prac_up.push(mode.spin_up.energy);
            if let Some(next) = ladder.get(i + 1) {
                energy += mode.power * (next.at_idle - step.at_idle);
                if i > 0 {
                    energy += mode.spin_down.energy - prev_down;
                }
            }
            prev_down = mode.spin_down.energy;
        }
        let prac_zero = Joules::ZERO + modes[ladder[0].mode.index()].spin_up.energy;
        IdleEnergyTable {
            env_start,
            env_mode,
            env_power,
            env_overhead,
            prac_start,
            prac_power,
            prac_base,
            prac_ddown,
            prac_up,
            prac_zero,
        }
    }

    /// Index of the envelope segment pricing `gap`.
    #[inline]
    fn env_segment(&self, gap: SimDuration) -> usize {
        // OPG's query distribution is short-gap-heavy, and short gaps all
        // land in segment 0: answer them with one compare, then find the
        // segment by binary search (env_start[0] = 0, so the partition
        // point is always >= 1).
        let g = gap.as_micros();
        match self.env_start.get(1) {
            Some(&s1) if g >= s1 => self.env_start.partition_point(|&s| s <= g) - 1,
            _ => 0,
        }
    }

    /// The mode Oracle DPM selects for `gap` (table form).
    #[inline]
    pub(crate) fn oracle_mode(&self, gap: SimDuration) -> ModeId {
        self.env_mode[self.env_segment(gap)]
    }

    /// The lower envelope `LE(gap)` (table form).
    #[inline]
    pub(crate) fn lower_envelope(&self, gap: SimDuration) -> Joules {
        let k = self.env_segment(gap);
        self.env_power[k] * gap + self.env_overhead[k]
    }

    /// The Practical-DPM ladder energy for `gap` (table form).
    #[inline]
    pub(crate) fn practical_idle_energy(&self, gap: SimDuration) -> Joules {
        let g = gap.as_micros();
        if g == 0 {
            return self.prac_zero;
        }
        // Same short-gap fast path as `env_segment`: k is the last segment
        // with prac_start[k] < g (prac_start[0] = 0 < g here, so the
        // partition point is always >= 1).
        let k = match self.prac_start.get(1) {
            Some(&s1) if g > s1 => self.prac_start.partition_point(|&s| s < g) - 1,
            _ => 0,
        };
        let rest = SimDuration::from_micros(g - self.prac_start[k]);
        let mut energy = self.prac_base[k];
        energy += self.prac_power[k] * rest;
        if k > 0 {
            energy += self.prac_ddown[k];
        }
        energy + self.prac_up[k]
    }
}

/// Computes the envelope segment boundaries: every integer-µs gap in
/// `[env_start[k], env_start[k+1])` is won by `env_mode[k]`.
fn envelope_segments(modes: &[ModeSpec]) -> (Vec<u64>, Vec<ModeId>) {
    // Candidate boundaries: feasibility cut-ins (exact, in µs) and a ±2 µs
    // bracket around every pairwise line crossing (crossings are computed
    // in f64, so the bracket absorbs rounding of the true crossing point).
    let mut cand: Vec<u64> = vec![0];
    for m in modes.iter().skip(1) {
        cand.push((m.spin_down.time + m.spin_up.time).as_micros());
    }
    for i in 0..modes.len() {
        for j in i + 1..modes.len() {
            let (pi, ci) = line(modes, i);
            let (pj, cj) = line(modes, j);
            if pi.as_watts() == pj.as_watts() {
                continue;
            }
            let cross_secs = (cj.as_joules() - ci.as_joules()) / (pi.as_watts() - pj.as_watts());
            let cross_micros = cross_secs * 1e6;
            if cross_micros.is_nan() || cross_micros <= 0.0 || cross_micros >= u64::MAX as f64 {
                continue;
            }
            let m = cross_micros.floor() as u64;
            for c in m.saturating_sub(2)..=m.saturating_add(2) {
                cand.push(c);
            }
        }
    }
    cand.sort_unstable();
    cand.dedup();
    // The winner is constant between consecutive candidates; evaluate it
    // with the reference scan at each left endpoint and merge runs.
    let mut starts = Vec::new();
    let mut winners: Vec<ModeId> = Vec::new();
    for &c in &cand {
        let w = scan_oracle_mode(modes, SimDuration::from_micros(c));
        if winners.last() != Some(&w) {
            starts.push(c);
            winners.push(w);
        }
    }
    (starts, winners)
}

#[cfg(test)]
mod tests {
    use pc_units::{Joules, SimDuration};

    use crate::{DiskPowerSpec, PowerModel};

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn models() -> Vec<(&'static str, PowerModel)> {
        let spec = || DiskPowerSpec::ultrastar_36z15();
        vec![
            ("multi_speed", PowerModel::multi_speed(&spec())),
            ("two_mode", PowerModel::two_mode(&spec())),
            (
                "slow_spin_up",
                PowerModel::multi_speed(&spec().with_spin_up_time(SimDuration::from_secs(100))),
            ),
            (
                "pricey_spin_up",
                PowerModel::multi_speed(&spec().with_spin_up_energy(Joules::new(675.0))),
            ),
            (
                "cheap_spin_up",
                PowerModel::multi_speed(&spec().with_spin_up_energy(Joules::new(33.75))),
            ),
        ]
    }

    /// Every segment boundary ±3 µs, for both tables.
    fn boundary_gaps(m: &PowerModel) -> Vec<u64> {
        let mut gaps = vec![0u64];
        for &b in m
            .pricing
            .env_start
            .iter()
            .chain(m.pricing.prac_start.iter())
        {
            for g in b.saturating_sub(3)..=b.saturating_add(3) {
                gaps.push(g);
            }
        }
        gaps
    }

    #[test]
    fn table_matches_scan_at_segment_boundaries() {
        for (name, m) in models() {
            for g in boundary_gaps(&m) {
                let gap = SimDuration::from_micros(g);
                assert_eq!(
                    m.oracle_mode_for_gap(gap),
                    m.oracle_mode_for_gap_scan(gap),
                    "{name}: oracle mode at {g} µs"
                );
                assert_eq!(
                    m.lower_envelope(gap).as_joules().to_bits(),
                    m.lower_envelope_scan(gap).as_joules().to_bits(),
                    "{name}: envelope at {g} µs"
                );
                assert_eq!(
                    m.practical_idle_energy(gap).as_joules().to_bits(),
                    m.practical_idle_energy_scan(gap).as_joules().to_bits(),
                    "{name}: practical at {g} µs"
                );
            }
        }
    }

    #[test]
    fn table_matches_scan_on_random_gaps() {
        let mut state = 0x5eed_cafe_f00d_u64;
        for (name, m) in models() {
            for _ in 0..20_000 {
                // Mix short gaps (µs scale, the common OPG case) with gaps
                // out past the deepest threshold (~96 s).
                let r = splitmix64(&mut state);
                let g = if r & 1 == 0 {
                    r % 2_000_000
                } else {
                    r % 400_000_000
                };
                let gap = SimDuration::from_micros(g);
                assert_eq!(
                    m.oracle_mode_for_gap(gap),
                    m.oracle_mode_for_gap_scan(gap),
                    "{name}: oracle mode at {g} µs"
                );
                assert_eq!(
                    m.lower_envelope(gap).as_joules().to_bits(),
                    m.lower_envelope_scan(gap).as_joules().to_bits(),
                    "{name}: envelope at {g} µs"
                );
                assert_eq!(
                    m.practical_idle_energy(gap).as_joules().to_bits(),
                    m.practical_idle_energy_scan(gap).as_joules().to_bits(),
                    "{name}: practical at {g} µs"
                );
            }
        }
    }
}
