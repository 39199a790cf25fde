//! Simulation configuration and policy construction.

use pc_cache::policy::{Belady, MetaConfig, MetaPolicy, OnlinePolicy, Opg, OpgDpm, PaLruConfig};
use pc_cache::{ReplacementPolicy, WritePolicy};
use pc_diskmodel::{DiskPowerSpec, PowerModel, ServiceModel};
use pc_disksim::DpmPolicy;
use pc_trace::Trace;
use pc_units::Joules;

/// Which replacement policy to run (constructed per trace, since the
/// off-line policies need the future).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// One of the on-line policies in the [`OnlinePolicy`] table, with an
    /// optional PA override (ablations, scaled epochs). `None` runs the
    /// paper's PA settings for the configured power model; policies that
    /// are not power-aware ignore the override.
    Online(OnlinePolicy, Option<PaLruConfig>),
    /// Belady's off-line MIN.
    Belady,
    /// The off-line power-aware greedy algorithm, priced against the
    /// configured DPM with rounding threshold ε.
    Opg {
        /// Penalty rounding threshold (0 = pure OPG, huge = Belady).
        epsilon: Joules,
    },
    /// The adaptive meta-policy: epoch-based online selection among the
    /// 11 online policies (hit ratio, cold-miss fraction and miss-gap
    /// distribution drive an AWRP-style weight ranking).
    Meta,
}

#[allow(non_upper_case_globals)]
impl PolicySpec {
    /// Least-recently-used (the paper's baseline).
    pub const Lru: PolicySpec = PolicySpec::Online(OnlinePolicy::Lru, None);
    /// The on-line power-aware LRU with the paper's parameters.
    pub const PaLru: PolicySpec = PolicySpec::Online(OnlinePolicy::PaLru, None);
}

impl PolicySpec {
    /// Parses an on-line policy name: any [`OnlinePolicy`] name, with the
    /// paper's PA settings, or `meta`.
    #[must_use]
    pub fn online(name: &str) -> Option<PolicySpec> {
        if name == "meta" {
            return Some(PolicySpec::Meta);
        }
        OnlinePolicy::from_name(name).map(|p| PolicySpec::Online(p, None))
    }

    /// Every name [`PolicySpec::online`] accepts, space-separated: the
    /// table's 11, then `meta`.
    #[must_use]
    pub fn online_names() -> String {
        let mut names = OnlinePolicy::ALL.map(OnlinePolicy::name).to_vec();
        names.push("meta");
        names.join(" ")
    }

    /// Whether [`PolicySpec::build`] consumes the trace's future
    /// (off-line policies: Belady and OPG). Streaming entry points like
    /// [`run_replacement_stream`](crate::run_replacement_stream) only
    /// work for policies that don't — callers check this to pick between
    /// streaming and materializing.
    #[must_use]
    pub fn needs_future(&self) -> bool {
        matches!(self, PolicySpec::Belady | PolicySpec::Opg { .. })
    }

    /// A short display name.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            PolicySpec::Online(p, _) => p.name().into(),
            PolicySpec::Belady => "belady".into(),
            PolicySpec::Opg { epsilon } => format!("opg(eps={})", epsilon.as_joules()),
            PolicySpec::Meta => "meta".into(),
        }
    }

    /// The PA parameters an on-line policy runs with under `power`: the
    /// override if there is one, else the paper's settings (T = the
    /// first NAP mode's break-even time). The one place a `None`
    /// override is resolved.
    fn pa_config(&self, power: &PowerModel) -> PaLruConfig {
        match self {
            PolicySpec::Online(_, Some(pa)) => pa.clone(),
            _ => PaLruConfig::for_power_model(power),
        }
    }

    /// Builds the policy instance for a trace, power model and cache
    /// capacity.
    #[must_use]
    pub fn build(
        &self,
        trace: &Trace,
        power: &PowerModel,
        dpm: DpmPolicy,
        capacity: usize,
    ) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicySpec::Online(p, _) => p.build(capacity, &self.pa_config(power)),
            PolicySpec::Belady => Box::new(Belady::new(trace)),
            PolicySpec::Opg { epsilon } => {
                let pricing = match dpm {
                    DpmPolicy::Oracle => OpgDpm::Oracle,
                    _ => OpgDpm::Practical,
                };
                Box::new(Opg::new(trace, power.clone(), pricing, *epsilon))
            }
            PolicySpec::Meta => Box::new(MetaPolicy::new(MetaConfig::new(
                capacity,
                self.pa_config(power),
            ))),
        }
    }
}

/// Full simulator configuration.
///
/// Defaults follow the paper's §5.1 setup: IBM Ultrastar 36Z15 with the
/// 6-mode multi-speed extension, Practical DPM, write-back caching, and a
/// 4096-block (32 MB at 8 KiB) storage cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cache capacity in blocks (`usize::MAX` = the paper's
    /// infinite-cache lower bound).
    pub cache_blocks: usize,
    /// Disk data-sheet parameters.
    pub power_spec: DiskPowerSpec,
    /// Use the 6-mode multi-speed model (false = classic 2-mode).
    pub multi_speed: bool,
    /// Disk power management below the cache.
    pub dpm: DpmPolicy,
    /// Cache write policy.
    pub write_policy: WritePolicy,
    /// Mechanical timing model.
    pub service: ServiceModel,
    /// Sequential read-ahead depth (0 = disabled; on-line policies only).
    pub prefetch_depth: u64,
    /// Carrera-style serve-at-speed disks (multi-speed option 1; the
    /// paper uses option 2, serve at full speed only).
    pub serve_at_speed: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cache_blocks: 4_096,
            power_spec: DiskPowerSpec::ultrastar_36z15(),
            multi_speed: true,
            dpm: DpmPolicy::Practical,
            write_policy: WritePolicy::WriteBack,
            service: ServiceModel::ultrastar_36z15(),
            prefetch_depth: 0,
            serve_at_speed: false,
        }
    }
}

impl SimConfig {
    /// Sets the cache capacity in blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    #[must_use]
    pub fn with_cache_blocks(mut self, blocks: usize) -> Self {
        assert!(blocks > 0, "cache needs at least one block");
        self.cache_blocks = blocks;
        self
    }

    /// Switches to the infinite-cache baseline.
    #[must_use]
    pub fn with_infinite_cache(mut self) -> Self {
        self.cache_blocks = usize::MAX;
        self
    }

    /// Sets the disk power-management scheme.
    #[must_use]
    pub fn with_dpm(mut self, dpm: DpmPolicy) -> Self {
        self.dpm = dpm;
        self
    }

    /// Sets the write policy.
    #[must_use]
    pub fn with_write_policy(mut self, wp: WritePolicy) -> Self {
        self.write_policy = wp;
        self
    }

    /// Replaces the disk spec (e.g. the Figure-8 spin-up-cost sweep).
    #[must_use]
    pub fn with_power_spec(mut self, spec: DiskPowerSpec) -> Self {
        self.power_spec = spec;
        self
    }

    /// Selects the 2-mode model instead of multi-speed (ablations).
    #[must_use]
    pub fn with_two_mode_disks(mut self) -> Self {
        self.multi_speed = false;
        self
    }

    /// Enables sequential read-ahead of `depth` blocks behind every read
    /// miss (on-line replacement policies only).
    #[must_use]
    pub fn with_prefetch_depth(mut self, depth: u64) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Switches the disks to Carrera-style serve-at-speed operation
    /// (multi-speed option 1; requires a causal DPM).
    #[must_use]
    pub fn with_serve_at_speed(mut self) -> Self {
        self.serve_at_speed = true;
        self
    }

    /// The derived power model.
    #[must_use]
    pub fn power_model(&self) -> PowerModel {
        if self.multi_speed {
            PowerModel::multi_speed(&self.power_spec)
        } else {
            PowerModel::two_mode(&self.power_spec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_trace::OltpConfig;

    #[test]
    fn builders_compose() {
        let c = SimConfig::default()
            .with_cache_blocks(128)
            .with_dpm(DpmPolicy::Oracle)
            .with_write_policy(WritePolicy::WriteThrough)
            .with_two_mode_disks();
        assert_eq!(c.cache_blocks, 128);
        assert_eq!(c.dpm, DpmPolicy::Oracle);
        assert_eq!(c.power_model().mode_count(), 2);
        let inf = c.with_infinite_cache();
        assert_eq!(inf.cache_blocks, usize::MAX);
    }

    #[test]
    fn policy_specs_build() {
        let trace = OltpConfig::default().with_requests(100).generate(0);
        let config = SimConfig::default();
        let power = config.power_model();
        let others = [
            PolicySpec::Belady,
            PolicySpec::Opg {
                epsilon: Joules::ZERO,
            },
            PolicySpec::Meta,
        ];
        let online = OnlinePolicy::ALL.map(|p| PolicySpec::Online(p, None));
        for spec in others.into_iter().chain(online) {
            let p = spec.build(&trace, &power, DpmPolicy::Practical, 1024);
            assert!(!p.name().is_empty());
            assert!(!spec.name().is_empty());
        }
        assert_eq!(PolicySpec::online("pa-lru"), Some(PolicySpec::PaLru));
    }

    #[test]
    fn power_aware_policies_take_their_threshold_from_the_power_model() {
        // T is the first NAP mode's break-even time (10.678 s for the
        // default multi-speed Ultrastar), never the placeholder default.
        for config in [
            SimConfig::default(),
            SimConfig::default().with_two_mode_disks(),
        ] {
            let power = config.power_model();
            let want = power.break_even(pc_diskmodel::ModeId::new(1));
            assert_ne!(want, PaLruConfig::default().interval_threshold);
            let pa_names = OnlinePolicy::ALL
                .into_iter()
                .filter(|p| p.is_power_aware())
                .map(OnlinePolicy::name);
            for name in pa_names.chain(["meta"]) {
                let spec = PolicySpec::online(name).unwrap();
                assert_eq!(spec.pa_config(&power).interval_threshold, want, "{name}");
            }
        }
    }

    #[test]
    fn opg_pricing_follows_dpm() {
        let trace = OltpConfig::default().with_requests(50).generate(0);
        let config = SimConfig::default();
        let power = config.power_model();
        let spec = PolicySpec::Opg {
            epsilon: Joules::ZERO,
        };
        let oracle = spec.build(&trace, &power, DpmPolicy::Oracle, 1024);
        let practical = spec.build(&trace, &power, DpmPolicy::Practical, 1024);
        assert!(oracle.name().contains("oracle"));
        assert!(practical.name().contains("practical"));
    }
}
