//! The online-policy table: every on-line replacement policy, named,
//! parsed and built in one place.
//!
//! The simulator's `PolicySpec`, the meta-policy's candidate family and
//! the server's `--policy` parser all go through [`OnlinePolicy`], so
//! the policy a name means cannot drift between them.

use crate::policy::{ArcPolicy, Fifo, Lirs, Lru, Mq, Pa, PaLru, PaLruConfig, TwoQ};
use crate::ReplacementPolicy;

/// One of the 11 on-line replacement policies: six base policies and
/// their five power-aware (PA) variants (paper §4).
///
/// # Examples
///
/// ```
/// use pc_cache::policy::{OnlinePolicy, PaLruConfig};
///
/// let p = OnlinePolicy::from_name("pa-arc").unwrap();
/// assert!(p.is_power_aware());
/// assert_eq!(p.build(1024, &PaLruConfig::default()).name(), "pa-arc");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlinePolicy {
    /// Least-recently-used (the paper's baseline).
    Lru,
    /// First-in-first-out.
    Fifo,
    /// ARC (Megiddo & Modha).
    Arc,
    /// The Multi-Queue policy (Zhou, Philbin & Li).
    Mq,
    /// LIRS (Jiang & Zhang).
    Lirs,
    /// 2Q (Johnson & Shasha).
    TwoQ,
    /// The paper's power-aware LRU ([`PaLru`]).
    PaLru,
    /// The generic PA wrapper around ARC.
    PaArc,
    /// The generic PA wrapper around MQ.
    PaMq,
    /// The generic PA wrapper around LIRS.
    PaLirs,
    /// The generic PA wrapper around 2Q.
    PaTwoQ,
}

impl OnlinePolicy {
    /// Every on-line policy, in the meta-policy's fixed score order
    /// (ties break toward the lower index).
    pub const ALL: [Self; 11] = [
        Self::Lru,
        Self::Fifo,
        Self::Arc,
        Self::Mq,
        Self::Lirs,
        Self::TwoQ,
        Self::PaLru,
        Self::PaArc,
        Self::PaMq,
        Self::PaLirs,
        Self::PaTwoQ,
    ];

    /// The canonical name, as the built policy reports it and as
    /// `--policy` accepts it.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Lru => "lru",
            Self::Fifo => "fifo",
            Self::Arc => "arc",
            Self::Mq => "mq",
            Self::Lirs => "lirs",
            Self::TwoQ => "2q",
            Self::PaLru => "pa-lru",
            Self::PaArc => "pa-arc",
            Self::PaMq => "pa-mq",
            Self::PaLirs => "pa-lirs",
            Self::PaTwoQ => "pa-2q",
        }
    }

    /// Parses a canonical name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether the policy runs the PA classifier (and so reads a
    /// [`PaLruConfig`]).
    #[must_use]
    pub const fn is_power_aware(self) -> bool {
        matches!(
            self,
            Self::PaLru | Self::PaArc | Self::PaMq | Self::PaLirs | Self::PaTwoQ
        )
    }

    /// Builds a fresh instance for a cache of `capacity` blocks; the PA
    /// variants classify with `pa`, the others ignore it.
    ///
    /// `pa-lru` is the concrete [`PaLru`], which re-homes a block on
    /// every hit; the other PA variants are the generic [`Pa`] wrapper,
    /// which keeps a block in its insertion-time class.
    #[must_use]
    pub fn build(self, capacity: usize, pa: &PaLruConfig) -> Box<dyn ReplacementPolicy> {
        // ARC/MQ/LIRS/2Q size their ghosts against the capacity; clamp
        // the infinite-cache sentinel to something arithmetic-safe
        // (ghosts are irrelevant without evictions).
        let sized = capacity.min(1 << 30);
        match self {
            Self::Lru => Box::new(Lru::new()),
            Self::Fifo => Box::new(Fifo::new()),
            Self::Arc => Box::new(ArcPolicy::new(sized)),
            Self::Mq => Box::new(Mq::new(sized)),
            Self::Lirs => Box::new(Lirs::new(sized)),
            Self::TwoQ => Box::new(TwoQ::new(sized)),
            Self::PaLru => Box::new(PaLru::new(pa.clone())),
            Self::PaArc => Box::new(Pa::new(
                pa.clone(),
                ArcPolicy::new(sized),
                ArcPolicy::new(sized),
            )),
            Self::PaMq => Box::new(Pa::new(pa.clone(), Mq::new(sized), Mq::new(sized))),
            Self::PaLirs => Box::new(Pa::new(pa.clone(), Lirs::new(sized), Lirs::new(sized))),
            Self::PaTwoQ => Box::new(Pa::new(pa.clone(), TwoQ::new(sized), TwoQ::new(sized))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_round_trips_and_builds_under_its_name() {
        for p in OnlinePolicy::ALL {
            assert_eq!(OnlinePolicy::from_name(p.name()), Some(p));
            assert_eq!(p.is_power_aware(), p.name().starts_with("pa-"));
            // usize::MAX is the infinite-cache sentinel `build` clamps.
            for capacity in [64, usize::MAX] {
                let built = p.build(capacity, &PaLruConfig::default());
                assert_eq!(built.name(), p.name());
            }
        }
        assert_eq!(OnlinePolicy::from_name("meta"), None);
        assert_eq!(OnlinePolicy::from_name("belady"), None);
    }
}
