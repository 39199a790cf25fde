//! Shared experiment parameters.

use std::sync::OnceLock;

use pc_cache::policy::{OnlinePolicy, PaLruConfig};
use pc_diskmodel::PowerModel;
use pc_sim::{PolicySpec, SimConfig, SimReport};
use pc_trace::{CelloConfig, OltpConfig, Trace};
use pc_tracefile::MappedTrace;
use pc_units::SimDuration;

/// Which of the paper's two real-system workloads to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The TPC-C / Microsoft SQL Server trace (21 disks, 22% writes).
    Oltp,
    /// HP's Cello96 file-server trace (19 disks, 38% writes).
    Cello,
}

impl TraceKind {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Oltp => "oltp",
            TraceKind::Cello => "cello96",
        }
    }
}

/// Global experiment parameters: a scale factor on trace lengths, the
/// RNG seed, and the sweep worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Multiplier on every experiment's default request count. 1.0 =
    /// paper-comparable runs (minutes); small values = smoke tests.
    pub scale: f64,
    /// Seed for all trace generation.
    pub seed: u64,
    /// Worker threads for parameter sweeps (see [`crate::sweep`]);
    /// 0 = one per available core. Results are identical for any value.
    pub jobs: usize,
    /// File-backed workload override: when set, [`trace`](Self::trace)
    /// reads this binary `.pct` file (see [`crate::traceio`] and
    /// `pc-server --capture`) instead of generating the requested
    /// family, so any experiment can replay a captured or exported
    /// stream. `scale` and `seed` do not apply to a file-backed trace.
    pub trace_file: Option<std::path::PathBuf>,
}

impl Params {
    /// Paper-comparable scale.
    #[must_use]
    pub fn paper() -> Self {
        Params {
            scale: 1.0,
            seed: 42,
            jobs: 0,
            trace_file: None,
        }
    }

    /// A fast, CI-friendly scale (a few percent of the paper's lengths;
    /// shapes still hold, bars are noisier).
    #[must_use]
    pub fn quick() -> Self {
        Params {
            scale: 0.05,
            seed: 42,
            jobs: 0,
            trace_file: None,
        }
    }

    /// Sets the sweep worker count (0 = one per available core).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Replays a binary `.pct` trace file in place of every generated
    /// workload (see [`Self::trace_file`]).
    #[must_use]
    pub fn with_trace_file(mut self, path: std::path::PathBuf) -> Self {
        self.trace_file = Some(path);
        self
    }

    /// The effective sweep worker count: `jobs`, or the machine's
    /// available parallelism when `jobs` is 0.
    #[must_use]
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }

    /// Scales a default request count, with a floor to keep toy runs
    /// meaningful.
    #[must_use]
    pub fn requests(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(500)
    }

    /// The OLTP-like trace at this scale.
    #[must_use]
    pub fn oltp_trace(&self) -> Trace {
        OltpConfig::default()
            .with_requests(self.requests(72_000))
            .generate(self.seed)
    }

    /// The Cello-like trace at this scale. The base length (400 000
    /// requests ≈ 37 minutes) spans multiple PA-LRU epochs.
    #[must_use]
    pub fn cello_trace(&self) -> Trace {
        CelloConfig::default()
            .with_requests(self.requests(400_000))
            .generate(self.seed)
    }

    /// The trace for a [`TraceKind`] — or the contents of
    /// [`trace_file`](Self::trace_file) regardless of `kind` when the
    /// file override is set.
    ///
    /// # Panics
    ///
    /// Panics when the override file cannot be read or fails format/CRC
    /// validation: a corrupt input must stop the experiment, not shape
    /// its results.
    #[must_use]
    pub fn trace(&self, kind: TraceKind) -> Trace {
        if let Some(path) = &self.trace_file {
            return pc_tracefile::read_trace(path)
                .unwrap_or_else(|e| panic!("trace file {}: {e}", path.display()));
        }
        match kind {
            TraceKind::Oltp => self.oltp_trace(),
            TraceKind::Cello => self.cello_trace(),
        }
    }

    /// The trace for a [`TraceKind`] as a [`TraceSource`]: generated
    /// workloads materialize as before, but a time-sorted
    /// [`trace_file`](Self::trace_file) override memory-maps instead —
    /// on-line policies then stream straight off the map with O(1)
    /// steady-state memory and no upfront sort. An unsorted override
    /// (e.g. a raw multi-connection capture) is materialized and sorted
    /// up front from the same map.
    ///
    /// # Panics
    ///
    /// Panics when the override file cannot be read or fails format/CRC
    /// validation, like [`trace`](Self::trace).
    #[must_use]
    pub fn trace_source(&self, kind: TraceKind) -> TraceSource {
        let Some(path) = &self.trace_file else {
            return TraceSource::from_trace(self.trace(kind));
        };
        MappedTrace::open(path)
            .and_then(|map| {
                if map.is_time_sorted() {
                    Ok(TraceSource::from_map(map))
                } else {
                    map.to_trace().map(TraceSource::from_trace)
                }
            })
            .unwrap_or_else(|e| panic!("trace file {}: {e}", path.display()))
    }

    /// PA-LRU's epoch, scaled with the trace length so down-scaled runs
    /// keep the paper's ~8-epochs-per-trace proportion (15 minutes at
    /// full scale, never below one minute).
    #[must_use]
    pub fn pa_epoch(&self) -> SimDuration {
        SimDuration::from_secs_f64((900.0 * self.scale).clamp(60.0, 900.0))
    }

    /// The paper's PA parameters against `power`, with the scaled
    /// epoch.
    #[must_use]
    pub fn pa_config(&self, power: &PowerModel) -> PaLruConfig {
        PaLruConfig {
            epoch: self.pa_epoch(),
            ..PaLruConfig::for_power_model(power)
        }
    }

    /// An on-line policy spec at this scale: the PA variants run with
    /// [`pa_config`](Self::pa_config).
    #[must_use]
    pub fn online_policy(&self, policy: OnlinePolicy, power: &PowerModel) -> PolicySpec {
        let pa = policy.is_power_aware().then(|| self.pa_config(power));
        PolicySpec::Online(policy, pa)
    }

    /// The PA-LRU policy spec at this scale.
    #[must_use]
    pub fn pa_policy(&self, power: &PowerModel) -> PolicySpec {
        self.online_policy(OnlinePolicy::PaLru, power)
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::paper()
    }
}

/// A trace ready to simulate: either a fully materialized [`Trace`] or
/// a lazily-verified memory map of a time-sorted `.pct` file.
///
/// The point of the distinction is
/// [`run_replacement`](TraceSource::run_replacement): a mapped source streams on-line
/// policies straight off the file — no `Vec` of records, no upfront
/// sort, O(1) steady-state memory — and only materializes (once, cached)
/// for the off-line policies (Belady, OPG) that genuinely need the
/// future. The type is `Sync`, so a [`crate::sweep`] can fan one source
/// out across worker threads; the map's verification bitmap is shared,
/// so each chunk is checksummed at most once across the whole sweep.
#[derive(Debug)]
pub struct TraceSource {
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    Mem(Trace),
    Mapped {
        map: MappedTrace,
        /// Materialized on first off-line-policy run, then shared.
        mem: OnceLock<Trace>,
    },
}

impl TraceSource {
    /// Wraps an in-memory trace.
    #[must_use]
    pub fn from_trace(trace: Trace) -> TraceSource {
        TraceSource {
            repr: Repr::Mem(trace),
        }
    }

    /// Wraps a memory-mapped file. The map must be time-sorted in file
    /// order — the streaming simulator is a discrete-event timeline.
    ///
    /// # Panics
    ///
    /// Panics if the map is not time-sorted; callers materialize
    /// unsorted files with [`MappedTrace::to_trace`] instead.
    #[must_use]
    pub fn from_map(map: MappedTrace) -> TraceSource {
        assert!(
            map.is_time_sorted(),
            "mapped trace sources must be time-sorted; use to_trace for unsorted captures"
        );
        TraceSource {
            repr: Repr::Mapped {
                map,
                mem: OnceLock::new(),
            },
        }
    }

    /// Number of disks the trace addresses.
    #[must_use]
    pub fn disk_count(&self) -> u32 {
        match &self.repr {
            Repr::Mem(t) => t.disk_count(),
            Repr::Mapped { map, .. } => map.disk_count(),
        }
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> u64 {
        match &self.repr {
            Repr::Mem(t) => t.len() as u64,
            Repr::Mapped { map, .. } => map.len(),
        }
    }

    /// Returns `true` for an empty trace.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`run_replacement`](Self::run_replacement) streams the
    /// given policy off a map instead of materializing.
    #[must_use]
    pub fn streams(&self, spec: &PolicySpec) -> bool {
        matches!(&self.repr, Repr::Mapped { .. }) && !spec.needs_future()
    }

    /// The materialized trace — immediate for an in-memory source,
    /// collected from the map (once, then cached) for a mapped one.
    ///
    /// # Panics
    ///
    /// Panics if the map's lazy CRC verification finds corruption while
    /// collecting: a corrupt input must stop the experiment, not shape
    /// its results.
    #[must_use]
    pub fn as_trace(&self) -> &Trace {
        match &self.repr {
            Repr::Mem(t) => t,
            Repr::Mapped { map, mem } => mem.get_or_init(|| {
                map.to_trace()
                    .unwrap_or_else(|e| panic!("mapped trace: {e}"))
            }),
        }
    }

    /// Runs a replacement-policy experiment against this source: on-line
    /// policies on a mapped source stream straight off the file via
    /// [`pc_sim::run_replacement_stream`]; everything else goes through
    /// [`pc_sim::run_replacement`] on the materialized trace. Both paths
    /// produce byte-identical [`SimReport`]s for the same input.
    ///
    /// # Panics
    ///
    /// Panics if the map's lazy CRC verification finds corruption
    /// mid-stream — same contract as [`Params::trace`].
    #[must_use]
    pub fn run_replacement(&self, spec: &PolicySpec, config: &SimConfig) -> SimReport {
        match &self.repr {
            Repr::Mapped { map, .. } if !spec.needs_future() => pc_sim::run_replacement_stream(
                map.disk_count(),
                map.records()
                    .map(|r| r.unwrap_or_else(|e| panic!("mapped trace: {e}"))),
                spec,
                config,
            ),
            _ => pc_sim::run_replacement(self.as_trace(), spec, config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_applies_with_floor() {
        let p = Params {
            scale: 0.01,
            seed: 1,
            jobs: 0,
            trace_file: None,
        };
        assert_eq!(p.requests(72_000), 720);
        assert_eq!(p.requests(1_000), 500, "floor applies");
        assert_eq!(Params::paper().requests(72_000), 72_000);
    }

    #[test]
    fn traces_match_kinds() {
        let p = Params::quick();
        assert_eq!(p.trace(TraceKind::Oltp).disk_count(), 21);
        assert_eq!(p.trace(TraceKind::Cello).disk_count(), 19);
    }
}
