//! Streaming record iteration over the named workloads.
//!
//! Batch drivers materialize a whole [`Trace`] up front; an online load
//! generator instead wants to *draw* requests while it runs, without
//! bounding the run length at allocation time. [`Workload`] names the
//! three standard workload families and [`Workload::stream`] yields their
//! records one at a time:
//!
//! * `synthetic`, `cello96` and the `nonstationary:*` scenarios stream
//!   truly lazily ([`crate::SyntheticConfig::stream`],
//!   [`crate::CelloConfig::stream`], [`crate::NonStationaryConfig::stream`])
//!   — they emit records in arrival order and memory use is O(recency
//!   stack), so an unbounded request budget is fine.
//! * `oltp` is a two-phase generator (it sorts an arrival skeleton before
//!   materializing blocks), so its stream iterates an eagerly generated
//!   trace; bound `requests` to what you will actually send.

use crate::{
    CelloConfig, CelloStream, NonStationaryConfig, NonStationaryStream, OltpConfig, Record,
    Scenario, SyntheticConfig, SyntheticStream,
};

/// One of the standard workload families, configured and ready to stream.
///
/// # Examples
///
/// ```
/// use pc_trace::Workload;
///
/// let w = Workload::parse("synthetic").unwrap().with_requests(100);
/// let records: Vec<_> = w.stream(7).collect();
/// assert_eq!(records.len(), 100);
/// // Same seed, same records — streams are deterministic.
/// assert_eq!(records, w.stream(7).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The Table-3 synthetic generator (lazy streaming).
    Synthetic(SyntheticConfig),
    /// The OLTP-like generator (eagerly generated, then streamed).
    Oltp(OltpConfig),
    /// The Cello96-like generator (lazy streaming).
    Cello(CelloConfig),
    /// A non-stationary scenario (lazy streaming) — see
    /// [`NonStationaryConfig`].
    NonStationary(NonStationaryConfig),
}

impl Workload {
    /// Parses a workload name: `synthetic`, `oltp`, `cello96` (also
    /// accepts `cello`), or a non-stationary scenario —
    /// `nonstationary:diurnal`, `nonstationary:flash-crowd`,
    /// `nonstationary:churn`, `nonstationary:phase-change` — each with
    /// its default configuration.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        if let Some(scenario) = name.strip_prefix("nonstationary:") {
            return Scenario::parse(scenario)
                .map(|s| Workload::NonStationary(NonStationaryConfig::new(s)));
        }
        match name {
            "synthetic" => Some(Workload::Synthetic(SyntheticConfig::default())),
            "oltp" => Some(Workload::Oltp(OltpConfig::default())),
            "cello96" | "cello" => Some(Workload::Cello(CelloConfig::default())),
            _ => None,
        }
    }

    /// The canonical workload name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Synthetic(_) => "synthetic",
            Workload::Oltp(_) => "oltp",
            Workload::Cello(_) => "cello96",
            Workload::NonStationary(c) => match c.scenario {
                Scenario::Diurnal => "nonstationary:diurnal",
                Scenario::FlashCrowd => "nonstationary:flash-crowd",
                Scenario::Churn => "nonstationary:churn",
                Scenario::PhaseChange => "nonstationary:phase-change",
            },
        }
    }

    /// Number of disks the workload addresses.
    #[must_use]
    pub fn disk_count(&self) -> u32 {
        match self {
            Workload::Synthetic(c) => c.disks,
            Workload::Oltp(c) => c.disk_count(),
            Workload::Cello(c) => c.disks,
            Workload::NonStationary(c) => c.disks,
        }
    }

    /// Bounds the stream to `requests` records.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Workload {
        match &mut self {
            Workload::Synthetic(c) => c.requests = requests,
            Workload::Oltp(c) => c.requests = requests,
            Workload::Cello(c) => c.requests = requests,
            Workload::NonStationary(c) => c.requests = requests,
        }
        self
    }

    /// The configured request bound.
    #[must_use]
    pub fn requests(&self) -> usize {
        match self {
            Workload::Synthetic(c) => c.requests,
            Workload::Oltp(c) => c.requests,
            Workload::Cello(c) => c.requests,
            Workload::NonStationary(c) => c.requests,
        }
    }

    /// Streams the workload's records deterministically from a seed.
    ///
    /// # Panics
    ///
    /// Panics if the underlying generator rejects its configuration (see
    /// each config type's `generate`).
    #[must_use]
    pub fn stream(&self, seed: u64) -> RecordStream {
        let inner = match self {
            Workload::Synthetic(c) => StreamInner::Synthetic(c.stream(seed)),
            Workload::Oltp(c) => StreamInner::Eager(c.generate(seed).into_records().into_iter()),
            Workload::Cello(c) => StreamInner::Cello(c.stream(seed)),
            Workload::NonStationary(c) => StreamInner::Phased(c.stream(seed)),
        };
        RecordStream { inner }
    }
}

/// A deterministic iterator of workload records — see [`Workload::stream`].
#[derive(Debug, Clone)]
pub struct RecordStream {
    inner: StreamInner,
}

#[derive(Debug, Clone)]
enum StreamInner {
    Synthetic(SyntheticStream),
    Cello(CelloStream),
    Phased(NonStationaryStream),
    Eager(std::vec::IntoIter<Record>),
}

impl Iterator for RecordStream {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        match &mut self.inner {
            StreamInner::Synthetic(s) => s.next(),
            StreamInner::Cello(s) => s.next(),
            StreamInner::Phased(s) => s.next(),
            StreamInner::Eager(s) => s.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    /// Load generators move streams into connection threads.
    fn assert_send<T: Send>() {}

    #[test]
    fn streams_are_send() {
        assert_send::<RecordStream>();
    }

    #[test]
    fn synthetic_stream_matches_eager_generate() {
        let cfg = SyntheticConfig::default().with_requests(2_000);
        let eager = cfg.generate(11);
        let streamed: Vec<Record> = Workload::Synthetic(cfg).stream(11).collect();
        assert_eq!(eager.records(), streamed.as_slice());
    }

    #[test]
    fn eager_workloads_stream_their_generated_trace() {
        let w = Workload::parse("oltp").unwrap().with_requests(500);
        let streamed: Vec<Record> = w.stream(3).collect();
        assert_eq!(streamed.len(), 500);
        // Streamed records form a valid trace over the workload's disks.
        let t = Trace::from_records(w.disk_count(), streamed);
        assert_eq!(t.disk_count(), w.disk_count());
    }

    #[test]
    fn cello_streams_lazily_and_matches_eager_generate() {
        let cfg = CelloConfig::default().with_requests(5_000);
        for seed in [42, 7] {
            let streamed: Vec<Record> = Workload::Cello(cfg.clone()).stream(seed).collect();
            assert_eq!(cfg.generate(seed).records(), streamed.as_slice(), "{seed}");
        }
        // Unbounded streams still yield on demand.
        let unbounded = Workload::Cello(cfg).with_requests(usize::MAX);
        assert_eq!(unbounded.stream(1).take(10).count(), 10);
    }

    #[test]
    fn parse_covers_the_three_families() {
        assert_eq!(Workload::parse("synthetic").unwrap().name(), "synthetic");
        assert_eq!(Workload::parse("oltp").unwrap().name(), "oltp");
        assert_eq!(Workload::parse("cello96").unwrap().name(), "cello96");
        assert_eq!(Workload::parse("cello").unwrap().name(), "cello96");
        assert!(Workload::parse("nope").is_none());
    }

    #[test]
    fn parse_covers_the_nonstationary_scenarios() {
        for name in [
            "nonstationary:diurnal",
            "nonstationary:flash-crowd",
            "nonstationary:churn",
            "nonstationary:phase-change",
        ] {
            let w = Workload::parse(name).unwrap();
            assert_eq!(w.name(), name);
            assert_eq!(w.disk_count(), 20);
        }
        assert!(Workload::parse("nonstationary:nope").is_none());
        assert!(Workload::parse("nonstationary:").is_none());
    }

    #[test]
    fn nonstationary_streams_lazily_and_matches_eager_generate() {
        let w = Workload::parse("nonstationary:churn")
            .unwrap()
            .with_requests(1_500);
        let streamed: Vec<Record> = w.stream(11).collect();
        assert_eq!(streamed.len(), 1_500);
        if let Workload::NonStationary(c) = &w {
            assert_eq!(c.generate(11).records(), streamed.as_slice());
        } else {
            unreachable!();
        }
        // Unbounded streams still yield on demand.
        let unbounded = w.with_requests(usize::MAX);
        assert_eq!(unbounded.stream(1).take(10).count(), 10);
    }

    #[test]
    fn request_bound_is_respected_lazily() {
        let w = Workload::parse("synthetic")
            .unwrap()
            .with_requests(usize::MAX);
        // An effectively unbounded stream still yields on demand.
        let first_10: Vec<Record> = w.stream(1).take(10).collect();
        assert_eq!(first_10.len(), 10);
        assert_eq!(w.requests(), usize::MAX);
    }
}
