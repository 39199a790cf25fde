//! The simulation loops.

use pc_cache::{BlockCache, Effect, WritePolicy};
use pc_diskmodel::ServiceRequest;
use pc_disksim::{DiskArray, DiskSim, DpmPolicy};
use pc_trace::{IoOp, Record, Trace};
use pc_units::{BlockNo, DiskId, SimDuration, SimTime};

use crate::{PolicySpec, SimConfig, SimReport};

/// Response time charged to every access for the cache itself.
const HIT_TIME: SimDuration = SimDuration::from_micros(200);

/// Runs a replacement-policy experiment (paper §5, Figures 6–8): the
/// cache shapes each disk's request sequence, and the disks account
/// energy under the configured DPM (Oracle or Practical).
///
/// The write policy should be power-*unaware* here (write-back by
/// default); use [`run_write_policy`] for WBEU/WTDU.
///
/// # Panics
///
/// Panics if the configuration combines Oracle DPM with a power-aware
/// write policy (WBEU/WTDU), which is not causally well-defined — see
/// DESIGN.md §2.
#[must_use]
pub fn run_replacement(trace: &Trace, policy: &PolicySpec, config: &SimConfig) -> SimReport {
    run(trace, trace, policy, config)
}

/// Runs a write-policy experiment (paper §6, Figure 9) under a causal DPM
/// (the paper's published Figure-9 panels use Practical DPM).
///
/// # Panics
///
/// Panics if `config.dpm` is [`DpmPolicy::Oracle`].
#[must_use]
pub fn run_write_policy(trace: &Trace, policy: &PolicySpec, config: &SimConfig) -> SimReport {
    assert!(
        config.dpm != DpmPolicy::Oracle,
        "write-policy experiments need a causal DPM (the cache reads live disk state)"
    );
    run(trace, trace, policy, config)
}

/// The single simulation loop every entry point shares: build the
/// policy for `trace` (on-line policies ignore it), then drive an
/// [`OnlineStepper`] over `records` one by one and stamp the wall time.
fn run<R, I>(trace: &Trace, records: I, policy: &PolicySpec, config: &SimConfig) -> SimReport
where
    R: std::borrow::Borrow<Record>,
    I: IntoIterator<Item = R>,
{
    let wall_start = std::time::Instant::now();
    let power = config.power_model();
    let built = policy.build(trace, &power, config.dpm, config.cache_blocks);
    let mut stepper = OnlineStepper::new(trace.disk_count(), built, config);
    for record in records {
        stepper.step(record.borrow());
    }
    let mut report = stepper.into_report();
    report.timing = crate::RunTiming::from_wall(wall_start.elapsed(), report.requests);
    report
}

/// Runs a replacement-policy experiment off a record stream — same loop,
/// same accounting, same [`SimReport`] as [`run_replacement`], but the
/// trace never needs to exist as an in-memory [`Trace`]: a time-ordered
/// memory-mapped file (or any other iterator) feeds the stepper directly,
/// so steady-state memory is O(1) in the trace length.
///
/// Records must arrive in non-decreasing time order — the stepper is a
/// discrete-event timeline. File-backed callers check sortedness at open
/// time and fall back to the materializing path when it fails.
///
/// # Panics
///
/// Panics if `policy` is off-line ([`PolicySpec::needs_future`]): Belady
/// and OPG consume the whole future up front and cannot stream. Also
/// panics under the same Oracle-DPM/write-policy conflict as
/// [`run_replacement`].
#[must_use]
pub fn run_replacement_stream<I>(
    disk_count: u32,
    records: I,
    policy: &PolicySpec,
    config: &SimConfig,
) -> SimReport
where
    I: IntoIterator<Item = Record>,
{
    assert!(
        !policy.needs_future(),
        "off-line policy {} needs the whole trace; use run_replacement",
        policy.name()
    );
    // On-line policies ignore the trace argument, so an empty one builds
    // the identical policy instance.
    run(&Trace::new(disk_count), records, policy, config)
}

/// The outcome of one online request step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Whether every block of the request was resident in the cache.
    pub hit: bool,
    /// The client-visible response time (cache hit time plus any
    /// synchronous disk work the request waited for).
    pub response: SimDuration,
}

/// The reusable per-request service/energy step: one cache, one virtual
/// disk array (plus the WTDU log device), advanced request by request.
///
/// This is the simulation loop of [`run_replacement`] /
/// [`run_write_policy`] factored out so an *online* host — the `pc-server`
/// daemon, a shard thread, a REPL — can push requests as they arrive
/// instead of replaying a prebuilt [`Trace`]. Each [`step`](Self::step)
/// drives the cache, services the emitted effects (coalescing contiguous
/// blocks into multi-block transfers), and records the client-visible
/// response; [`into_report`](Self::into_report) closes the energy books
/// and returns the same [`SimReport`] a batch run would have produced.
///
/// Request times must be non-decreasing — the stepper is a discrete-event
/// timeline, not a scheduler.
///
/// # Examples
///
/// ```
/// use pc_sim::{OnlineStepper, SimConfig};
/// use pc_cache::policy::Lru;
/// use pc_trace::{IoOp, Record};
/// use pc_units::{BlockId, BlockNo, DiskId, SimTime};
///
/// let mut stepper = OnlineStepper::new(1, Box::new(Lru::new()), &SimConfig::default());
/// let block = BlockId::new(DiskId::new(0), BlockNo::new(7));
/// let miss = stepper.step(&Record::new(SimTime::from_millis(1), block, IoOp::Read));
/// let hit = stepper.step(&Record::new(SimTime::from_millis(2), block, IoOp::Read));
/// assert!(!miss.hit && hit.hit);
/// assert!(stepper.live_energy() > pc_units::Joules::ZERO);
/// ```
pub struct OnlineStepper {
    cache: BlockCache,
    array: DiskArray,
    log_disk: DiskSim,
    log_cursor: u64,
    write_policy: WritePolicy,
    response_total: SimDuration,
    response_hist: pc_cache::IntervalHistogram,
    horizon: SimTime,
    requests: u64,
    // One scratch buffer for the stepper's lifetime: the cache fills it on
    // each access and `coalesce` walks it in place. With it, a step under
    // LRU or PA-LRU and any write policy performs no heap allocation once
    // every block of the working set has been seen and the cache's
    // pending sets and log regions have reached their high-water marks
    // (`tests/no_alloc.rs`).
    effects: Vec<Effect>,
}

impl std::fmt::Debug for OnlineStepper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineStepper")
            .field("cache", &self.cache)
            .field("requests", &self.requests)
            .field("horizon", &self.horizon)
            .finish_non_exhaustive()
    }
}

impl OnlineStepper {
    /// Creates a stepper over `disk_count` disks with the given (already
    /// built) replacement policy and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration combines Oracle DPM with a power-aware
    /// write policy (WBEU/WTDU) — the cache reads live disk state, so the
    /// combination is not causally well-defined (see DESIGN.md §2).
    #[must_use]
    pub fn new(
        disk_count: u32,
        policy: Box<dyn pc_cache::ReplacementPolicy>,
        config: &SimConfig,
    ) -> Self {
        let power_aware_writes = matches!(
            config.write_policy,
            WritePolicy::Wbeu { .. } | WritePolicy::Wtdu
        );
        assert!(
            !(power_aware_writes && config.dpm == DpmPolicy::Oracle),
            "WBEU/WTDU require a causal DPM"
        );
        let power = config.power_model();
        let cache = BlockCache::new(config.cache_blocks, policy, config.write_policy)
            .with_prefetch_depth(config.prefetch_depth);
        let array = DiskArray::new_configured(
            disk_count.max(1),
            power.clone(),
            config.service,
            config.dpm,
            config.serve_at_speed,
        );
        // The WTDU log device: always active; only its service energy is
        // ever charged (see SimReport::total_energy).
        let log_disk = DiskSim::new(
            DiskId::new(disk_count),
            power,
            config.service,
            DpmPolicy::AlwaysOn,
        );
        OnlineStepper {
            cache,
            array,
            log_disk,
            log_cursor: 0,
            write_policy: config.write_policy,
            response_total: SimDuration::ZERO,
            response_hist: SimReport::response_histogram(),
            horizon: SimTime::ZERO,
            requests: 0,
            effects: Vec::new(),
        }
    }

    /// Processes one request: cache access, disk-side effect servicing,
    /// and response accounting. The cache consults live disk power state
    /// (used only by WBEU/WTDU); the disks lazily account idle periods,
    /// which is what lets Oracle DPM make clairvoyant per-gap decisions in
    /// the same pass.
    pub fn step(&mut self, record: &Record) -> StepOutcome {
        self.requests += 1;
        self.horizon = self.horizon.max(record.time);
        let array = &mut self.array;
        let outcome = self.cache.access(
            record,
            |d| array.disk(d).is_sleeping(record.time),
            &mut self.effects,
        );

        // Service the disk-side work in order, coalescing contiguous
        // single-block effects into multi-block transfers (a 16-block
        // read pays one seek + one latency, not sixteen), and remembering
        // the response of the transfer that carries the client's own I/O.
        let mut own_read = None;
        let mut own_write = None;
        for run in coalesce(&self.effects) {
            match run {
                EffectRun::Disk {
                    first,
                    blocks,
                    read,
                } => {
                    let served = self.array.service(
                        first.disk(),
                        record.time,
                        ServiceRequest {
                            block: first.block(),
                            blocks,
                        },
                    );
                    // The client's block lies in the run's
                    // `blocks` numbers from `first`, which may wrap.
                    let carries_own = first.disk() == record.block.disk()
                        && record
                            .block
                            .block()
                            .number()
                            .wrapping_sub(first.block().number())
                            < blocks;
                    if carries_own {
                        if read {
                            own_read = Some(served.response);
                        } else {
                            own_write = Some(served.response);
                        }
                    }
                }
                EffectRun::Log { blocks } => {
                    // Log appends are sequential on the log device; they
                    // are always the client's own write (only the current
                    // request's write handler emits them).
                    let served = self.log_disk.service(
                        record.time,
                        ServiceRequest {
                            block: BlockNo::new(self.log_cursor + 1),
                            blocks,
                        },
                    );
                    self.log_cursor += blocks;
                    own_write = Some(served.response);
                }
            }
        }

        // Client-visible response: cache time, plus the synchronous disk
        // work this request had to wait for. Write-back style writes
        // complete in the cache; write-through style writes wait for
        // persistence; read misses wait for the fetch.
        let synchronous = match record.op {
            IoOp::Read => own_read.unwrap_or(SimDuration::ZERO),
            IoOp::Write => match self.write_policy {
                WritePolicy::WriteThrough | WritePolicy::Wtdu => {
                    own_write.unwrap_or(SimDuration::ZERO)
                }
                WritePolicy::WriteBack | WritePolicy::Wbeu { .. } => SimDuration::ZERO,
            },
        };
        let response = HIT_TIME + synchronous;
        self.response_total += response;
        self.response_hist.record(response);
        StepOutcome {
            hit: outcome.hit,
            response,
        }
    }

    /// The cache's counters so far (a `Copy` snapshot — safe to hand
    /// across threads).
    #[must_use]
    pub fn cache_stats(&self) -> pc_cache::CacheStats {
        self.cache.stats()
    }

    /// The policy's adaptive-selection gauges (`--policy meta` only;
    /// fixed policies return `None`).
    #[must_use]
    pub fn meta_stats(&self) -> Option<pc_cache::MetaStats> {
        self.cache.meta_stats()
    }

    /// Requests stepped so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// The latest request time seen.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Energy accounted so far: all data-disk energy plus the log
    /// device's incremental service energy. The disks account lazily, so
    /// this covers each disk up to its most recent power event; the final
    /// [`into_report`](Self::into_report) closes the books through the
    /// full horizon.
    #[must_use]
    pub fn live_energy(&self) -> pc_units::Joules {
        let disks: pc_units::Joules = self.array.reports().iter().map(|d| d.total_energy()).sum();
        disks + self.log_disk.report().service_energy
    }

    /// The per-request response-time distribution so far.
    #[must_use]
    pub fn response_hist(&self) -> &pc_cache::IntervalHistogram {
        &self.response_hist
    }

    /// The dense cache slot `block` currently occupies, if resident.
    /// Read-only: the serving layer's payload slab uses this to address
    /// per-block storage without touching policy or energy state.
    #[must_use]
    pub fn resident_slot(&self, block: pc_units::BlockId) -> Option<pc_cache::Slot> {
        self.cache.slot_of(block)
    }

    /// Exclusive upper bound on slot indices ever issued by the cache —
    /// the safe length for slot-parallel side tables.
    #[must_use]
    pub fn slot_bound(&self) -> usize {
        self.cache.slot_bound()
    }

    /// Sum of client-visible response times so far.
    #[must_use]
    pub fn response_total(&self) -> SimDuration {
        self.response_total
    }

    /// Finishes the timeline (accounting every disk through the horizon)
    /// and returns the complete report. `timing` is left default — batch
    /// drivers stamp their own wall-clock measurement.
    #[must_use]
    pub fn into_report(mut self) -> SimReport {
        let end = self
            .horizon
            .max(self.array.latest_completion())
            .max(self.log_disk.ready_at());
        self.array.finish(end);
        self.log_disk.finish(end);

        let log = if self.cache.stats().log_writes > 0 || self.write_policy == WritePolicy::Wtdu {
            Some(self.log_disk.report().clone())
        } else {
            None
        };

        SimReport {
            policy: self.cache.policy_name(),
            write_policy: self.write_policy.name().to_owned(),
            cache: self.cache.stats(),
            disks: self.array.reports().into_iter().cloned().collect(),
            log,
            response_total: self.response_total,
            response_hist: self.response_hist,
            requests: self.requests,
            horizon: end,
            timing: crate::RunTiming::default(),
        }
    }
}

/// A maximal run of coalescible effects: contiguous same-direction disk
/// transfers, or consecutive log appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EffectRun {
    /// `blocks` consecutive blocks starting at `first`, read or written.
    Disk {
        first: pc_units::BlockId,
        blocks: u64,
        read: bool,
    },
    /// `blocks` consecutive appends to the log device.
    Log { blocks: u64 },
}

/// Merges per-block effects into multi-block transfers where contiguous.
///
/// Returns a lazy iterator over the effect slice, so coalescing allocates
/// nothing: each [`EffectRun`] is produced on demand by advancing a cursor
/// through the slice.
fn coalesce(effects: &[Effect]) -> Coalesce<'_> {
    Coalesce { effects, pos: 0 }
}

/// Iterator state for [`coalesce`]: a cursor over the effect slice.
struct Coalesce<'a> {
    effects: &'a [Effect],
    pos: usize,
}

impl Iterator for Coalesce<'_> {
    type Item = EffectRun;

    fn next(&mut self) -> Option<EffectRun> {
        let first = *self.effects.get(self.pos)?;
        self.pos += 1;
        match first {
            Effect::ReadDisk(b) | Effect::WriteDisk(b) => {
                let read = matches!(first, Effect::ReadDisk(_));
                let mut blocks = 1u64;
                while let Some(&next) = self.effects.get(self.pos) {
                    let (nb, next_read) = match next {
                        Effect::ReadDisk(n) => (n, true),
                        Effect::WriteDisk(n) => (n, false),
                        Effect::WriteLog(_) => break,
                    };
                    if next_read != read
                        || nb.disk() != b.disk()
                        || nb.block().number() != b.block().number().wrapping_add(blocks)
                    {
                        break;
                    }
                    blocks += 1;
                    self.pos += 1;
                }
                Some(EffectRun::Disk {
                    first: b,
                    blocks,
                    read,
                })
            }
            Effect::WriteLog(_) => {
                let mut blocks = 1u64;
                while matches!(self.effects.get(self.pos), Some(Effect::WriteLog(_))) {
                    blocks += 1;
                    self.pos += 1;
                }
                Some(EffectRun::Log { blocks })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_trace::{CelloConfig, OltpConfig, SyntheticConfig};
    use pc_units::Joules;

    fn oltp(n: usize) -> Trace {
        OltpConfig::default().with_requests(n).generate(42)
    }

    #[test]
    fn accounting_covers_the_whole_horizon_on_every_disk() {
        let t = oltp(3_000);
        let r = run_replacement(&t, &PolicySpec::Lru, &SimConfig::default());
        assert_eq!(r.disks.len(), 21);
        for d in &r.disks {
            // Total accounted time ≥ horizon (waits extend past arrivals).
            assert!(
                d.total_time().as_secs_f64() >= (r.horizon - SimTime::ZERO).as_secs_f64() - 1e-6
            );
        }
        assert!(r.total_energy() > Joules::ZERO);
        assert!(r.mean_response() > SimDuration::ZERO);
    }

    #[test]
    fn oracle_dpm_beats_practical_dpm() {
        let t = oltp(3_000);
        let practical = run_replacement(&t, &PolicySpec::Lru, &SimConfig::default());
        let oracle = run_replacement(
            &t,
            &PolicySpec::Lru,
            &SimConfig::default().with_dpm(DpmPolicy::Oracle),
        );
        assert!(oracle.total_energy() < practical.total_energy());
        // Oracle never delays a request for spin-ups.
        assert!(oracle.mean_response() <= practical.mean_response());
    }

    #[test]
    fn infinite_cache_is_an_energy_lower_bound_under_oracle() {
        let t = oltp(4_000);
        let cfg = SimConfig::default().with_dpm(DpmPolicy::Oracle);
        let infinite = run_replacement(&t, &PolicySpec::Lru, &cfg.clone().with_infinite_cache());
        for policy in [PolicySpec::Lru, PolicySpec::Belady, PolicySpec::PaLru] {
            let r = run_replacement(&t, &policy, &cfg);
            assert!(
                infinite.total_energy().as_joules() <= r.total_energy().as_joules() * 1.001,
                "infinite {} vs {} {}",
                infinite.total_energy(),
                r.policy,
                r.total_energy()
            );
        }
    }

    #[test]
    fn belady_minimizes_misses_across_policies() {
        let t = oltp(4_000);
        let cfg = SimConfig::default();
        let belady = run_replacement(&t, &PolicySpec::Belady, &cfg);
        for policy in [
            PolicySpec::Lru,
            PolicySpec::online("fifo").unwrap(),
            PolicySpec::PaLru,
        ] {
            let r = run_replacement(&t, &policy, &cfg);
            assert!(
                belady.cache.misses() <= r.cache.misses(),
                "belady {} vs {} {}",
                belady.cache.misses(),
                r.policy,
                r.cache.misses()
            );
        }
    }

    #[test]
    fn write_back_saves_energy_over_write_through_on_write_heavy_traffic() {
        let t = SyntheticConfig::default()
            .with_requests(6_000)
            .with_disks(8)
            .with_write_ratio(0.9)
            .generate(7);
        let wb = run_write_policy(
            &t,
            &PolicySpec::Lru,
            &SimConfig::default().with_write_policy(WritePolicy::WriteBack),
        );
        let wt = run_write_policy(
            &t,
            &PolicySpec::Lru,
            &SimConfig::default().with_write_policy(WritePolicy::WriteThrough),
        );
        assert!(
            wb.total_energy() < wt.total_energy(),
            "wb {} wt {}",
            wb.total_energy(),
            wt.total_energy()
        );
        // Write-back defers far more disk writes than write-through issues.
        assert!(wb.cache.disk_writes < wt.cache.disk_writes);
    }

    #[test]
    fn wtdu_logs_instead_of_waking_disks() {
        let t = SyntheticConfig::default()
            .with_requests(4_000)
            .with_disks(8)
            .with_write_ratio(0.8)
            .generate(3);
        let wtdu = run_write_policy(
            &t,
            &PolicySpec::Lru,
            &SimConfig::default().with_write_policy(WritePolicy::Wtdu),
        );
        assert!(wtdu.cache.log_writes > 0, "some writes must hit the log");
        assert!(wtdu.log.is_some());
        let wt = run_write_policy(
            &t,
            &PolicySpec::Lru,
            &SimConfig::default().with_write_policy(WritePolicy::WriteThrough),
        );
        assert!(
            wtdu.total_energy() < wt.total_energy(),
            "wtdu {} wt {}",
            wtdu.total_energy(),
            wt.total_energy()
        );
    }

    #[test]
    fn cello_offers_little_headroom() {
        // The paper's §5.2: Cello's cold-miss-dominated, dense traffic
        // leaves even an infinite cache only ~12% below LRU.
        let t = CelloConfig::default().with_requests(20_000).generate(9);
        let cfg = SimConfig::default();
        let lru = run_replacement(&t, &PolicySpec::Lru, &cfg);
        let infinite = run_replacement(&t, &PolicySpec::Lru, &cfg.clone().with_infinite_cache());
        let ratio = infinite.energy_ratio(&lru);
        assert!(ratio > 0.75, "infinite/LRU ratio {ratio} suspiciously low");
    }

    #[test]
    fn coalesce_merges_contiguous_same_direction_effects() {
        use pc_units::{BlockId, BlockNo};
        let b = |n: u64| BlockId::new(DiskId::new(0), BlockNo::new(n));
        let other = BlockId::new(DiskId::new(1), BlockNo::new(12));
        let effects = vec![
            Effect::ReadDisk(b(10)),
            Effect::ReadDisk(b(11)),
            Effect::ReadDisk(b(12)),
            Effect::WriteDisk(b(13)), // direction change splits
            Effect::ReadDisk(b(14)),
            Effect::ReadDisk(other), // disk change splits
            Effect::WriteLog(b(1)),
            Effect::WriteLog(b(7)), // log runs merge regardless of blocks
        ];
        let runs: Vec<EffectRun> = coalesce(&effects).collect();
        assert_eq!(
            runs,
            vec![
                EffectRun::Disk {
                    first: b(10),
                    blocks: 3,
                    read: true
                },
                EffectRun::Disk {
                    first: b(13),
                    blocks: 1,
                    read: false
                },
                EffectRun::Disk {
                    first: b(14),
                    blocks: 1,
                    read: true
                },
                EffectRun::Disk {
                    first: other,
                    blocks: 1,
                    read: true
                },
                EffectRun::Log { blocks: 2 },
            ]
        );
    }

    #[test]
    fn coalesce_empty_yields_nothing() {
        assert_eq!(coalesce(&[]).next(), None);
    }

    #[test]
    fn coalesce_single_effect_is_a_unit_run() {
        use pc_units::{BlockId, BlockNo};
        let b = BlockId::new(DiskId::new(3), BlockNo::new(9));
        let runs: Vec<EffectRun> = coalesce(&[Effect::WriteDisk(b)]).collect();
        assert_eq!(
            runs,
            vec![EffectRun::Disk {
                first: b,
                blocks: 1,
                read: false
            }]
        );
        let runs: Vec<EffectRun> = coalesce(&[Effect::WriteLog(b)]).collect();
        assert_eq!(runs, vec![EffectRun::Log { blocks: 1 }]);
    }

    #[test]
    fn coalesce_alternating_directions_never_merge() {
        use pc_units::{BlockId, BlockNo};
        let b = |n: u64| BlockId::new(DiskId::new(0), BlockNo::new(n));
        // Contiguous block numbers, but the direction flips each time.
        let effects = [
            Effect::ReadDisk(b(1)),
            Effect::WriteDisk(b(2)),
            Effect::ReadDisk(b(3)),
            Effect::WriteDisk(b(4)),
        ];
        let runs: Vec<EffectRun> = coalesce(&effects).collect();
        assert_eq!(runs.len(), 4);
        assert!(runs
            .iter()
            .all(|r| matches!(r, EffectRun::Disk { blocks: 1, .. })));
    }

    #[test]
    fn coalesce_log_runs_split_only_on_disk_effects() {
        use pc_units::{BlockId, BlockNo};
        let b = |n: u64| BlockId::new(DiskId::new(0), BlockNo::new(n));
        let effects = [
            Effect::WriteLog(b(5)),
            Effect::WriteLog(b(90)), // non-contiguous blocks still merge
            Effect::WriteLog(b(2)),
            Effect::ReadDisk(b(10)),
            Effect::WriteLog(b(11)),
        ];
        let runs: Vec<EffectRun> = coalesce(&effects).collect();
        assert_eq!(
            runs,
            vec![
                EffectRun::Log { blocks: 3 },
                EffectRun::Disk {
                    first: b(10),
                    blocks: 1,
                    read: true
                },
                EffectRun::Log { blocks: 1 },
            ]
        );
    }

    #[test]
    fn coalesce_matches_eager_reference_on_random_sequences() {
        // Cross-check the lazy iterator against a straightforward eager
        // fold over a few hundred random effect sequences.
        use pc_units::{BlockId, BlockNo};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        fn eager(effects: &[Effect]) -> Vec<EffectRun> {
            let mut runs: Vec<EffectRun> = Vec::new();
            for e in effects {
                match *e {
                    Effect::ReadDisk(b) | Effect::WriteDisk(b) => {
                        let is_read = matches!(e, Effect::ReadDisk(_));
                        if let Some(EffectRun::Disk {
                            first,
                            blocks,
                            read,
                        }) = runs.last_mut()
                        {
                            if *read == is_read
                                && first.disk() == b.disk()
                                && first.block().number().wrapping_add(*blocks)
                                    == b.block().number()
                            {
                                *blocks += 1;
                                continue;
                            }
                        }
                        runs.push(EffectRun::Disk {
                            first: b,
                            blocks: 1,
                            read: is_read,
                        });
                    }
                    Effect::WriteLog(_) => {
                        if let Some(EffectRun::Log { blocks }) = runs.last_mut() {
                            *blocks += 1;
                            continue;
                        }
                        runs.push(EffectRun::Log { blocks: 1 });
                    }
                }
            }
            runs
        }
        let mut rng = StdRng::seed_from_u64(0xC0A1E5CE);
        for _ in 0..300 {
            let len = rng.gen_range(0..12usize);
            let effects: Vec<Effect> = (0..len)
                .map(|_| {
                    let b = BlockId::new(
                        DiskId::new(rng.gen_range(0..2u32)),
                        BlockNo::new(rng.gen_range(0..6u64)),
                    );
                    match rng.gen_range(0..3u32) {
                        0 => Effect::ReadDisk(b),
                        1 => Effect::WriteDisk(b),
                        _ => Effect::WriteLog(b),
                    }
                })
                .collect();
            let lazy: Vec<EffectRun> = coalesce(&effects).collect();
            assert_eq!(lazy, eager(&effects), "effects {effects:?}");
        }
    }

    #[test]
    fn multi_block_reads_cost_one_mechanical_operation() {
        // A single 16-block sequential read must be cheaper than 16
        // scattered single-block reads (one seek + latency vs sixteen).
        use pc_trace::{IoOp, Record};
        use pc_units::{BlockId, BlockNo};
        let mut seq = pc_trace::Trace::new(1);
        let mut r = Record::new(
            SimTime::from_secs(1),
            BlockId::new(DiskId::new(0), BlockNo::new(1_000)),
            IoOp::Read,
        );
        r.blocks = 16;
        seq.push(r);
        let mut scattered = pc_trace::Trace::new(1);
        for i in 0..16u64 {
            scattered.push(Record::new(
                SimTime::from_secs(1),
                BlockId::new(DiskId::new(0), BlockNo::new(i * 50_000)),
                IoOp::Read,
            ));
        }
        let cfg = SimConfig::default();
        let a = run_replacement(&seq, &PolicySpec::Lru, &cfg);
        let b = run_replacement(&scattered, &PolicySpec::Lru, &cfg);
        let service_a: SimDuration = a.disks.iter().map(|d| d.service_time).sum();
        let service_b: SimDuration = b.disks.iter().map(|d| d.service_time).sum();
        assert!(
            service_a.as_secs_f64() * 3.0 < service_b.as_secs_f64(),
            "coalesced {service_a} vs scattered {service_b}"
        );
    }

    #[test]
    fn response_quantiles_bracket_the_mean() {
        let t = oltp(4_000);
        let r = run_replacement(&t, &PolicySpec::Lru, &SimConfig::default());
        let p50 = r.response_quantile(0.5);
        let p99 = r.response_quantile(0.99);
        assert!(p50 <= p99);
        // The distribution is heavy-tailed: spin-up waits push p99 far
        // above the (hit-dominated) median.
        assert!(p50 < SimDuration::from_millis(50), "p50 {p50}");
        assert!(p99 > r.mean_response(), "p99 {p99}");
    }

    #[test]
    fn prefetching_is_wired_through_the_config() {
        let t = SyntheticConfig {
            seq_probability: 0.8,
            local_probability: 0.1,
            reuse_probability: 0.0,
            ..SyntheticConfig::default()
        }
        .with_requests(4_000)
        .generate(1);
        let plain = run_replacement(&t, &PolicySpec::Lru, &SimConfig::default());
        let ahead = run_replacement(
            &t,
            &PolicySpec::Lru,
            &SimConfig::default().with_prefetch_depth(4),
        );
        assert!(ahead.cache.prefetch_reads > 0);
        assert!(ahead.cache.hit_ratio() > plain.cache.hit_ratio() + 0.1);
    }

    #[test]
    #[should_panic(expected = "causal DPM")]
    fn write_policy_runner_rejects_oracle() {
        let t = oltp(10);
        let _ = run_write_policy(
            &t,
            &PolicySpec::Lru,
            &SimConfig::default()
                .with_dpm(DpmPolicy::Oracle)
                .with_write_policy(WritePolicy::Wtdu),
        );
    }
}
