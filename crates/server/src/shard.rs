//! Shard engines: one [`BlockCache`](pc_cache::BlockCache) plus one
//! virtual disk-array timeline per shard, advanced in virtual time.
//!
//! The service hash-partitions `(disk, block)` across shards, so each
//! shard owns an independent cache partition *and* an independent
//! energy timeline over its own replica of the disk array. Cluster
//! totals are the sum of the per-shard books; the paper's batch
//! experiments remain the ground truth for single-timeline energy.

use std::hash::{Hash, Hasher};

use pc_cache::WritePolicy;
use pc_sim::cli::Flags;
use pc_sim::{OnlineStepper, PolicySpec, SimConfig, StepOutcome};
use pc_trace::{IoOp, Record, Trace};
use pc_units::{BlockId, BlockNo, DiskId, SimTime};
use rustc_hash::FxHasher;

use crate::data::{BlockStore, ReadOutcome};
use crate::front::IoReq;
use crate::protocol::{self, Response, DEFAULT_BLOCK_BYTES, MAX_BLOCK_BYTES};
use crate::stats::{ClusterSnapshot, ShardSnapshot};

/// Default per-shard admission-queue bound, in requests: four reader
/// batches' worth, so a single bursty connection cannot park more than
/// a few milliseconds of work in front of a shard while still leaving
/// headroom for several concurrent connections.
pub const DEFAULT_QUEUE_BOUND: usize = 4096;

/// Routes a block to its shard: FxHash of `(disk, block)` modulo the
/// shard count. Multi-block requests route by their first block, so a
/// request never straddles shards.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(disk: DiskId, block: BlockNo, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    let mut h = FxHasher::default();
    disk.index().hash(&mut h);
    block.number().hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Debug fault injection for the TCP server: one shard's thread sleeps
/// before every request, so the overload/backpressure path becomes
/// reachable in tests and CI (`--slow-shard IDX:MICROS`). The
/// in-process cluster has no queue and ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowShard {
    /// Index of the shard to slow down.
    pub shard: usize,
    /// Added service delay per request, in microseconds.
    pub micros: u64,
}

/// Parses a `--slow-shard IDX:MICROS` value (e.g. `0:500`).
#[must_use]
pub fn parse_slow_shard(s: &str) -> Option<SlowShard> {
    let (shard, micros) = s.split_once(':')?;
    Some(SlowShard {
        shard: shard.parse().ok()?,
        micros: micros.parse().ok()?,
    })
}

/// Configuration shared by every shard of a cluster.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shards.
    pub shards: usize,
    /// Disks in each shard's virtual array (client disk indices are
    /// reduced modulo this).
    pub disks: u32,
    /// Replacement policy (must be online).
    pub policy: PolicySpec,
    /// Simulator configuration (cache capacity *per shard*, write
    /// policy, DPM, disk model).
    pub sim: SimConfig,
    /// Per-shard admission-queue bound in requests; a full queue
    /// answers `BUSY` instead of buffering. TCP server only: the
    /// in-process cluster has no queue.
    pub queue_bound: usize,
    /// Optional per-request delay injected into one shard (fault
    /// injection for overload tests).
    pub slow_shard: Option<SlowShard>,
    /// Event-loop IO threads multiplexing connections (0 = pick from
    /// available parallelism).
    pub io_threads: usize,
    /// Payload bytes per block served by the data plane (protocol v2
    /// `READ_DATA`/`WRITE_DATA`). Metadata-only traffic never touches
    /// the slab, so this costs nothing until data frames arrive.
    pub block_bytes: usize,
    /// Debug fault injection: flip one slab byte before every Nth
    /// verified payload read (0 = never) so CRC detection is
    /// deterministically testable (`--corrupt-rate`).
    pub corrupt_every: u64,
}

impl EngineConfig {
    /// A cluster of `shards` shards over `disks` disks, LRU write-back
    /// with the paper's default simulator configuration.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `disks` is zero.
    #[must_use]
    pub fn new(shards: usize, disks: u32) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(disks > 0, "need at least one disk");
        EngineConfig {
            shards,
            disks,
            policy: PolicySpec::Lru,
            sim: SimConfig::default(),
            queue_bound: DEFAULT_QUEUE_BOUND,
            slow_shard: None,
            io_threads: 0,
            block_bytes: DEFAULT_BLOCK_BYTES,
            corrupt_every: 0,
        }
    }

    /// Sets the payload bytes per block for the data plane.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero or above [`MAX_BLOCK_BYTES`].
    #[must_use]
    pub fn with_block_bytes(mut self, block_bytes: usize) -> Self {
        assert!(block_bytes > 0, "blocks must carry at least one byte");
        assert!(
            block_bytes <= MAX_BLOCK_BYTES,
            "the protocol carries blocks of at most {MAX_BLOCK_BYTES} bytes"
        );
        self.block_bytes = block_bytes;
        self
    }

    /// Corrupts one slab byte before every Nth verified payload read
    /// (0 disables the fault injection).
    #[must_use]
    pub fn with_corrupt_every(mut self, corrupt_every: u64) -> Self {
        self.corrupt_every = corrupt_every;
        self
    }

    /// Sets the replacement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-shard admission-queue bound (requests).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[must_use]
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        assert!(bound > 0, "queue bound must admit at least one request");
        self.queue_bound = bound;
        self
    }

    /// Injects a per-request service delay into one shard.
    #[must_use]
    pub fn with_slow_shard(mut self, slow: SlowShard) -> Self {
        self.slow_shard = Some(slow);
        self
    }

    /// The injected delay for shard `id`, if any.
    #[must_use]
    pub fn slow_delay_micros(&self, id: usize) -> u64 {
        match self.slow_shard {
            Some(s) if s.shard == id => s.micros,
            _ => 0,
        }
    }

    /// Sets the number of event-loop IO threads (0 = auto).
    #[must_use]
    pub fn with_io_threads(mut self, io_threads: usize) -> Self {
        self.io_threads = io_threads;
        self
    }

    /// Reads one of `pc-server`'s five engine flags (`--shards`,
    /// `--policy`, `--write-policy`, `--shard-queue`, `--slow-shard`)
    /// from `flags`; `pc-server` is the only program that takes them.
    /// Returns `Ok(false)`, consuming nothing, when `flag` is not one of
    /// them. Call [`check`](EngineConfig::check) once all flags are in.
    ///
    /// # Errors
    ///
    /// A missing, unparsable or out-of-range value, naming the flag.
    pub fn parse_flag(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, String> {
        match flag {
            "--shards" => self.shards = flags.at_least(flag, 1)?,
            "--shard-queue" => self.queue_bound = flags.at_least(flag, 1)?,
            "--write-policy" => {
                self.sim.write_policy = flags.parse_with(flag, WritePolicy::parse)?
            }
            "--policy" => {
                self.policy = flags.parse_with(flag, |name| {
                    PolicySpec::online(name).ok_or_else(|| {
                        format!(
                            "unknown policy {name:?}; online policies: {}",
                            PolicySpec::online_names()
                        )
                    })
                })?;
            }
            "--slow-shard" => {
                self.slow_shard = Some(flags.parse_with(flag, |spec| {
                    parse_slow_shard(spec)
                        .ok_or_else(|| format!("expected IDX:MICROS, got {spec:?}"))
                })?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks what no single `pc-server` flag can: the slowed shard
    /// exists.
    ///
    /// # Errors
    ///
    /// A `--slow-shard` index at or past the shard count.
    pub fn check(&self) -> Result<(), String> {
        match self.slow_shard {
            Some(slow) if slow.shard >= self.shards => Err(format!(
                "--slow-shard index {} out of range (shards={})",
                slow.shard, self.shards
            )),
            _ => Ok(()),
        }
    }

    /// Builds one shard's policy instance.
    ///
    /// # Panics
    ///
    /// Panics if the policy is offline (Belady / OPG) — those need the
    /// future trace, which an online server does not have.
    #[must_use]
    pub fn build_policy(&self) -> Box<dyn pc_cache::ReplacementPolicy> {
        assert!(
            !self.policy.needs_future(),
            "offline policies (belady/opg) cannot serve an online cluster"
        );
        let power = self.sim.power_model();
        // Online policies ignore the trace; hand build() an empty one.
        let empty = Trace::new(self.disks);
        self.policy
            .build(&empty, &power, self.sim.dpm, self.sim.cache_blocks)
    }
}

/// One shard: a policy-driven cache over its own virtual disk array,
/// advanced by a monotone virtual clock.
///
/// Arrival times may be handed in out of order (wall-clock timestamps
/// race across connections); the shard clamps its clock forward so the
/// underlying discrete-event timeline only advances.
#[derive(Debug)]
pub struct ShardEngine {
    id: usize,
    disks: u32,
    stepper: OnlineStepper,
    now: SimTime,
    /// The payload slab (protocol v2). Lazy: allocates nothing until a
    /// data request touches it, so metadata-only serving is unchanged.
    store: BlockStore,
}

impl ShardEngine {
    /// Builds shard `id` of a cluster described by `cfg`.
    #[must_use]
    pub fn new(id: usize, cfg: &EngineConfig) -> Self {
        ShardEngine {
            id,
            disks: cfg.disks,
            stepper: OnlineStepper::new(cfg.disks, cfg.build_policy(), &cfg.sim),
            now: SimTime::ZERO,
            store: BlockStore::new(cfg.block_bytes, cfg.corrupt_every),
        }
    }

    /// This shard's index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Processes one request arriving at virtual time `at`. The disk
    /// index is reduced modulo the array size and `blocks` is clamped
    /// to at least 1.
    pub fn ingest(
        &mut self,
        at: SimTime,
        disk: u32,
        block: u64,
        blocks: u64,
        write: bool,
    ) -> StepOutcome {
        self.now = self.now.max(at);
        let mut record = Record::new(
            self.now,
            BlockId::new(DiskId::new(disk % self.disks), BlockNo::new(block)),
            if write { IoOp::Write } else { IoOp::Read },
        );
        record.blocks = blocks.max(1);
        self.stepper.step(&record)
    }

    /// Payload bytes per block this shard's data plane serves.
    #[must_use]
    pub fn block_bytes(&self) -> usize {
        self.store.block_bytes()
    }

    /// CRC verification failures the data plane has detected so far.
    #[must_use]
    pub fn crc_failures(&self) -> u64 {
        self.store.crc_failures()
    }

    /// Stores a `WRITE_DATA` payload after [`ingest`](Self::ingest):
    /// each still-resident block of the request takes its slice of
    /// `bytes` into the slab (checksummed, owner-tagged). Blocks the
    /// policy already evicted — possible when a multi-block request
    /// overflows the cache — went to the virtual disk, which exists
    /// only as the deterministic image, so their payload is dropped.
    ///
    /// Runs strictly after the metadata step and never touches the
    /// stepper: policy decisions and energy books are unaffected.
    pub fn write_payload(&mut self, disk: u32, block: u64, blocks: u64, bytes: &[u8]) {
        let bb = self.store.block_bytes();
        let n = usize::try_from(blocks.max(1)).unwrap_or(usize::MAX);
        for (i, chunk) in bytes.chunks_exact(bb).enumerate().take(n) {
            let b = block.wrapping_add(i as u64);
            if let Some(slot) = self.resident_slot(disk, b) {
                // The owner tag records the *wire* disk index: two wire
                // disks that alias modulo the array share cache slots
                // but never each other's bytes.
                self.store.store(slot, disk, b, chunk);
            }
        }
    }

    /// Serves a `READ_DATA` payload after [`ingest`](Self::ingest),
    /// appending `blocks.max(1) × block_bytes` bytes to `out`: resident
    /// blocks come CRC-verified from the slab (miss-filled from the
    /// disk image on first touch or owner mismatch), evicted blocks are
    /// synthesized straight into the reply. Returns `false` — with
    /// `out` possibly holding a partial payload the caller must
    /// discard — when a slab frame failed its CRC check (counted in
    /// [`crc_failures`](Self::crc_failures), frame refilled).
    pub fn read_payload_into(
        &mut self,
        disk: u32,
        block: u64,
        blocks: u64,
        out: &mut Vec<u8>,
    ) -> bool {
        for i in 0..blocks.max(1) {
            let b = block.wrapping_add(i);
            let slot = self.resident_slot(disk, b);
            if self.store.read_into(slot, disk, b, out) == ReadOutcome::Corrupt {
                return false;
            }
        }
        true
    }

    /// Serves one admitted request and appends its reply frame to `out`:
    /// `IO` for a metadata request or a `WRITE_DATA` ack (the written
    /// bytes stay server-side), `DATA` with the verified blocks for a
    /// `READ_DATA`, or `CORRUPT` when a slab frame failed its CRC.
    pub(crate) fn serve(&mut self, r: &IoReq, out: &mut Vec<u8>) {
        let at = SimTime::from_micros(r.at_us);
        let outcome = self.ingest(at, r.disk, r.block, r.blocks, r.write);
        let (seq, hit) = (r.seq, outcome.hit);
        let response_us = u32::try_from(outcome.response.as_micros()).unwrap_or(u32::MAX);
        match &r.payload {
            Some(_) if !r.write => {
                // Copy-once: encode the header optimistically, then let
                // the store append verified slab bytes straight after
                // it. On a checksum failure the store already refilled
                // the frame; roll the reply back to a CORRUPT frame.
                let total = r.blocks.max(1) as usize * self.block_bytes();
                let frame_start = out.len();
                protocol::encode_data_header(seq, hit, response_us, total, out);
                if !self.read_payload_into(r.disk, r.block, r.blocks, out) {
                    out.truncate(frame_start);
                    protocol::encode_response(&Response::Corrupt { seq }, out);
                }
            }
            payload => {
                if let Some(bytes) = payload {
                    self.write_payload(r.disk, r.block, r.blocks, bytes);
                }
                let io = Response::Io {
                    seq,
                    hit,
                    response_us,
                };
                protocol::encode_response(&io, out);
            }
        }
    }

    /// The slab slot a `(wire disk, block)` pair currently occupies,
    /// using the same modulo reduction as [`ingest`](Self::ingest).
    fn resident_slot(&self, disk: u32, block: u64) -> Option<usize> {
        let id = BlockId::new(DiskId::new(disk % self.disks), BlockNo::new(block));
        self.stepper.resident_slot(id).map(pc_cache::Slot::index)
    }

    /// A live snapshot: counters are exact, energy covers each disk up
    /// to its last power event (the disks account lazily).
    #[must_use]
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            shard: self.id,
            requests: self.stepper.requests(),
            cache: self.stepper.cache_stats(),
            energy: self.stepper.live_energy(),
            response_total: self.stepper.response_total(),
            response_hist: self.stepper.response_hist().clone(),
            horizon: self.stepper.horizon(),
            busy_rejects: 0,
            queue_depth: 0,
            queue_high_water: 0,
            crc_failures: self.store.crc_failures(),
            meta: self.stepper.meta_stats(),
        }
    }

    /// Closes the energy books through the horizon and returns the
    /// final snapshot (what the daemon reports after a drain).
    #[must_use]
    pub fn into_snapshot(self) -> ShardSnapshot {
        let id = self.id;
        let crc_failures = self.store.crc_failures();
        // Captured before into_report consumes the stepper (and with it
        // the live policy the gauges read from).
        let meta = self.stepper.meta_stats();
        let report = self.stepper.into_report();
        ShardSnapshot {
            shard: id,
            requests: report.requests,
            cache: report.cache,
            energy: report.total_energy(),
            response_total: report.response_total,
            response_hist: report.response_hist.clone(),
            horizon: report.horizon,
            busy_rejects: 0,
            queue_depth: 0,
            queue_high_water: 0,
            crc_failures,
            meta,
        }
    }
}

/// A whole cluster in one thread: the deterministic in-process mode.
///
/// Drives the same request → shard → cache → energy path as the TCP
/// server, but arrival times come from the records themselves, so two
/// runs over the same stream produce identical counters — the
/// foundation of the end-to-end determinism tests.
///
/// There is no admission queue here: every submitted record is served,
/// and the snapshots read 0 for `busy_rejects`, `queue_depth` and
/// `queue_high_water`. `BUSY` belongs to the TCP path's bounded shard
/// queues ([`crate::queue`]) and is tested there, over real sockets.
#[derive(Debug)]
pub struct InProcCluster {
    policy: String,
    write_policy: String,
    shards: Vec<ShardEngine>,
}

impl InProcCluster {
    /// Builds all shards of `cfg`.
    #[must_use]
    pub fn new(cfg: &EngineConfig) -> Self {
        InProcCluster {
            policy: cfg.policy.name(),
            write_policy: cfg.sim.write_policy.name().to_owned(),
            shards: (0..cfg.shards).map(|i| ShardEngine::new(i, cfg)).collect(),
        }
    }

    /// Routes one record to its shard and runs it through the
    /// cache/energy engine at the record's own time.
    pub fn submit(&mut self, record: &Record) -> StepOutcome {
        let s = shard_of(record.block.disk(), record.block.block(), self.shards.len());
        self.shards[s].ingest(
            record.time,
            record.block.disk().index(),
            record.block.block().number(),
            record.blocks,
            record.op == IoOp::Write,
        )
    }

    /// A live cluster snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot::new(
            self.policy.clone(),
            self.write_policy.clone(),
            self.shards.iter().map(ShardEngine::snapshot).collect(),
        )
    }

    /// Closes every shard's books and returns the final snapshot.
    #[must_use]
    pub fn into_snapshot(self) -> ClusterSnapshot {
        let snaps = self
            .shards
            .into_iter()
            .map(ShardEngine::into_snapshot)
            .collect();
        ClusterSnapshot::new(self.policy, self.write_policy, snaps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_cache::policy::OnlinePolicy;
    use pc_trace::Workload;
    use pc_units::Joules;

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        let mut seen = [false; 8];
        for d in 0..4u32 {
            for b in 0..1_000u64 {
                let s = shard_of(DiskId::new(d), BlockNo::new(b), 8);
                assert_eq!(s, shard_of(DiskId::new(d), BlockNo::new(b), 8));
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "4k blocks must touch all 8 shards");
    }

    #[test]
    fn every_online_policy_builds_a_shard() {
        for policy in OnlinePolicy::ALL {
            let name = policy.name();
            let spec = PolicySpec::online(name).unwrap();
            let cfg = EngineConfig::new(2, 4).with_policy(spec);
            let mut shard = ShardEngine::new(0, &cfg);
            let out = shard.ingest(SimTime::from_millis(1), 0, 7, 1, false);
            assert!(!out.hit, "{name}: first access must miss");
            assert!(shard.snapshot().meta.is_none(), "{name}: no meta gauges");
        }
        assert!(PolicySpec::online("belady").is_none());
    }

    /// The policy table as `pc-server` reads it: every online policy
    /// name, `meta` and every write-policy spelling parse through
    /// `parse_flag` and serve a short stream into closed books.
    #[test]
    fn every_policy_table_name_parses_and_serves() {
        const POLICIES: [&str; 12] = [
            "lru", "fifo", "arc", "mq", "lirs", "2q", "pa-lru", "pa-arc", "pa-mq", "pa-lirs",
            "pa-2q", "meta",
        ];
        const WRITE_POLICIES: [&str; 7] = [
            "write-back",
            "write-through",
            "wb",
            "wt",
            "wbeu",
            "wbeu:8",
            "wtdu",
        ];
        for name in OnlinePolicy::ALL.map(OnlinePolicy::name) {
            assert!(POLICIES.contains(&name), "{name} untested");
        }
        let w = Workload::parse("synthetic").unwrap().with_requests(2_000);
        let flags = POLICIES
            .map(|p| ("--policy", p))
            .into_iter()
            .chain(WRITE_POLICIES.map(|p| ("--write-policy", p)));
        for (flag, name) in flags {
            let mut cfg = EngineConfig::new(8, w.disk_count());
            let parsed = cfg.parse_flag(flag, &mut Flags::new(vec![name.into()]));
            assert_eq!(parsed, Ok(true), "{flag} {name}");
            let mut cluster = InProcCluster::new(&cfg);
            for r in w.stream(42) {
                cluster.submit(&r);
            }
            let snap = cluster.into_snapshot();
            assert_eq!(snap.total_requests(), 2_000, "{flag} {name}");
            assert!(
                snap.shards.iter().all(|s| s.energy > Joules::ZERO),
                "{flag} {name}: a shard booked no energy"
            );
        }
    }

    #[test]
    fn meta_policy_builds_a_shard_and_reports_gauges() {
        let spec = PolicySpec::online("meta").unwrap();
        assert_eq!(spec.name(), "meta");
        assert!(
            OnlinePolicy::from_name("meta").is_none(),
            "fixed-policy sweeps must not recurse into the meta-policy"
        );
        let cfg = EngineConfig::new(2, 4).with_policy(spec);
        let mut shard = ShardEngine::new(0, &cfg);
        let out = shard.ingest(SimTime::from_millis(1), 0, 7, 1, false);
        assert!(!out.hit, "meta: first access must miss");
        let meta = shard.snapshot().meta.expect("meta shard carries gauges");
        assert_eq!(meta.active, "lru", "meta starts on its first candidate");
        assert_eq!(meta.switches, 0);
        // into_snapshot keeps the gauges across the book-closing move.
        assert!(shard.into_snapshot().meta.is_some());
    }

    #[test]
    #[should_panic(expected = "offline")]
    fn offline_policies_are_rejected() {
        let cfg = EngineConfig::new(1, 1).with_policy(PolicySpec::Belady);
        let _ = ShardEngine::new(0, &cfg);
    }

    #[test]
    fn clock_is_monotone_under_reordered_arrivals() {
        let cfg = EngineConfig::new(1, 2);
        let mut shard = ShardEngine::new(0, &cfg);
        shard.ingest(SimTime::from_millis(10), 0, 1, 1, false);
        // An earlier wall timestamp must not rewind the timeline.
        let out = shard.ingest(SimTime::from_millis(5), 0, 1, 1, false);
        assert!(out.hit);
        assert_eq!(shard.snapshot().horizon, SimTime::from_millis(10));
    }

    #[test]
    fn disk_indices_reduce_modulo_the_array() {
        let cfg = EngineConfig::new(1, 3);
        let mut shard = ShardEngine::new(0, &cfg);
        // disk 7 % 3 == 1: must not panic, and hits the same line as disk 1.
        shard.ingest(SimTime::from_millis(1), 7, 42, 1, false);
        let out = shard.ingest(SimTime::from_millis(2), 1, 42, 1, false);
        assert!(out.hit);
    }

    #[test]
    fn a_read_past_the_last_block_number_wraps_and_closes_the_books() {
        let cfg = EngineConfig::new(1, 2);
        let mut shard = ShardEngine::new(0, &cfg);
        // Blocks u64::MAX and 0 of disk 1: both miss, and the request
        // waits for the fetch that carries them.
        let miss = shard.ingest(SimTime::from_millis(1), 1, u64::MAX, 2, false);
        let mut out = Vec::new();
        assert!(shard.read_payload_into(1, u64::MAX, 2, &mut out));
        assert_eq!(out.len(), 2 * shard.block_bytes());
        let hit = shard.ingest(SimTime::from_millis(2), 1, 0, 1, false);
        assert!(!miss.hit && hit.hit);
        assert!(miss.response > hit.response, "{miss:?} vs {hit:?}");
        let live = shard.snapshot().energy;
        let fin = shard.into_snapshot();
        assert_eq!(fin.requests, 2);
        assert_eq!(fin.cache.disk_reads, 2);
        assert!(fin.energy >= live && fin.energy > Joules::ZERO);
    }

    #[test]
    fn in_process_cluster_is_deterministic() {
        let w = Workload::parse("synthetic").unwrap().with_requests(5_000);
        let run = |seed: u64| {
            let mut cluster = InProcCluster::new(&EngineConfig::new(4, 4));
            for r in w.stream(seed) {
                cluster.submit(&r);
            }
            cluster.into_snapshot()
        };
        let (a, b) = (run(42), run(42));
        assert_eq!(a.total_requests(), 5_000);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.cache, sb.cache, "shard {} counters diverged", sa.shard);
            assert_eq!(sa.energy, sb.energy, "shard {} energy diverged", sa.shard);
            assert!(sa.requests > 0, "shard {} starved", sa.shard);
            assert!(sa.energy > Joules::ZERO, "shard {} has no energy", sa.shard);
        }
        assert_eq!(a.to_json(), b.to_json());
        // A different seed gives a different stream.
        assert_ne!(run(43).to_json(), a.to_json());
    }

    #[test]
    fn engine_flags_are_read_once_and_checked_together() {
        let args =
            "--shards 3 --policy pa-2q --write-policy wbeu:8 --shard-queue 8 --slow-shard 2:5";
        let mut flags = Flags::new(args.split(' ').map(String::from).collect());
        let mut cfg = EngineConfig::new(8, 4);
        while let Some(flag) = flags.next() {
            assert!(cfg.parse_flag(&flag, &mut flags).unwrap(), "{flag}");
        }
        assert_eq!(
            (cfg.shards, cfg.queue_bound, cfg.slow_delay_micros(2)),
            (3, 8, 5)
        );
        assert_eq!(cfg.policy.name(), "pa-2q");
        assert_eq!(cfg.sim.write_policy, WritePolicy::Wbeu { dirty_limit: 8 });
        assert_eq!(cfg.check(), Ok(()));
        cfg.shards = 2;
        assert!(cfg.check().unwrap_err().starts_with("--slow-shard"));
        assert_eq!(cfg.parse_flag("--disks", &mut flags), Ok(false));
        let bad = [
            ("--shards", "0"),
            ("--shard-queue", "0"),
            ("--policy", "belady"),
        ];
        for (flag, value) in bad
            .into_iter()
            .chain([("--write-policy", "x"), ("--slow-shard", "1")])
        {
            let err = cfg.parse_flag(flag, &mut Flags::new(vec![value.into()]));
            assert!(err.unwrap_err().starts_with(flag), "{flag} {value}");
        }
    }

    #[test]
    fn slow_shard_flag_parses() {
        assert_eq!(
            parse_slow_shard("0:500"),
            Some(SlowShard {
                shard: 0,
                micros: 500
            })
        );
        assert_eq!(
            parse_slow_shard("3:1000000"),
            Some(SlowShard {
                shard: 3,
                micros: 1_000_000
            })
        );
        assert_eq!(parse_slow_shard("3"), None);
        assert_eq!(parse_slow_shard("x:5"), None);
        assert_eq!(parse_slow_shard("1:"), None);
    }

    #[test]
    fn final_snapshot_closes_the_energy_books() {
        let w = Workload::parse("synthetic").unwrap().with_requests(2_000);
        let mut cluster = InProcCluster::new(&EngineConfig::new(2, 4));
        for r in w.stream(1) {
            cluster.submit(&r);
        }
        let live = cluster.snapshot().total_energy();
        let fin = cluster.into_snapshot().total_energy();
        // Closing the books accounts the tail the lazy disks had not
        // charged yet.
        assert!(fin >= live, "final {fin} < live {live}");
        assert!(fin > Joules::ZERO);
    }
}
