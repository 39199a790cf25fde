//! Live statistics snapshots: per-shard and cluster-wide counters,
//! energy, and response-time quantiles, rendered as deterministic JSON
//! for the `STATS` opcode.

use pc_cache::{CacheStats, IntervalHistogram, MetaStats};
use pc_sim::SimReport;
use pc_units::{Joules, SimDuration, SimTime};

/// One shard's view of the world at snapshot time.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Requests stepped so far.
    pub requests: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Energy accounted so far (live snapshots lag by the disks' lazy
    /// accounting; final snapshots close the books).
    pub energy: Joules,
    /// Sum of virtual response times.
    pub response_total: SimDuration,
    /// Virtual response-time distribution.
    pub response_hist: IntervalHistogram,
    /// Latest virtual request time seen.
    pub horizon: SimTime,
    /// Requests bounced with `BUSY` because this shard's queue was full
    /// (they never reached the engine and are **not** in `requests`).
    pub busy_rejects: u64,
    /// Requests sitting in the shard's admission queue right now (live
    /// gauge; always 0 in a drained final snapshot).
    pub queue_depth: u64,
    /// Highest admission-queue depth ever observed.
    pub queue_high_water: u64,
    /// Payload CRC32C verification failures the data plane detected
    /// (each one answered `CORRUPT` and the damaged frame refilled).
    pub crc_failures: u64,
    /// Adaptive-selection gauges (`--policy meta` only): the shard's
    /// live sub-policy and switch count. `None` under fixed policies,
    /// keeping their JSON byte-identical to older servers.
    pub meta: Option<MetaStats>,
}

impl ShardSnapshot {
    /// An empty snapshot for shard `shard` (all counters zero).
    #[must_use]
    pub fn empty(shard: usize) -> Self {
        ShardSnapshot {
            shard,
            requests: 0,
            cache: CacheStats::default(),
            energy: Joules::ZERO,
            response_total: SimDuration::ZERO,
            response_hist: SimReport::response_histogram(),
            horizon: SimTime::ZERO,
            busy_rejects: 0,
            queue_depth: 0,
            queue_high_water: 0,
            crc_failures: 0,
            meta: None,
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"shard\":{},\"requests\":{},\"accesses\":{},\"hits\":{},",
                "\"hit_ratio\":{:?},\"disk_reads\":{},\"disk_writes\":{},",
                "\"log_writes\":{},\"energy_j\":{:?},\"mean_us\":{},",
                "\"p50_us\":{},\"p99_us\":{},\"horizon_us\":{},",
                "\"busy_rejects\":{},\"queue_depth\":{},\"queue_high_water\":{},",
                "\"crc_failures\":{}"
            ),
            self.shard,
            self.requests,
            self.cache.accesses,
            self.cache.hits,
            self.cache.hit_ratio(),
            self.cache.disk_reads,
            self.cache.disk_writes,
            self.cache.log_writes,
            self.energy.as_joules(),
            mean_us(self.response_total, self.requests),
            quantile_us(&self.response_hist, 0.5),
            quantile_us(&self.response_hist, 0.99),
            (self.horizon - SimTime::ZERO).as_micros(),
            self.busy_rejects,
            self.queue_depth,
            self.queue_high_water,
            self.crc_failures,
        );
        // Emitted only under --policy meta: fixed-policy snapshots stay
        // byte-identical to pre-meta servers.
        if let Some(m) = &self.meta {
            out.push_str(&format!(
                ",\"meta\":{{\"active_policy\":\"{}\",\"switches\":{},\"epochs\":{}}}",
                m.active, m.switches, m.epochs
            ));
        }
        out.push('}');
        out
    }
}

fn mean_us(total: SimDuration, requests: u64) -> u64 {
    if requests == 0 {
        0
    } else {
        (total / requests).as_micros()
    }
}

fn quantile_us(hist: &IntervalHistogram, p: f64) -> u64 {
    hist.quantile(p).as_micros()
}

/// One IO thread's live gauges (event-loop front-end only): how many
/// connections it multiplexes, how busy its poller is, and how much
/// reply backlog it carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoThreadSnapshot {
    /// IO thread index.
    pub thread: usize,
    /// Connections currently registered with this thread's poller.
    pub connections: u64,
    /// Poller wakeups (epoll_wait returns) so far.
    pub wakeups: u64,
    /// Request frames decoded so far; `frames / wakeups` is the
    /// batching factor the event loop achieves.
    pub frames: u64,
    /// Reply bytes queued but not yet written to sockets (writeback
    /// depth).
    pub writeback_bytes: u64,
    /// Approximate buffer footprint across this thread's connections
    /// (read windows + queued replies).
    pub buffer_bytes: u64,
}

impl IoThreadSnapshot {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"thread\":{},\"connections\":{},\"wakeups\":{},",
                "\"frames\":{},\"writeback_bytes\":{},\"buffer_bytes\":{}}}"
            ),
            self.thread,
            self.connections,
            self.wakeups,
            self.frames,
            self.writeback_bytes,
            self.buffer_bytes,
        )
    }
}

/// The capture ring's gauges (`--capture` mode only): how many accepted
/// requests made it into the trace file's ring, and how many were
/// dropped because the ring was full — the never-block contract's
/// visible cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureSnapshot {
    /// Records accepted into the capture ring.
    pub recorded: u64,
    /// Records dropped at a full ring (absent from the trace file).
    pub dropped: u64,
}

impl CaptureSnapshot {
    fn to_json(self) -> String {
        format!(
            "{{\"recorded\":{},\"dropped\":{}}}",
            self.recorded, self.dropped
        )
    }
}

/// The whole cluster's statistics: one [`ShardSnapshot`] per shard plus
/// the policy identity, merged totals on demand.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Replacement-policy name.
    pub policy: String,
    /// Write-policy name.
    pub write_policy: String,
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Per-IO-thread gauges; empty on the in-process path,
    /// where the JSON stays byte-identical to pre-event-loop servers.
    pub io: Vec<IoThreadSnapshot>,
    /// Capture-ring gauges; `None` unless the server runs `--capture`,
    /// keeping capture-less JSON byte-identical to older servers.
    pub capture: Option<CaptureSnapshot>,
}

impl ClusterSnapshot {
    /// Assembles a cluster snapshot, sorting the shards by index.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or has duplicate/missing indices.
    #[must_use]
    pub fn new(policy: String, write_policy: String, mut shards: Vec<ShardSnapshot>) -> Self {
        assert!(!shards.is_empty(), "a cluster has at least one shard");
        shards.sort_by_key(|s| s.shard);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.shard, i, "shard snapshots must be dense");
        }
        ClusterSnapshot {
            policy,
            write_policy,
            shards,
            io: Vec::new(),
            capture: None,
        }
    }

    /// Attaches per-IO-thread gauges (event-loop front-end). An empty
    /// vector leaves the JSON identical to a snapshot without gauges.
    #[must_use]
    pub fn with_io(mut self, io: Vec<IoThreadSnapshot>) -> Self {
        self.io = io;
        self
    }

    /// Attaches the capture-ring gauges (`--capture` mode). `None`
    /// leaves the JSON identical to a snapshot without capture.
    #[must_use]
    pub fn with_capture(mut self, capture: Option<CaptureSnapshot>) -> Self {
        self.capture = capture;
        self
    }

    /// Connections currently registered across all IO threads.
    #[must_use]
    pub fn io_connections(&self) -> u64 {
        self.io.iter().map(|t| t.connections).sum()
    }

    /// Buffer footprint across all IO threads' connections.
    #[must_use]
    pub fn io_buffer_bytes(&self) -> u64 {
        self.io.iter().map(|t| t.buffer_bytes).sum()
    }

    /// Total requests across shards.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Merged cache counters across shards.
    #[must_use]
    pub fn total_cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.merge(&s.cache);
        }
        total
    }

    /// Total energy across shards (each shard accounts its own virtual
    /// disk array).
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.shards.iter().map(|s| s.energy).sum()
    }

    /// Total requests bounced with `BUSY` across shards (summed the
    /// same way [`CacheStats::merge`] folds counters).
    #[must_use]
    pub fn total_busy_rejects(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.busy_rejects))
    }

    /// Total payload CRC failures detected across shards.
    #[must_use]
    pub fn total_crc_failures(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.crc_failures))
    }

    /// Total meta-policy switch decisions across shards (0 under fixed
    /// policies, where no shard carries meta gauges).
    #[must_use]
    pub fn total_meta_switches(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.meta.as_ref())
            .fold(0u64, |acc, m| acc.saturating_add(m.switches))
    }

    /// The worst admission-queue high-water mark across shards (a max,
    /// not a sum — depths on different shards never queue behind each
    /// other).
    #[must_use]
    pub fn max_queue_high_water(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// The merged response-time distribution across shards.
    #[must_use]
    pub fn merged_hist(&self) -> IntervalHistogram {
        let mut merged = SimReport::response_histogram();
        for s in &self.shards {
            merged.merge(&s.response_hist);
        }
        merged
    }

    /// Renders the snapshot as JSON with a fixed key order: shard
    /// objects in shard order, then merged totals. Deterministic for a
    /// given snapshot — no hash-map iteration anywhere.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 192 * self.shards.len());
        out.push_str("{\"policy\":\"");
        out.push_str(&self.policy);
        out.push_str("\",\"write_policy\":\"");
        out.push_str(&self.write_policy);
        out.push_str("\",\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push(']');
        // Emitted only when the event-loop front-end is live:
        // in-process snapshots must stay byte-identical to
        // pre-event-loop output.
        if !self.io.is_empty() {
            out.push_str(",\"io\":[");
            for (i, t) in self.io.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&t.to_json());
            }
            out.push(']');
        }
        // Emitted only under --capture, for the same byte-identity
        // reason as the io section.
        if let Some(capture) = self.capture {
            out.push_str(",\"capture\":");
            out.push_str(&capture.to_json());
        }
        let cache = self.total_cache();
        let hist = self.merged_hist();
        let requests = self.total_requests();
        let response_total: SimDuration = self.shards.iter().map(|s| s.response_total).sum();
        out.push_str(",\"total\":");
        out.push_str(&format!(
            concat!(
                "{{\"requests\":{},\"accesses\":{},\"hits\":{},\"hit_ratio\":{:?},",
                "\"disk_reads\":{},\"disk_writes\":{},\"log_writes\":{},",
                "\"energy_j\":{:?},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},",
                "\"busy_rejects\":{},\"queue_high_water\":{},\"crc_failures\":{}"
            ),
            requests,
            cache.accesses,
            cache.hits,
            cache.hit_ratio(),
            cache.disk_reads,
            cache.disk_writes,
            cache.log_writes,
            self.total_energy().as_joules(),
            mean_us(response_total, requests),
            quantile_us(&hist, 0.5),
            quantile_us(&hist, 0.99),
            self.total_busy_rejects(),
            self.max_queue_high_water(),
            self.total_crc_failures(),
        ));
        // Only under --policy meta, so fixed-policy totals stay
        // byte-identical to pre-meta servers.
        if self.shards.iter().any(|s| s.meta.is_some()) {
            out.push_str(&format!(
                ",\"meta_switches\":{}",
                self.total_meta_switches()
            ));
        }
        out.push_str("}}");
        out
    }

    /// A human-readable closing report (the daemon prints this after a
    /// graceful drain).
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "policy={} write_policy={}\n",
            self.policy, self.write_policy
        ));
        out.push_str(
            "shard     requests  hit_ratio     energy_j   p50_us   p99_us     busy  queue_hw\n",
        );
        for s in &self.shards {
            out.push_str(&format!(
                "{:<5} {:>12} {:>10.4} {:>12.2} {:>8} {:>8} {:>8} {:>9}\n",
                s.shard,
                s.requests,
                s.cache.hit_ratio(),
                s.energy.as_joules(),
                quantile_us(&s.response_hist, 0.5),
                quantile_us(&s.response_hist, 0.99),
                s.busy_rejects,
                s.queue_high_water,
            ));
        }
        let hist = self.merged_hist();
        out.push_str(&format!(
            "total {:>12} {:>10.4} {:>12.2} {:>8} {:>8} {:>8} {:>9}\n",
            self.total_requests(),
            self.total_cache().hit_ratio(),
            self.total_energy().as_joules(),
            quantile_us(&hist, 0.5),
            quantile_us(&hist, 0.99),
            self.total_busy_rejects(),
            self.max_queue_high_water(),
        ));
        for s in &self.shards {
            if let Some(m) = &s.meta {
                out.push_str(&format!(
                    "meta  shard {} active={} switches={} epochs={}\n",
                    s.shard, m.active, m.switches, m.epochs
                ));
            }
        }
        if let Some(capture) = self.capture {
            out.push_str(&format!(
                "capture: recorded={} dropped={}\n",
                capture.recorded, capture.dropped
            ));
        }
        if !self.io.is_empty() {
            out.push_str(
                "io      conns    wakeups     frames  frames/wake  writeback_b   buffer_b\n",
            );
            for t in &self.io {
                let per_wake = if t.wakeups == 0 {
                    0.0
                } else {
                    t.frames as f64 / t.wakeups as f64
                };
                out.push_str(&format!(
                    "{:<5} {:>6} {:>10} {:>10} {:>12.1} {:>12} {:>10}\n",
                    t.thread,
                    t.connections,
                    t.wakeups,
                    t.frames,
                    per_wake,
                    t.writeback_bytes,
                    t.buffer_bytes,
                ));
            }
        }
        out
    }
}

/// The fields a client needs from a STATS JSON payload.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSummary {
    /// Total requests served.
    pub requests: u64,
    /// Total cache hits.
    pub hits: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Total requests bounced with `BUSY` across shards.
    pub busy_rejects: u64,
    /// Worst admission-queue high-water mark across shards.
    pub queue_high_water: u64,
    /// Total payload CRC failures detected across shards (0 for
    /// snapshots predating the data plane).
    pub crc_failures: u64,
    /// Per-shard energy in joules, indexed by shard.
    pub shard_energy_j: Vec<f64>,
    /// Connections registered across IO threads (0 when the snapshot
    /// carries no `io` section — the in-process path).
    pub io_connections: u64,
    /// Buffer footprint across IO threads (0 without an `io` section).
    pub io_buffer_bytes: u64,
    /// Records accepted into the capture ring (0 when the snapshot
    /// carries no `capture` section — servers not running `--capture`).
    pub capture_recorded: u64,
    /// Records dropped at a full capture ring (0 without capture).
    pub capture_dropped: u64,
    /// Total meta-policy switch decisions across shards (0 when the
    /// snapshot carries no meta gauges — fixed-policy servers).
    pub meta_switches: u64,
}

/// Extracts a [`StatsSummary`] from a STATS JSON payload. The payload
/// must be one object whose braces and brackets nest (outside strings),
/// followed by nothing but whitespace. Returns `None` on anything
/// malformed — the load generator treats that as a failed run.
///
/// Optional counters (`busy_rejects`, `queue_high_water`,
/// `crc_failures`, `meta_switches` and the capture section's) read 0
/// when absent, for snapshots from older servers, and make the parse fail
/// when present but not a number.
///
/// This is a purpose-built extractor for the snapshot format above, not
/// a general JSON parser (the workspace is dependency-free by design).
#[must_use]
pub fn parse_stats_json(s: &str) -> Option<StatsSummary> {
    if !is_one_object(s) {
        return None;
    }
    let total_at = s.rfind("\"total\":{")?;
    let (shard_part, total_part) = s.split_at(total_at);
    let requests = num_after(total_part, "\"requests\":")?.parse().ok()?;
    let hits = num_after(total_part, "\"hits\":")?.parse().ok()?;
    let energy_j = num_after(total_part, "\"energy_j\":")?.parse().ok()?;
    // Absent on snapshots from pre-backpressure servers, and
    // `meta_switches` under fixed policies.
    let busy_rejects = optional_count(total_part, "\"busy_rejects\":")?;
    let queue_high_water = optional_count(total_part, "\"queue_high_water\":")?;
    let crc_failures = optional_count(total_part, "\"crc_failures\":")?;
    let meta_switches = optional_count(total_part, "\"meta_switches\":")?;
    // The optional "io" section sits between the shard array and the
    // total; split it off so its counters are not mistaken for shard
    // fields (it carries no "energy_j" keys, but being explicit is
    // cheaper than being lucky).
    let (shard_part, io_part) = match shard_part.find("\"io\":[") {
        Some(at) => shard_part.split_at(at),
        None => (shard_part, ""),
    };
    let mut io_connections = 0u64;
    let mut io_buffer_bytes = 0u64;
    let mut rest = io_part;
    while let Some(at) = rest.find("\"connections\":") {
        rest = &rest[at..];
        io_connections += num_after(rest, "\"connections\":")?.parse::<u64>().ok()?;
        io_buffer_bytes += num_after(rest, "\"buffer_bytes\":")?.parse::<u64>().ok()?;
        rest = &rest[14..];
    }
    // The optional "capture" section (between io and total); absent on
    // servers not running --capture, and on older snapshots: zero.
    let (capture_recorded, capture_dropped) = match s.find("\"capture\":{") {
        Some(at) => {
            let cap = &s[at..];
            (
                optional_count(cap, "\"recorded\":")?,
                optional_count(cap, "\"dropped\":")?,
            )
        }
        None => (0, 0),
    };
    let mut shard_energy_j = Vec::new();
    let mut rest = shard_part;
    while let Some(at) = rest.find("\"energy_j\":") {
        rest = &rest[at..];
        shard_energy_j.push(num_after(rest, "\"energy_j\":")?.parse().ok()?);
        rest = &rest[11..];
    }
    Some(StatsSummary {
        requests,
        hits,
        energy_j,
        busy_rejects,
        queue_high_water,
        crc_failures,
        shard_energy_j,
        io_connections,
        io_buffer_bytes,
        capture_recorded,
        capture_dropped,
        meta_switches,
    })
}

/// Whether `s` is one JSON object, optionally surrounded by whitespace:
/// brackets nest and match outside strings (escapes honoured), and
/// nothing but whitespace follows the closing brace.
fn is_one_object(s: &str) -> bool {
    let body = s.trim_start();
    if !body.starts_with('{') {
        return false;
    }
    let mut open = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (i, b) in body.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => open.push(b'}'),
            b'[' => open.push(b']'),
            b'}' | b']' => {
                if open.pop() != Some(b) {
                    return false;
                }
                if open.is_empty() {
                    return body[i + 1..].trim().is_empty();
                }
            }
            _ => {}
        }
    }
    false
}

/// An optional counter after `key`: 0 when the key is absent, `None` when
/// its value is not a non-negative integer.
fn optional_count(s: &str, key: &str) -> Option<u64> {
    if s.contains(key) {
        num_after(s, key)?.parse().ok()
    } else {
        Some(0)
    }
}

fn num_after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let at = s.find(key)? + key.len();
    let rest = &s[at..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_with(shard: usize, requests: u64, hits: u64, energy: f64) -> ShardSnapshot {
        let mut s = ShardSnapshot::empty(shard);
        s.requests = requests;
        s.cache.accesses = requests;
        s.cache.hits = hits;
        s.energy = Joules::new(energy);
        for _ in 0..requests {
            s.response_hist.record(SimDuration::from_micros(300));
            s.response_total += SimDuration::from_micros(300);
        }
        s
    }

    fn cluster() -> ClusterSnapshot {
        ClusterSnapshot::new(
            "pa-lru".into(),
            "write-back".into(),
            vec![snapshot_with(1, 10, 5, 2.5), snapshot_with(0, 30, 15, 7.5)],
        )
    }

    #[test]
    fn totals_merge_across_shards() {
        let c = cluster();
        assert_eq!(c.total_requests(), 40);
        assert_eq!(c.total_cache().hits, 20);
        assert!((c.total_energy().as_joules() - 10.0).abs() < 1e-9);
        assert_eq!(c.merged_hist().total(), 40);
        // new() sorted the shards dense.
        assert_eq!(c.shards[0].shard, 0);
        assert_eq!(c.shards[1].shard, 1);
    }

    #[test]
    fn json_roundtrips_through_the_summary_extractor() {
        let c = cluster();
        let json = c.to_json();
        let summary = parse_stats_json(&json).expect("snapshot JSON must parse");
        assert_eq!(summary.requests, 40);
        assert_eq!(summary.hits, 20);
        assert!((summary.energy_j - 10.0).abs() < 1e-9);
        assert_eq!(summary.shard_energy_j, vec![7.5, 2.5]);
    }

    #[test]
    fn json_is_deterministic_and_shard_ordered() {
        let c = cluster();
        assert_eq!(c.to_json(), c.to_json());
        let json = c.to_json();
        let s0 = json.find("\"shard\":0").unwrap();
        let s1 = json.find("\"shard\":1").unwrap();
        assert!(s0 < s1, "shards must serialize in index order");
        assert!(json.starts_with("{\"policy\":\"pa-lru\""));
    }

    #[test]
    fn busy_gauges_merge_and_roundtrip() {
        let mut a = snapshot_with(0, 10, 5, 1.0);
        a.busy_rejects = 7;
        a.queue_depth = 3;
        a.queue_high_water = 12;
        let mut b = snapshot_with(1, 10, 5, 1.0);
        b.busy_rejects = 2;
        b.queue_high_water = 40;
        let c = ClusterSnapshot::new("lru".into(), "write-back".into(), vec![a, b]);
        assert_eq!(c.total_busy_rejects(), 9);
        assert_eq!(c.max_queue_high_water(), 40);

        let json = c.to_json();
        assert!(json.contains("\"busy_rejects\":7"));
        assert!(json.contains("\"queue_depth\":3"));
        assert!(json.contains("\"busy_rejects\":9"));
        assert!(json.contains("\"queue_high_water\":40"));
        let summary = parse_stats_json(&json).expect("parses");
        assert_eq!(summary.busy_rejects, 9);
        assert_eq!(summary.queue_high_water, 40);
        assert_eq!(summary.shard_energy_j.len(), 2);

        let table = c.render_table();
        assert!(table.contains("busy"), "closing table shows busy column");
        assert!(table.contains("queue_hw"));
    }

    #[test]
    fn crc_failures_sum_and_roundtrip() {
        let mut a = snapshot_with(0, 10, 5, 1.0);
        a.crc_failures = 3;
        let mut b = snapshot_with(1, 10, 5, 1.0);
        b.crc_failures = 4;
        let c = ClusterSnapshot::new("lru".into(), "write-back".into(), vec![a, b]);
        assert_eq!(c.total_crc_failures(), 7);
        let json = c.to_json();
        assert!(json.contains("\"crc_failures\":3"));
        assert!(json.contains("\"crc_failures\":7"));
        let summary = parse_stats_json(&json).expect("parses");
        assert_eq!(summary.crc_failures, 7);
        // Clean clusters report the counter as zero, not absent.
        assert_eq!(
            parse_stats_json(&cluster().to_json()).unwrap().crc_failures,
            0
        );
    }

    #[test]
    fn meta_gauges_are_absent_by_default_and_roundtrip_when_attached() {
        let plain = cluster();
        assert!(!plain.to_json().contains("\"meta"));
        assert!(!plain.render_table().contains("meta "));
        assert_eq!(parse_stats_json(&plain.to_json()).unwrap().meta_switches, 0);

        let mut a = snapshot_with(0, 10, 5, 1.0);
        a.meta = Some(MetaStats {
            active: "pa-lru".into(),
            switches: 2,
            epochs: 7,
        });
        let mut b = snapshot_with(1, 10, 5, 1.0);
        b.meta = Some(MetaStats {
            active: "lru".into(),
            switches: 1,
            epochs: 6,
        });
        let c = ClusterSnapshot::new("meta".into(), "write-back".into(), vec![a, b]);
        assert_eq!(c.total_meta_switches(), 3);
        let json = c.to_json();
        assert!(
            json.contains("\"meta\":{\"active_policy\":\"pa-lru\",\"switches\":2,\"epochs\":7}")
        );
        assert!(json.contains("\"meta\":{\"active_policy\":\"lru\",\"switches\":1,\"epochs\":6}"));
        assert!(json.ends_with("\"meta_switches\":3}}"));
        let summary = parse_stats_json(&json).expect("meta-bearing snapshot parses");
        assert_eq!(summary.meta_switches, 3);
        assert_eq!(summary.requests, 20);
        assert_eq!(summary.shard_energy_j.len(), 2);

        let table = c.render_table();
        assert!(table.contains("meta  shard 0 active=pa-lru switches=2 epochs=7"));
        assert!(table.contains("meta  shard 1 active=lru switches=1 epochs=6"));
    }

    #[test]
    fn io_gauges_are_absent_by_default_and_roundtrip_when_attached() {
        let plain = cluster();
        let with_empty = cluster().with_io(Vec::new());
        assert_eq!(
            plain.to_json(),
            with_empty.to_json(),
            "an empty io section must not perturb the JSON bytes"
        );
        assert!(!plain.to_json().contains("\"io\":"));

        let io = vec![
            IoThreadSnapshot {
                thread: 0,
                connections: 1000,
                wakeups: 50,
                frames: 400,
                writeback_bytes: 128,
                buffer_bytes: 4_096_000,
            },
            IoThreadSnapshot {
                thread: 1,
                connections: 24,
                wakeups: 9,
                frames: 18,
                writeback_bytes: 0,
                buffer_bytes: 98_304,
            },
        ];
        let c = cluster().with_io(io);
        assert_eq!(c.io_connections(), 1024);
        assert_eq!(c.io_buffer_bytes(), 4_194_304);
        let json = c.to_json();
        assert!(json.contains("\"io\":[{\"thread\":0"));
        let io_at = json.find("\"io\":").unwrap();
        assert!(
            json.find("\"shards\":").unwrap() < io_at && io_at < json.rfind("\"total\":").unwrap(),
            "io section must sit between shards and total"
        );
        let summary = parse_stats_json(&json).expect("io-bearing snapshot parses");
        assert_eq!(summary.io_connections, 1024);
        assert_eq!(summary.io_buffer_bytes, 4_194_304);
        // The io section must not leak into shard energy extraction.
        assert_eq!(summary.shard_energy_j.len(), 2);
        assert_eq!(summary.requests, 40);

        let table = c.render_table();
        assert!(table.contains("frames/wake"));
        assert!(table.contains("1000"));
    }

    #[test]
    fn capture_section_is_absent_by_default_and_roundtrips_when_attached() {
        let plain = cluster();
        let with_none = cluster().with_capture(None);
        assert_eq!(
            plain.to_json(),
            with_none.to_json(),
            "a None capture must not perturb the JSON bytes"
        );
        assert!(!plain.to_json().contains("\"capture\":"));
        let summary = parse_stats_json(&plain.to_json()).unwrap();
        assert_eq!((summary.capture_recorded, summary.capture_dropped), (0, 0));

        let c = cluster().with_capture(Some(CaptureSnapshot {
            recorded: 1_234,
            dropped: 56,
        }));
        let json = c.to_json();
        assert!(json.contains("\"capture\":{\"recorded\":1234,\"dropped\":56}"));
        let cap_at = json.find("\"capture\":").unwrap();
        assert!(
            json.find("\"shards\":").unwrap() < cap_at
                && cap_at < json.rfind("\"total\":").unwrap(),
            "capture section must sit between shards and total"
        );
        let summary = parse_stats_json(&json).expect("capture-bearing snapshot parses");
        assert_eq!(summary.capture_recorded, 1_234);
        assert_eq!(summary.capture_dropped, 56);
        assert_eq!(summary.requests, 40, "totals still parse");
        assert!(c
            .render_table()
            .contains("capture: recorded=1234 dropped=56"));
    }

    /// A STATS reply as a two-shard `lru` server sent it over loopback
    /// (one connection, a miss and a hit on one block).
    const LIVE_REPLY: &str = concat!(
        r#"{"policy":"lru","write_policy":"write-back","shards":[{"shard":0,"requests":0,"#,
        r#""accesses":0,"hits":0,"hit_ratio":0.0,"disk_reads":0,"disk_writes":0,"#,
        r#""log_writes":0,"energy_j":0.0,"mean_us":0,"p50_us":0,"p99_us":0,"horizon_us":0,"#,
        r#""busy_rejects":0,"queue_depth":0,"queue_high_water":0,"crc_failures":0},"#,
        r#"{"shard":1,"requests":2,"accesses":2,"hits":1,"hit_ratio":0.5,"disk_reads":1,"#,
        r#""disk_writes":0,"log_writes":0,"energy_j":0.070701,"mean_us":2505,"p50_us":200,"#,
        r#""p99_us":6400,"horizon_us":830,"busy_rejects":0,"queue_depth":0,"#,
        r#""queue_high_water":2,"crc_failures":0}],"io":[{"thread":0,"connections":1,"#,
        r#""wakeups":2,"frames":3,"writeback_bytes":0,"buffer_bytes":4096}],"#,
        r#""total":{"requests":2,"accesses":2,"hits":1,"hit_ratio":0.5,"disk_reads":1,"#,
        r#""disk_writes":0,"log_writes":0,"energy_j":0.070701,"mean_us":2505,"p50_us":200,"#,
        r#""p99_us":6400,"busy_rejects":0,"queue_high_water":2,"crc_failures":0}}"#,
    );

    #[test]
    fn a_live_stats_reply_parses() {
        let summary = parse_stats_json(LIVE_REPLY).expect("a live reply parses");
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.hits, 1);
        assert_eq!(summary.energy_j, 0.070701);
        assert_eq!(summary.shard_energy_j, [0.0, 0.070701]);
        assert_eq!(summary.queue_high_water, 2);
        assert_eq!((summary.io_connections, summary.io_buffer_bytes), (1, 4096));
        assert_eq!((summary.busy_rejects, summary.crc_failures), (0, 0));
    }

    #[test]
    fn extractor_accepts_one_document_and_typed_counters_only() {
        let capture = {
            let mut c = cluster();
            c.capture = Some(CaptureSnapshot {
                recorded: 5,
                dropped: 1,
            });
            c.to_json()
        };
        let odd_name = {
            let mut c = cluster();
            c.policy = "p{[x".into();
            c.to_json()
        };
        let live = |from: &str, to: &str| LIVE_REPLY.replacen(from, to, 1);
        let total = |from: &str, to: &str| {
            let at = LIVE_REPLY.rfind("\"total\":").unwrap();
            format!(
                "{}{}",
                &LIVE_REPLY[..at],
                LIVE_REPLY[at..].replacen(from, to, 1)
            )
        };
        // (payload, Some(busy_rejects) if it must parse, None if not)
        let cases: Vec<(String, Option<u64>)> = vec![
            (LIVE_REPLY.into(), Some(0)),
            (format!("{LIVE_REPLY}\n"), Some(0)),
            (format!(" \t{LIVE_REPLY}\r\n "), Some(0)),
            (format!("{LIVE_REPLY}x"), None),
            (format!("{LIVE_REPLY}{{}}"), None),
            (format!("{LIVE_REPLY}}}"), None),
            (format!("x{LIVE_REPLY}"), None),
            (LIVE_REPLY.replacen("}]", "]]", 1), None),
            (odd_name, Some(0)),
            (live(r#""policy":"lru""#, r#""policy":"l\"{ru""#), Some(0)),
            (live(r#""policy":"lru""#, r#""policy":"l\\""#), Some(0)),
            (total(r#""crc_failures":0}"#, r#""crc_failures":0"}"#), None),
            (total(r#""busy_rejects":0"#, r#""busy_rejects":7"#), Some(7)),
            (total(r#","busy_rejects":0"#, ""), Some(0)),
            (total(r#""busy_rejects":0"#, r#""busy_rejects":"7""#), None),
            (
                total(r#""queue_high_water":2"#, r#""queue_high_water":"2""#),
                None,
            ),
            (total(r#""crc_failures":0"#, r#""crc_failures":null"#), None),
            (
                total(
                    r#""crc_failures":0"#,
                    r#""crc_failures":0,"meta_switches":3"#,
                ),
                Some(0),
            ),
            (
                total(
                    r#""crc_failures":0"#,
                    r#""crc_failures":0,"meta_switches":"3""#,
                ),
                None,
            ),
            (capture.clone(), Some(0)),
            (
                capture.replacen(r#""dropped":1"#, r#""dropped":"1""#, 1),
                None,
            ),
        ];
        for (i, (payload, want)) in cases.iter().enumerate() {
            let got = parse_stats_json(payload).map(|s| s.busy_rejects);
            assert_eq!(got, *want, "case {i}: {payload}");
        }
    }

    #[test]
    fn extractor_rejects_malformed_payloads() {
        assert_eq!(parse_stats_json("{\"total\":{"), None);
        assert_eq!(parse_stats_json("not json at all"), None);
        assert_eq!(parse_stats_json("}{"), None);
        let c = cluster();
        let truncated = &c.to_json()[..40];
        assert_eq!(parse_stats_json(truncated), None);
    }

    #[test]
    fn render_table_mentions_every_shard_and_the_total() {
        let t = cluster().render_table();
        assert!(t.contains("policy=pa-lru"));
        assert!(t.lines().count() >= 5);
        assert!(t.contains("total"));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_shard_indices_are_rejected() {
        let _ = ClusterSnapshot::new(
            "lru".into(),
            "write-back".into(),
            vec![snapshot_with(0, 1, 1, 0.0), snapshot_with(2, 1, 1, 0.0)],
        );
    }
}
