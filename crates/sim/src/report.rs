//! Whole-simulation reports.

use pc_cache::{CacheStats, IntervalHistogram};
use pc_disksim::DiskReport;
use pc_units::{Joules, SimDuration, SimTime};

/// Wall-clock self-timing of one simulation run (host time, not
/// simulated time).
///
/// Timing is observational: it is excluded from [`SimReport`] equality
/// and from [`SimReport::to_json`], so reports stay byte-identical across
/// machines and `--jobs` settings.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTiming {
    /// Wall-clock time the run took.
    pub wall: std::time::Duration,
    /// Trace requests simulated per wall-clock second.
    pub req_per_sec: f64,
}

impl RunTiming {
    /// Builds timing from a measured wall time and the request count.
    #[must_use]
    pub fn from_wall(wall: std::time::Duration, requests: u64) -> Self {
        let secs = wall.as_secs_f64();
        RunTiming {
            wall,
            req_per_sec: if secs > 0.0 {
                requests as f64 / secs
            } else {
                0.0
            },
        }
    }
}

/// Everything one simulation run produces: cache counters, per-disk
/// energy/time accounting, log-device accounting (WTDU), and the
/// client-visible response-time aggregate.
///
/// Equality ignores [`timing`](SimReport::timing): two runs of the same
/// experiment compare equal however long they took.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Replacement policy name.
    pub policy: String,
    /// Write policy name.
    pub write_policy: String,
    /// Cache counters.
    pub cache: CacheStats,
    /// Per-disk accounting, indexed by disk.
    pub disks: Vec<DiskReport>,
    /// Log-device accounting (WTDU only). Only its *service* energy is
    /// charged to the run (the log device is assumed always-on for other
    /// reasons, matching the paper).
    pub log: Option<DiskReport>,
    /// Sum of client-visible response times across all trace requests.
    pub response_total: SimDuration,
    /// Distribution of per-request response times (geometric bins from
    /// 100 µs), for tail-latency queries.
    pub response_hist: IntervalHistogram,
    /// Number of trace requests.
    pub requests: u64,
    /// Simulation horizon (energy is accounted up to this instant).
    pub horizon: SimTime,
    /// Wall-clock self-timing (excluded from equality and JSON).
    pub timing: RunTiming,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `timing`, which is host noise.
        self.policy == other.policy
            && self.write_policy == other.write_policy
            && self.cache == other.cache
            && self.disks == other.disks
            && self.log == other.log
            && self.response_total == other.response_total
            && self.response_hist == other.response_hist
            && self.requests == other.requests
            && self.horizon == other.horizon
    }
}

impl SimReport {
    /// Total energy: all data-disk energy plus the log device's
    /// incremental service energy (paper §6 includes log-write energy in
    /// WTDU's numbers).
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        let disks: Joules = self.disks.iter().map(DiskReport::total_energy).sum();
        let log = self.log.as_ref().map_or(Joules::ZERO, |l| l.service_energy);
        disks + log
    }

    /// Mean client-visible response time.
    #[must_use]
    pub fn mean_response(&self) -> SimDuration {
        if self.requests == 0 {
            SimDuration::ZERO
        } else {
            self.response_total / self.requests
        }
    }

    /// The `p`-quantile of per-request response times (histogram upper
    /// bound; e.g. `response_quantile(0.99)` for the p99 tail).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    #[must_use]
    pub fn response_quantile(&self, p: f64) -> SimDuration {
        self.response_hist.quantile(p)
    }

    /// The fine-binned histogram a runner should collect responses into.
    #[must_use]
    pub fn response_histogram() -> IntervalHistogram {
        // 100 µs … ~1.7 h in 24 doubling bins: covers cache hits through
        // multi-spin-up pile-ups.
        IntervalHistogram::geometric(SimDuration::from_micros(100), 24)
    }

    /// This run's energy as a fraction of a baseline run's (the paper's
    /// "normalized to LRU" bars).
    #[must_use]
    pub fn energy_ratio(&self, baseline: &SimReport) -> f64 {
        self.total_energy().as_joules() / baseline.total_energy().as_joules()
    }

    /// Percentage energy saving relative to a baseline (positive = this
    /// run uses less energy), the paper's Figure 8/9 metric.
    #[must_use]
    pub fn saving_over(&self, baseline: &SimReport) -> f64 {
        100.0 * (1.0 - self.energy_ratio(baseline))
    }

    /// Total spin-ups across all data disks.
    #[must_use]
    pub fn total_spin_ups(&self) -> u64 {
        self.disks.iter().map(|d| d.spin_ups).sum()
    }

    /// Per-disk total energy, **disk-indexed** (element `i` is disk `i`).
    ///
    /// Downstream consumers (loadgen closing reports, per-policy energy
    /// breakdowns) must iterate this vector — never collect disks into a
    /// hash map first — so the serialized breakdown is byte-stable across
    /// runs and hosts.
    #[must_use]
    pub fn energy_by_disk(&self) -> Vec<Joules> {
        self.disks.iter().map(DiskReport::total_energy).collect()
    }

    /// Serializes the report as a deterministic JSON document.
    ///
    /// Hand-rolled (the workspace is fully self-contained, no serde):
    /// fixed key order, durations as integer microseconds, energies as
    /// joules. [`timing`](SimReport::timing) is deliberately omitted so
    /// identical simulations serialize byte-identically regardless of
    /// host speed or `--jobs`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        push_str_field(&mut out, "policy", &self.policy);
        out.push(',');
        push_str_field(&mut out, "write_policy", &self.write_policy);
        out.push_str(",\"cache\":");
        push_cache_json(&mut out, &self.cache);
        out.push_str(",\"energy_by_disk_j\":[");
        // Disk-indexed, not map-ordered: element i is disk i, so the
        // document is byte-stable run over run.
        for (i, e) in self.energy_by_disk().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            use std::fmt::Write as _;
            let _ = write!(out, "{:?}", e.as_joules());
        }
        out.push_str("],\"disks\":[");
        for (i, d) in self.disks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_disk_json(&mut out, d);
        }
        out.push_str("],\"log\":");
        match &self.log {
            Some(l) => push_disk_json(&mut out, l),
            None => out.push_str("null"),
        }
        use std::fmt::Write as _;
        let _ = write!(
            out,
            ",\"response_total_us\":{},\"response_hist\":",
            self.response_total.as_micros()
        );
        push_hist_json(&mut out, &self.response_hist);
        let _ = write!(
            out,
            ",\"requests\":{},\"horizon_us\":{}}}",
            self.requests,
            self.horizon.as_micros()
        );
        out
    }
}

/// Appends `"key":"value"` with minimal string escaping (policy names are
/// plain ASCII, but quote/backslash are escaped defensively).
fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_cache_json(out: &mut String, c: &CacheStats) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"accesses\":{},\"hits\":{},\"reads\":{},\"writes\":{},\
         \"evictions\":{},\"dirty_evictions\":{},\"disk_reads\":{},\
         \"disk_writes\":{},\"log_writes\":{},\"prefetch_reads\":{}}}",
        c.accesses,
        c.hits,
        c.reads,
        c.writes,
        c.evictions,
        c.dirty_evictions,
        c.disk_reads,
        c.disk_writes,
        c.log_writes,
        c.prefetch_reads
    );
}

fn push_disk_json(out: &mut String, d: &DiskReport) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"service_time_us\":{}", d.service_time.as_micros());
    out.push_str(",\"mode_time_us\":[");
    for (i, t) in d.mode_time.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", t.as_micros());
    }
    let _ = write!(
        out,
        "],\"spin_down_time_us\":{},\"spin_up_time_us\":{},\
         \"service_energy_j\":{:?}",
        d.spin_down_time.as_micros(),
        d.spin_up_time.as_micros(),
        d.service_energy.as_joules()
    );
    out.push_str(",\"mode_energy_j\":[");
    for (i, e) in d.mode_energy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{:?}", e.as_joules());
    }
    let _ = write!(
        out,
        "],\"spin_down_energy_j\":{:?},\"spin_up_energy_j\":{:?},\
         \"requests\":{},\"spin_downs\":{},\"spin_ups\":{},\
         \"response_total_us\":{},\"response_max_us\":{},\
         \"interarrival_total_us\":{},\"interarrival_count\":{}}}",
        d.spin_down_energy.as_joules(),
        d.spin_up_energy.as_joules(),
        d.requests,
        d.spin_downs,
        d.spin_ups,
        d.response_total.as_micros(),
        d.response_max.as_micros(),
        d.interarrival_total.as_micros(),
        d.interarrival_count
    );
}

fn push_hist_json(out: &mut String, h: &IntervalHistogram) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"total\":{},\"cdf\":[", h.total());
    for (i, (edge, frac)) in h.cdf().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{:?}]", edge.as_micros(), frac);
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_energy(joules: f64) -> SimReport {
        let mut d = DiskReport::new(1);
        d.service_energy = Joules::new(joules);
        SimReport {
            disks: vec![d],
            requests: 4,
            response_total: SimDuration::from_secs(2),
            ..SimReport::default()
        }
    }

    #[test]
    fn ratios_and_savings() {
        let a = report_with_energy(80.0);
        let b = report_with_energy(100.0);
        assert!((a.energy_ratio(&b) - 0.8).abs() < 1e-12);
        assert!((a.saving_over(&b) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn log_service_energy_counts_but_only_service() {
        let mut r = report_with_energy(10.0);
        let mut log = DiskReport::new(1);
        log.service_energy = Joules::new(5.0);
        log.mode_energy[0] = Joules::new(1_000.0); // idle power: excluded
        r.log = Some(log);
        assert!((r.total_energy().as_joules() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mean_response() {
        let r = report_with_energy(1.0);
        assert_eq!(r.mean_response(), SimDuration::from_millis(500));
        assert_eq!(SimReport::default().mean_response(), SimDuration::ZERO);
    }

    #[test]
    fn energy_breakdown_is_disk_indexed_and_byte_stable() {
        let mut r = report_with_energy(10.0);
        let mut d1 = DiskReport::new(1);
        d1.service_energy = Joules::new(3.0);
        r.disks.push(d1);
        let by_disk = r.energy_by_disk();
        assert_eq!(by_disk.len(), 2);
        assert!((by_disk[0].as_joules() - 10.0).abs() < 1e-12);
        assert!((by_disk[1].as_joules() - 3.0).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"energy_by_disk_j\":[10.0,3.0]"), "{json}");
        assert_eq!(json, r.clone().to_json(), "serialization is stable");
    }
}
