//! Every workload and metric the benchmark knows, by name. A self-test
//! holds `BENCHMARK.json` to these lists.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric may worsen before `compare` calls it regressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base side's median.
    Share(f64),
    /// An absolute distance in the metric's own unit.
    Absolute(f64),
    /// A layer metric: reported, never judged.
    Ungated,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    metric(name, unit, better, Bound::Ungated)
}

use Better::{Higher, Lower};
use Bound::{Absolute, Share};

/// Seconds one run measures (`BENCHMARK.json` `run_seconds`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u32 = 18;

pub const WORKLOADS: &[(&str, &str)] = &[
    ("sim-oltp", "sparse OLTP arrivals, 97% misses: every request reaches disksim, long idle gaps work the DPM ladder and the PA classifier; the paper's headline saving (Fig. 6a) lives here"),
    ("sim-cello", "dense, cold, multi-block Cello96 traffic: the cache core does the work and PA-LRU saves little, so it is the control for energy changes; the only workload with .pct ingest"),
    ("sim-write", "write-heavy synthetic trace under WT/WB/WBEU/WTDU: dirty tracking, flushes, the WTDU log and live disk state, so a read-path gain that costs the write path shows"),
    ("server-meta", "19-byte metadata frames over loopback, closed loop: per-request front-end overhead is ~90% of the CPU, the engine step ~10%; bypasses the payload slab"),
    ("server-payload", "4 KiB-block READ_DATA/WRITE_DATA over loopback, closed loop, every reply byte-verified: slab fill, CRC32C and copies dominate; reads and writes gated together"),
];

/// Metrics every workload reports and the driver gates
/// (`BENCHMARK.json` `end_to_end`).
///
/// Host-time metrics carry the widest bound the contract allows: an
/// idle CRC loop on the 2-core reference box drifts by ±13% between
/// 5-second medians, and ten-seed spreads of `req_per_s` measured 5-7%
/// in calm minutes and up to 19% in bad ones. The simulated metrics
/// repeat exactly per seed; their bounds only have to clear the
/// seed-to-seed spread (0.3% for energy, 7% for the mean response on
/// `sim-cello`, where a handful of spin-up waits move it).
pub const END_TO_END: &[Metric] = &[
    metric("setup_s", "s", Lower, Share(0.25)),
    metric("req_per_s", "1/s", Higher, Share(0.25)),
    metric("cpu_us_per_req", "us", Lower, Share(0.25)),
    metric("peak_rss_mb", "MiB", Lower, Share(0.25)),
    metric("sim_energy_j", "J", Lower, Share(0.02)),
    metric("sim_resp_ms", "ms", Lower, Share(0.25)),
];

/// End-to-end metrics only some workloads have, or that can read zero:
/// printed by every untraced run, recorded for `compare` with the bounds
/// below, and reported to the driver through the traced run
/// (`BENCHMARK.json` lists them under `per_layer`, which has no bounds).
pub const WORKLOAD_END_TO_END: &[Metric] = &[
    metric("offline_req_per_s", "1/s", Higher, Share(0.25)),
    metric("ingest_rec_per_s", "1/s", Higher, Share(0.25)),
    metric("lat_p50_us", "us", Lower, Share(0.25)),
    metric("lat_p99_us", "us", Lower, Share(0.25)),
    metric("payload_mb_per_s", "MB/s", Higher, Share(0.25)),
    metric("energy_saving_pct", "%", Higher, Absolute(0.1)),
    metric("fail_ratio", "ratio", Lower, Absolute(0.0)),
];

/// Metrics of single layers, measured by the traced run only
/// (`BENCHMARK.json` `per_layer`, after the six workload end-to-end
/// metrics above).
pub const PER_LAYER: &[Metric] = &[
    layer("core.lru_ns_per_access", "ns", Lower),
    layer("core.palru_ns_per_access", "ns", Lower),
    layer("core.meta_ns_per_access", "ns", Lower),
    layer("core.opg_ns_per_access", "ns", Lower),
    layer("core.opg_build_s", "s", Lower),
    layer("core.bloom_ns_per_op", "ns", Lower),
    layer("core.hit_ratio", "ratio", Higher),
    layer("core.evictions", "count", Lower),
    layer("core.disk_ops_per_req", "ratio", Lower),
    layer("diskmodel.pricing_ns_per_lookup", "ns", Lower),
    layer("disksim.ns_per_service", "ns", Lower),
    layer("disksim.spin_ups", "count", Lower),
    layer("disksim.standby_share", "ratio", Higher),
    layer("sim.lru_step_ns", "ns", Lower),
    layer("sim.palru_step_ns", "ns", Lower),
    layer("sim.opg_step_ns", "ns", Lower),
    layer("sim.glue_ns_per_req", "ns", Lower),
    layer("sim.wt_step_ns", "ns", Lower),
    layer("sim.wb_step_ns", "ns", Lower),
    layer("sim.wbeu_step_ns", "ns", Lower),
    layer("sim.wtdu_step_ns", "ns", Lower),
    layer("sim.log_writes", "count", Lower),
    layer("sim.dirty_evictions", "count", Lower),
    layer("sim.stream_req_per_s", "1/s", Higher),
    layer("trace.gen_rec_per_s", "1/s", Higher),
    layer("trace.stream_ns_per_rec", "ns", Lower),
    layer("tracefile.write_rec_per_s", "1/s", Higher),
    layer("tracefile.mapped_rec_per_s", "1/s", Higher),
    layer("tracefile.reader_rec_per_s", "1/s", Higher),
    layer("tracefile.crc_computations", "count", Lower),
    layer("crc.gb_per_s", "GB/s", Higher),
    layer("server.protocol.decode_ns_per_frame", "ns", Lower),
    layer("server.protocol.decode_data_ns_per_frame", "ns", Lower),
    layer("server.protocol.encode_ns_per_frame", "ns", Lower),
    layer("server.queue.hop_ns", "ns", Lower),
    layer("server.shard.ingest_ns_per_req", "ns", Lower),
    layer("server.shard.inproc_req_per_s", "1/s", Higher),
    layer("server.shard.read_payload_gb_per_s", "GB/s", Higher),
    layer("server.shard.write_payload_gb_per_s", "GB/s", Higher),
    layer("server.data.fill_gb_per_s", "GB/s", Higher),
    layer("server.data.read_verified_gb_per_s", "GB/s", Higher),
    layer("server.data.store_gb_per_s", "GB/s", Higher),
    layer("server.stats.busy_rejects", "count", Lower),
    layer("server.stats.queue_high_water", "count", Lower),
    layer("server.stats.crc_failures", "count", Lower),
    layer("server.stats.hit_ratio", "ratio", Higher),
    layer("client.encode_share", "ratio", Lower),
    layer("client.verify_share", "ratio", Lower),
    layer("client.wait_share", "ratio", Higher),
    layer("server.read_lat_p50_us", "us", Lower),
    layer("server.write_lat_p50_us", "us", Lower),
    layer("server.lat_p999_us", "us", Lower),
    layer("server.frontend_us_per_req", "us", Lower),
    layer("bench.tracing_overhead_pct", "%", Lower),
];

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The unit and the better direction of any metric the benchmark
/// reports.
pub fn unit_and_direction(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .chain(WORKLOAD_END_TO_END)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better.label()))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

pub fn unit_of(name: &str) -> &'static str {
    unit_and_direction(name).0
}

/// `BENCHMARK.json` as this catalogue defines it (`pc-benchmark
/// manifest`); a self-test keeps the committed file equal to it.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let Bound::Share(bound) = m.bound else {
                panic!("{}: the driver's bounds are shares", m.name)
            };
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    let per_layer: Vec<String> = traced_names()
        .into_iter()
        .map(|name| {
            let (unit, better) = unit_and_direction(name);
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Names the traced run must report: the workload end-to-end metrics
/// that can be non-zero facts of a run (`fail_ratio` travels as
/// `failed`/`attempted`), then every layer metric.
pub fn traced_names() -> Vec<&'static str> {
    WORKLOAD_END_TO_END
        .iter()
        .map(|m| m.name)
        .filter(|n| *n != "fail_ratio")
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what
    /// the binary prints. They must not drift apart.
    #[test]
    fn benchmark_json_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `pc-benchmark manifest`"
        );
        let doc = json::parse(&committed).unwrap();
        let count = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().len();
        assert_eq!(count("workloads"), WORKLOADS.len());
        assert_eq!(count("end_to_end"), END_TO_END.len());
        assert_eq!(count("per_layer"), traced_names().len());
        assert!(committed.len() <= 64 * 1024);
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(traced_names());
        all.extend(WORKLOADS.iter().map(|w| w.0));
        let mut seen = std::collections::BTreeSet::new();
        for n in &all {
            assert!(seen.insert(*n), "{n} is used twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && traced_names().len() <= 128);
    }
}
