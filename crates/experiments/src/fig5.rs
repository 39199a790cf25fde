//! Figure 5 — the histogram approximation of a disk's interval-length
//! CDF, as PA-LRU's classifier builds it.

use pc_cache::IntervalHistogram;
use pc_trace::OltpConfig;
use pc_units::SimDuration;

use crate::{ExperimentOutput, Params, Table};

/// Builds one epoch's interval histogram for a hot disk and a cacheable
/// disk of the OLTP-like workload and prints both CDFs with their
/// 80th-percentile probe (the classifier's `F⁻¹(p)`).
#[must_use]
pub fn run(params: &Params) -> ExperimentOutput {
    let config = OltpConfig::default().with_requests(params.requests(72_000));
    let trace = config.generate(params.seed);
    let hot = 0u32;
    let cacheable = config.hot_disks + 2;

    let mut hists = [IntervalHistogram::standard(), IntervalHistogram::standard()];
    let mut last = [None, None];
    for r in &trace {
        let idx = if r.block.disk().index() == hot {
            0
        } else if r.block.disk().index() == cacheable {
            1
        } else {
            continue;
        };
        if let Some(prev) = last[idx] {
            hists[idx].record(r.time.saturating_since(prev));
        }
        last[idx] = Some(r.time);
    }

    let mut t = Table::new(["interval ≤", "F(x) hot disk", "F(x) cacheable disk"]);
    for ((edge, f_hot), (_, f_cache)) in hists[0].cdf().zip(hists[1].cdf()) {
        if f_hot < 0.002 && f_cache < 0.002 {
            continue;
        }
        t.row([
            edge.to_string(),
            format!("{f_hot:.3}"),
            format!("{f_cache:.3}"),
        ]);
        if f_hot >= 0.9999 && f_cache >= 0.9999 {
            break;
        }
    }

    let q_hot = hists[0].quantile(0.8);
    let q_cache = hists[1].quantile(0.8);
    let threshold = SimDuration::from_secs(10);
    let mut out = ExperimentOutput {
        text: format!(
            "Figure 5: Interval-length CDF approximation (disk {hot} = hot, disk {cacheable} = cacheable)\n\n{}\nF^-1(0.8): hot = {q_hot}, cacheable = {q_cache}  (classifier threshold T ≈ {threshold})\n",
            t.render()
        ),
        ..ExperimentOutput::default()
    };
    out.record("q80_hot_s", q_hot.as_secs_f64());
    out.record("q80_cacheable_s", q_cache.as_secs_f64());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_separate_the_two_disk_classes() {
        let o = run(&Params::quick());
        assert!(o.metric("q80_hot_s") < 10.0, "hot disks have short gaps");
        assert!(
            o.metric("q80_cacheable_s") > 10.0,
            "cacheable disks exceed the NAP1 break-even"
        );
    }
}
