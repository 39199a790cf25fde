//! Figure 7 — why PA-LRU wins: per-mode time breakdown and mean request
//! inter-arrival for two representative disks (one hot like the paper's
//! disk 4, one cacheable like its disk 14), under LRU and PA-LRU.

use pc_sim::{run_replacement, PolicySpec, SimConfig, SimReport};
use pc_trace::OltpConfig;
use pc_units::DiskId;

use crate::{sweep, ExperimentOutput, Params, Table};

/// Runs LRU and PA-LRU on the OLTP-like trace and prints, for a hot disk
/// and a cacheable disk: % time active (servicing), per-mode residency,
/// spin transitions, and the mean disk-level request inter-arrival.
///
/// The paper's Figure 7 uses its real trace's disk 4 (hot) and disk 14
/// (cacheable). Our synthetic trace fixes which disks are hot, but which
/// of the remaining disks ends up most cacheable varies with the
/// generator stream, so the cacheable representative is chosen as the
/// non-hot disk whose mean inter-arrival PA-LRU stretches the most —
/// the same selection the paper made by hand.
#[must_use]
pub fn run(params: &Params) -> ExperimentOutput {
    let config = OltpConfig::default().with_requests(params.requests(72_000));
    let trace = config.generate(params.seed);
    let sim = SimConfig::default();
    let specs = vec![PolicySpec::Lru, params.pa_policy(&sim.power_model())];
    let mut reports = sweep::over(params, specs, |spec| run_replacement(&trace, spec, &sim));
    let pa = reports.pop().expect("pa report");
    let lru = reports.pop().expect("lru report");

    let hot = DiskId::new(4);
    let cacheable = (config.hot_disks..trace.disk_count())
        .map(DiskId::new)
        .max_by(|&a, &b| {
            gap_ratio(&pa, &lru, a)
                .partial_cmp(&gap_ratio(&pa, &lru, b))
                .expect("finite ratios")
        })
        .expect("at least one cold disk");

    let mut t = Table::new([
        "disk", "policy", "active%", "idle%", "nap%", "standby%", "spin%", "spin-ups", "mean gap",
    ]);
    let mut out = ExperimentOutput::default();
    let hot_label = format!("hot({})", hot.as_usize());
    let cacheable_label = format!("cacheable({})", cacheable.as_usize());
    for (key, label, disk) in [
        ("hot", hot_label.as_str(), hot),
        ("cacheable", cacheable_label.as_str(), cacheable),
    ] {
        for report in [&lru, &pa] {
            let policy = &report.policy;
            let d = &report.disks[disk.as_usize()];
            let f = d.time_fractions();
            let nap: f64 = f.per_mode[1..f.per_mode.len() - 1].iter().sum();
            let standby = *f.per_mode.last().expect("modes present");
            t.row([
                label.to_owned(),
                policy.to_owned(),
                format!("{:.1}", f.service * 100.0),
                format!("{:.1}", f.per_mode[0] * 100.0),
                format!("{:.1}", nap * 100.0),
                format!("{:.1}", standby * 100.0),
                format!("{:.1}", (f.spin_down + f.spin_up) * 100.0),
                d.spin_ups.to_string(),
                d.mean_interarrival().to_string(),
            ]);
            out.record(format!("{key}_{policy}_standby"), standby);
            out.record(
                format!("{key}_{policy}_gap_s"),
                d.mean_interarrival().as_secs_f64(),
            );
            out.record(format!("{key}_{policy}_spinups"), d.spin_ups as f64);
        }
    }

    out.text = format!(
        "Figure 7: Time breakdown and mean request inter-arrival, two representative disks (OLTP)\n\n{}",
        t.render()
    );
    out.record("gap_stretch", gap_ratio(&pa, &lru, cacheable));
    out.record("cacheable_disk", cacheable.as_usize() as f64);
    out
}

fn gap_ratio(pa: &SimReport, lru: &SimReport, disk: DiskId) -> f64 {
    let p = pa.disks[disk.as_usize()].mean_interarrival().as_secs_f64();
    let l = lru.disks[disk.as_usize()].mean_interarrival().as_secs_f64();
    if l == 0.0 {
        0.0
    } else {
        p / l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pa_lru_stretches_cacheable_disk_gaps_and_increases_standby() {
        // Paper §5.2.2 / Figure 7: PA-LRU stretches the cacheable disk's
        // mean request inter-arrival (the paper's disk 14 goes from 5.75 s
        // under LRU to 16.1 s) and grows its standby residency, while hot
        // disks stay essentially always active. Scale 0.35 gives PA-LRU
        // enough epochs for the effect to be unambiguous.
        let o = run(&Params {
            scale: 0.35,
            ..Params::quick()
        });
        assert!(
            o.metric("gap_stretch") > 1.3,
            "gap stretch {}",
            o.metric("gap_stretch")
        );
        assert!(o.metric("cacheable_pa-lru_standby") > o.metric("cacheable_lru_standby"));
        // Hot disks barely change.
        assert!(o.metric("hot_pa-lru_standby") < 0.05);
    }
}
