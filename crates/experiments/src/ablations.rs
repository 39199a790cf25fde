//! Ablations beyond the paper's figures: the design-choice sweeps
//! DESIGN.md §6 calls out.

use pc_cache::policy::{OnlinePolicy, PaLruConfig};
use pc_cache::WritePolicy;
use pc_sim::{run_replacement, run_write_policy, PolicySpec, SimConfig};
use pc_units::{Joules, SimDuration};

use crate::{sweep, ExperimentOutput, Params, Table};

/// OPG's ε threshold: the Belady ↔ pure-OPG continuum of §3.2.
/// ε = 0 is pure OPG; a huge ε rounds every penalty equal, recovering
/// Belady's tie-break (furthest next use).
///
/// The sweep runs on an OLTP variant whose hot working sets are small
/// enough that every resident block has a future reference: with dead
/// (never-reused) blocks around, every ε picks the same free victims and
/// the knob is invisible.
#[must_use]
pub fn epsilon_sweep(params: &Params) -> ExperimentOutput {
    let trace = pc_trace::OltpConfig {
        hot_working_set: 1_200,
        ..pc_trace::OltpConfig::default()
    }
    .with_requests(params.requests(72_000))
    .generate(params.seed);
    let cfg = SimConfig::default();
    let lru = run_replacement(&trace, &PolicySpec::Lru, &cfg);
    let mut t = Table::new(["epsilon (J)", "energy vs lru", "misses"]);
    let mut out = ExperimentOutput::default();
    let eps_points = vec![0.0, 10.0, 30.0, 100.0, 300.0, 1e9];
    let reports = sweep::over(params, eps_points.clone(), |&eps| {
        run_replacement(
            &trace,
            &PolicySpec::Opg {
                epsilon: Joules::new(eps),
            },
            &cfg,
        )
    });
    for (eps, r) in eps_points.into_iter().zip(reports) {
        let ratio = r.energy_ratio(&lru);
        t.row([
            if eps >= 1e9 {
                "inf (Belady)".to_owned()
            } else {
                format!("{eps}")
            },
            format!("{ratio:.3}"),
            r.cache.misses().to_string(),
        ]);
        out.record(format!("ratio_at_{eps}"), ratio);
        out.record(format!("misses_at_{eps}"), r.cache.misses() as f64);
    }
    out.text = format!(
        "Ablation: OPG epsilon threshold (OLTP, Practical DPM, energy normalized to LRU)\n\n{}",
        t.render()
    );
    out
}

/// PA-LRU's classifier parameters: epoch length, quantile p, cold
/// threshold α. The paper fixes (15 min, 0.8, 0.5); this sweep shows the
/// sensitivity.
#[must_use]
pub fn pa_sensitivity(params: &Params) -> ExperimentOutput {
    let trace = params.oltp_trace();
    let cfg = SimConfig::default();
    let lru = run_replacement(&trace, &PolicySpec::Lru, &cfg);
    let base = params.pa_config(&cfg.power_model());
    let mut t = Table::new(["variant", "saving over lru"]);
    let mut out = ExperimentOutput::default();
    let variants: Vec<(&'static str, PaLruConfig)> = vec![
        ("paper (epoch=E, p=0.8, a=0.5)", base.clone()),
        (
            "epoch=E/4",
            PaLruConfig {
                epoch: base.epoch / 4,
                ..base.clone()
            },
        ),
        (
            "epoch=4E",
            PaLruConfig {
                epoch: base.epoch * 4,
                ..base.clone()
            },
        ),
        (
            "p=0.5",
            PaLruConfig {
                quantile: 0.5,
                ..base.clone()
            },
        ),
        (
            "p=0.95",
            PaLruConfig {
                quantile: 0.95,
                ..base.clone()
            },
        ),
        (
            "a=0.2",
            PaLruConfig {
                cold_threshold: 0.2,
                ..base.clone()
            },
        ),
        (
            "a=0.9",
            PaLruConfig {
                cold_threshold: 0.9,
                ..base.clone()
            },
        ),
        (
            "T=0 (intervals ignored)",
            PaLruConfig {
                interval_threshold: SimDuration::ZERO,
                ..base
            },
        ),
    ];
    let savings = sweep::over(params, variants, |(label, config)| {
        let spec = PolicySpec::Online(OnlinePolicy::PaLru, Some(config.clone()));
        let r = run_replacement(&trace, &spec, &cfg);
        (*label, r.saving_over(&lru))
    });
    for (label, saving) in savings {
        t.row([label.to_owned(), format!("{saving:.1}%")]);
        out.record(label.to_owned(), saving);
    }
    out.text = format!(
        "Ablation: PA-LRU classifier sensitivity (OLTP, Practical DPM)\n\n{}",
        t.render()
    );
    out
}

/// Multi-speed (6-mode) versus classic 2-mode disks, under LRU and
/// PA-LRU: how much of the win needs the DRPM-style hardware?
#[must_use]
pub fn mode_count(params: &Params) -> ExperimentOutput {
    let trace = params.oltp_trace();
    let mut t = Table::new(["disks", "policy", "energy (J)", "saving vs lru"]);
    let mut out = ExperimentOutput::default();
    let configs = vec![
        ("6-mode", SimConfig::default()),
        ("2-mode", SimConfig::default().with_two_mode_disks()),
    ];
    let pairs = sweep::over(params, configs, |(label, cfg)| {
        let lru = run_replacement(&trace, &PolicySpec::Lru, cfg);
        let pa = run_replacement(&trace, &params.pa_policy(&cfg.power_model()), cfg);
        (*label, lru, pa)
    });
    for (label, lru, pa) in pairs {
        for r in [&lru, &pa] {
            let policy = &r.policy;
            t.row([
                label.to_owned(),
                policy.to_owned(),
                format!("{:.0}", r.total_energy().as_joules()),
                format!("{:.1}%", r.saving_over(&lru)),
            ]);
            out.record(
                format!("{label}_{policy}_energy"),
                r.total_energy().as_joules(),
            );
        }
        out.record(format!("{label}_pa_saving"), pa.saving_over(&lru));
    }
    out.text = format!(
        "Ablation: multi-speed vs 2-mode disks (OLTP, Practical DPM)\n\n{}",
        t.render()
    );
    out
}

/// The policy zoo: ARC, MQ, LIRS and 2Q with and without the PA wrapper
/// (the paper's §4 composability claim), against LRU and PA-LRU.
#[must_use]
pub fn policy_zoo(params: &Params) -> ExperimentOutput {
    let trace = params.oltp_trace();
    let cfg = SimConfig::default();
    let power = cfg.power_model();
    let mut t = Table::new(["policy", "energy vs lru", "hit ratio", "mean response"]);
    let mut out = ExperimentOutput::default();
    let specs = [
        OnlinePolicy::Lru,
        OnlinePolicy::PaLru,
        OnlinePolicy::Arc,
        OnlinePolicy::PaArc,
        OnlinePolicy::Mq,
        OnlinePolicy::PaMq,
        OnlinePolicy::Lirs,
        OnlinePolicy::PaLirs,
        OnlinePolicy::TwoQ,
        OnlinePolicy::PaTwoQ,
    ]
    .map(|p| params.online_policy(p, &power))
    .to_vec();
    let reports = sweep::over(params, specs, |spec| run_replacement(&trace, spec, &cfg));
    // The first spec is plain LRU: it doubles as the normalization baseline.
    let lru = reports[0].clone();
    for r in reports {
        let ratio = r.energy_ratio(&lru);
        t.row([
            r.policy.clone(),
            format!("{ratio:.3}"),
            format!("{:.1}%", r.cache.hit_ratio() * 100.0),
            r.mean_response().to_string(),
        ]);
        out.record(format!("{}_ratio", r.policy), ratio);
        out.record(format!("{}_hit", r.policy), r.cache.hit_ratio());
    }
    out.text = format!(
        "Ablation: the PA wrapper around alternative policies (OLTP, Practical DPM, energy normalized to LRU)\n\n{}",
        t.render()
    );
    out
}

/// The §2.1 design alternative: multi-speed disks that *serve at any
/// rotational speed* (Carrera & Bianchini's option 1) versus the paper's
/// choice of serving only at full speed (option 2). Option 1 never pays
/// a spin-up wait but stretches rotation-bound service.
#[must_use]
pub fn serve_at_speed(params: &Params) -> ExperimentOutput {
    let trace = params.oltp_trace();
    let mut t = Table::new([
        "multi-speed option",
        "policy",
        "energy (J)",
        "mean response",
        "p99",
        "spin-ups",
    ]);
    let mut out = ExperimentOutput::default();
    let mut points = Vec::new();
    for (label, cfg) in [
        ("option2 (full-speed only)", SimConfig::default()),
        (
            "option1 (serve at speed)",
            SimConfig::default().with_serve_at_speed(),
        ),
    ] {
        let power = cfg.power_model();
        for spec in [PolicySpec::Lru, params.pa_policy(&power)] {
            points.push((label, spec, cfg.clone()));
        }
    }
    let reports = sweep::over(params, points, |(label, spec, cfg)| {
        (*label, run_replacement(&trace, spec, cfg))
    });
    {
        for (label, r) in reports {
            let name = &r.policy;
            t.row([
                label.to_owned(),
                name.to_owned(),
                format!("{:.0}", r.total_energy().as_joules()),
                r.mean_response().to_string(),
                r.response_quantile(0.99).to_string(),
                r.total_spin_ups().to_string(),
            ]);
            let key = if label.starts_with("option2") {
                "option2"
            } else {
                "option1"
            };
            out.record(format!("{key}_{name}_energy"), r.total_energy().as_joules());
            out.record(
                format!("{key}_{name}_response_s"),
                r.mean_response().as_secs_f64(),
            );
        }
    }
    out.text = format!(
        "Ablation: multi-speed option 1 (serve at speed) vs option 2 (paper) — OLTP, Practical DPM

{}",
        t.render()
    );
    out
}

/// Server-class vs laptop-class disks (the Carrera & Bianchini
/// alternative the paper's §1 discusses): laptop drives draw an order of
/// magnitude less power and spin up in ~2 s instead of ~11 s, trading
/// service speed. This compares the OLTP workload on both disk types —
/// and shows PA-LRU's edge shrinking when spin-ups are nearly free (the
/// cheap end of Figure 8).
#[must_use]
pub fn disk_type(params: &Params) -> ExperimentOutput {
    use pc_diskmodel::{DiskPowerSpec, ServiceModel};
    let trace = params.oltp_trace();
    let mut t = Table::new([
        "disk type",
        "policy",
        "energy (J)",
        "pa saving",
        "mean response",
        "p99",
    ]);
    let mut out = ExperimentOutput::default();
    let configs = vec![
        ("server (Ultrastar)", SimConfig::default()),
        ("laptop (Travelstar)", {
            let mut cfg = SimConfig::default().with_power_spec(DiskPowerSpec::travelstar_laptop());
            cfg.service = ServiceModel::travelstar_laptop();
            cfg
        }),
    ];
    let pairs = sweep::over(params, configs, |(label, cfg)| {
        let lru = run_replacement(&trace, &PolicySpec::Lru, cfg);
        let pa = run_replacement(&trace, &params.pa_policy(&cfg.power_model()), cfg);
        (*label, lru, pa)
    });
    for (label, lru, pa) in pairs {
        for r in [&lru, &pa] {
            let policy = &r.policy;
            t.row([
                label.to_owned(),
                policy.to_owned(),
                format!("{:.0}", r.total_energy().as_joules()),
                format!("{:.1}%", r.saving_over(&lru)),
                r.mean_response().to_string(),
                r.response_quantile(0.99).to_string(),
            ]);
        }
        let key = if label.starts_with("server") {
            "server"
        } else {
            "laptop"
        };
        out.record(format!("{key}_lru_energy"), lru.total_energy().as_joules());
        out.record(format!("{key}_pa_saving"), pa.saving_over(&lru));
        out.record(
            format!("{key}_lru_response_s"),
            lru.mean_response().as_secs_f64(),
        );
    }
    out.text = format!(
        "Ablation: server-class vs laptop-class disks (OLTP, Practical DPM)\n\n{}",
        t.render()
    );
    out
}

/// Data layout: partitioned volumes (the paper's implicit layout) versus
/// RAID-0 striping. Striping interleaves every volume across all
/// spindles, so any activity keeps every disk awake — the idle-period
/// structure both DPM and PA-LRU harvest disappears.
#[must_use]
pub fn layout(params: &Params) -> ExperimentOutput {
    use pc_trace::DataLayout;
    let base = params.oltp_trace();
    let cfg = SimConfig::default();
    let power = cfg.power_model();
    let mut t = Table::new(["layout", "policy", "energy (J)", "pa saving", "spin-ups"]);
    let mut out = ExperimentOutput::default();
    let layouts = vec![
        DataLayout::Partitioned,
        DataLayout::Striped { stripe_blocks: 64 },
    ];
    let pairs = sweep::over(params, layouts, |&lay| {
        let trace = lay.remap(&base, 1 << 22);
        let lru = run_replacement(&trace, &PolicySpec::Lru, &cfg);
        let pa = run_replacement(&trace, &params.pa_policy(&power), &cfg);
        (lay, lru, pa)
    });
    for (lay, lru, pa) in pairs {
        for r in [&lru, &pa] {
            let name = &r.policy;
            t.row([
                lay.name().to_owned(),
                name.to_owned(),
                format!("{:.0}", r.total_energy().as_joules()),
                format!("{:.1}%", r.saving_over(&lru)),
                r.total_spin_ups().to_string(),
            ]);
        }
        out.record(
            format!("{}_lru_energy", lay.name()),
            lru.total_energy().as_joules(),
        );
        out.record(format!("{}_pa_saving", lay.name()), pa.saving_over(&lru));
    }
    out.text = format!(
        "Ablation: data layout — partitioned volumes vs RAID-0 striping (OLTP, Practical DPM)\n\n{}",
        t.render()
    );
    out
}

/// Composing the paper's two contributions: the §5 replacement policies
/// and the §6 write policies are evaluated separately in the paper (all
/// Figure-9 runs use LRU). This sweep crosses them on a write-heavy
/// OLTP-like workload: do PA-LRU's and WBEU's savings stack?
#[must_use]
pub fn combo(params: &Params) -> ExperimentOutput {
    let trace = pc_trace::OltpConfig {
        write_fraction: 0.5,
        ..pc_trace::OltpConfig::default()
    }
    .with_requests(params.requests(72_000))
    .generate(params.seed);
    let cfg = SimConfig::default();
    let power = cfg.power_model();
    let baseline = run_write_policy(
        &trace,
        &PolicySpec::Lru,
        &cfg.clone().with_write_policy(WritePolicy::WriteThrough),
    );
    let mut t = Table::new([
        "replacement",
        "write policy",
        "saving over lru+wt",
        "mean response",
    ]);
    let mut out = ExperimentOutput::default();
    let mut points = Vec::new();
    for rspec in [PolicySpec::Lru, params.pa_policy(&power)] {
        for wp in [
            WritePolicy::WriteThrough,
            WritePolicy::WriteBack,
            WritePolicy::Wbeu { dirty_limit: 64 },
            WritePolicy::Wtdu,
        ] {
            points.push((rspec.clone(), wp));
        }
    }
    let reports = sweep::over(params, points, |(rspec, wp)| {
        let r = run_write_policy(&trace, rspec, &cfg.clone().with_write_policy(*wp));
        (*wp, r)
    });
    for (wp, r) in reports {
        let rname = &r.policy;
        let saving = r.saving_over(&baseline);
        t.row([
            rname.to_owned(),
            wp.name().to_owned(),
            format!("{saving:.1}%"),
            r.mean_response().to_string(),
        ]);
        out.record(format!("{rname}_{}", wp.name()), saving);
    }
    out.text = format!(
        "Ablation: composing replacement and write policies (OLTP-like at 50% writes,\nPractical DPM, savings relative to LRU + write-through)\n\n{}",
        t.render()
    );
    out
}

/// Disk queue disciplines (the DiskSim feature layer): FCFS vs SSTF vs
/// C-SCAN on a bursty raw request stream — seek-time energy and mean/p99
/// response under queueing pressure.
#[must_use]
pub fn scheduler(params: &Params) -> ExperimentOutput {
    use pc_diskmodel::ServiceRequest;
    use pc_disksim::{schedule_disk, DpmPolicy, QueueDiscipline};
    use pc_units::{DiskId, SimTime};

    // A bursty stream over 4 disks: Pareto arrivals at a 5 ms mean build
    // deep queues, which is where disciplines differ.
    let trace = pc_trace::SyntheticConfig {
        reuse_probability: 0.0,
        seq_probability: 0.0,
        local_probability: 0.0,
        ..pc_trace::SyntheticConfig::default()
    }
    .with_disks(4)
    .with_requests(params.requests(100_000))
    .with_gaps(pc_trace::GapDistribution::pareto(SimDuration::from_millis(
        5,
    )))
    .generate(params.seed);

    let cfg = SimConfig::default();
    let power = cfg.power_model();
    let mut per_disk: Vec<Vec<(SimTime, ServiceRequest)>> = vec![Vec::new(); 4];
    let mut horizon = SimTime::ZERO;
    for r in &trace {
        per_disk[r.block.disk().as_usize()].push((r.time, ServiceRequest::single(r.block.block())));
        horizon = horizon.max(r.time);
    }

    let mut t = Table::new([
        "discipline",
        "mean response",
        "p99 response",
        "seek+xfer time",
        "energy (J)",
    ]);
    let mut out = ExperimentOutput::default();
    let disciplines = vec![
        QueueDiscipline::Fcfs,
        QueueDiscipline::Sstf,
        QueueDiscipline::Cscan,
    ];
    let rows = sweep::over(params, disciplines, |&discipline| {
        let mut responses =
            pc_cache::IntervalHistogram::geometric(SimDuration::from_micros(100), 24);
        let mut total_response = 0.0;
        let mut count = 0u64;
        let mut service_time = SimDuration::ZERO;
        let mut energy = 0.0;
        for (d, requests) in per_disk.iter().enumerate() {
            let (outcomes, report) = schedule_disk(
                DiskId::new(d as u32),
                requests,
                power.clone(),
                cfg.service,
                DpmPolicy::Practical,
                discipline,
                horizon,
            );
            for o in outcomes {
                responses.record(o.response);
                total_response += o.response.as_secs_f64();
                count += 1;
            }
            service_time += report.service_time;
            energy += report.total_energy().as_joules();
        }
        let mean = total_response / count.max(1) as f64;
        (
            discipline,
            mean,
            responses.quantile(0.99),
            service_time,
            energy,
        )
    });
    for (discipline, mean, p99, service_time, energy) in rows {
        t.row([
            discipline.name().to_owned(),
            format!("{:.1}ms", mean * 1_000.0),
            p99.to_string(),
            service_time.to_string(),
            format!("{energy:.0}"),
        ]);
        out.record(format!("{}_mean_s", discipline.name()), mean);
        out.record(
            format!("{}_service_s", discipline.name()),
            service_time.as_secs_f64(),
        );
        out.record(format!("{}_energy", discipline.name()), energy);
    }
    out.text = format!(
        "Ablation: disk queue disciplines on a bursty raw stream (4 disks, Pareto 5 ms)\n\n{}",
        t.render()
    );
    out
}

/// Sequential prefetching (the paper's stated future work): read-ahead
/// depth sweep on a sequential-heavy workload, under LRU + Practical DPM.
/// Prefetches ride an already-active disk, converting future spin-ups
/// into cheap transfers — up to the point where speculation wastes
/// service energy and cache space.
#[must_use]
pub fn prefetch_depth(params: &Params) -> ExperimentOutput {
    let trace = pc_trace::SyntheticConfig {
        seq_probability: 0.6,
        local_probability: 0.2,
        reuse_probability: 0.3,
        ..pc_trace::SyntheticConfig::default()
    }
    .with_requests(params.requests(200_000))
    .with_write_ratio(0.2)
    .generate(params.seed);
    let mut t = Table::new([
        "depth",
        "energy (J)",
        "hit ratio",
        "mean response",
        "prefetches",
    ]);
    let mut out = ExperimentOutput::default();
    let depths = vec![0u64, 1, 2, 4, 8, 16];
    let reports = sweep::over(params, depths.clone(), |&depth| {
        let cfg = SimConfig::default().with_prefetch_depth(depth);
        run_replacement(&trace, &PolicySpec::Lru, &cfg)
    });
    for (depth, r) in depths.into_iter().zip(reports) {
        t.row([
            depth.to_string(),
            format!("{:.0}", r.total_energy().as_joules()),
            format!("{:.1}%", r.cache.hit_ratio() * 100.0),
            r.mean_response().to_string(),
            r.cache.prefetch_reads.to_string(),
        ]);
        out.record(format!("energy_at_{depth}"), r.total_energy().as_joules());
        out.record(format!("hit_at_{depth}"), r.cache.hit_ratio());
        out.record(
            format!("response_at_{depth}"),
            r.mean_response().as_secs_f64(),
        );
    }
    out.text = format!(
        "Ablation: sequential prefetch depth (sequential-heavy synthetic, LRU, Practical DPM)\n\n{}",
        t.render()
    );
    out
}

/// WBEU's forced-flush dirty limit.
#[must_use]
pub fn wbeu_dirty_limit(params: &Params) -> ExperimentOutput {
    let trace = pc_trace::SyntheticConfig::default()
        .with_requests(params.requests(200_000))
        .with_write_ratio(0.8)
        .generate(params.seed);
    let cfg = SimConfig::default();
    let wt = run_write_policy(
        &trace,
        &PolicySpec::Lru,
        &cfg.clone().with_write_policy(WritePolicy::WriteThrough),
    );
    let mut t = Table::new(["dirty limit", "saving over write-through"]);
    let mut out = ExperimentOutput::default();
    let limits = vec![4usize, 16, 64, 256, 1_024, 4_096];
    let reports = sweep::over(params, limits.clone(), |&limit| {
        run_write_policy(
            &trace,
            &PolicySpec::Lru,
            &cfg.clone()
                .with_write_policy(WritePolicy::Wbeu { dirty_limit: limit }),
        )
    });
    for (limit, r) in limits.into_iter().zip(reports) {
        let saving = r.saving_over(&wt);
        t.row([limit.to_string(), format!("{saving:.1}%")]);
        out.record(format!("saving_at_{limit}"), saving);
    }
    out.text = format!(
        "Ablation: WBEU forced-flush dirty limit (synthetic, 80% writes)\n\n{}",
        t.render()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params {
            scale: 0.2,
            ..Params::quick()
        }
    }

    #[test]
    fn epsilon_interpolates_between_opg_and_belady() {
        let o = epsilon_sweep(&params());
        // Misses grow monotonically toward pure OPG as ε shrinks (more
        // energy-motivated deviations from MIN).
        assert!(o.metric("misses_at_0") >= o.metric("misses_at_1000000000"));
        // Energy at pure OPG is no worse than at the Belady end.
        assert!(o.metric("ratio_at_0") <= o.metric("ratio_at_1000000000") + 0.01);
    }

    #[test]
    fn ignoring_intervals_degrades_pa_lru() {
        let o = pa_sensitivity(&params());
        let paper = o.metric("paper (epoch=E, p=0.8, a=0.5)");
        assert!(paper > 0.0, "paper setting must save energy, got {paper}");
        // T=0 classifies every warm disk as priority, polluting LRU1.
        let t0 = o.metric("T=0 (intervals ignored)");
        assert!(
            t0 <= paper + 1.0,
            "T=0 ({t0}) must not beat the paper setting ({paper})"
        );
    }

    #[test]
    fn pa_wrapper_helps_arc_and_mq() {
        let o = policy_zoo(&params());
        assert!(o.metric("pa-arc_ratio") < o.metric("arc_ratio") + 0.005);
        assert!(o.metric("pa-mq_ratio") < o.metric("mq_ratio") + 0.005);
        assert!(o.metric("pa-lru_ratio") < 1.0);
    }

    #[test]
    fn two_mode_disks_still_benefit_from_pa() {
        let o = mode_count(&params());
        assert!(o.metric("2-mode_pa_saving") > 0.0);
        // The multi-speed hardware amplifies the policy's savings.
        assert!(
            o.metric("6-mode_lru_energy") < o.metric("2-mode_lru_energy") * 1.2,
            "sanity: energies comparable"
        );
    }

    #[test]
    fn prefetching_helps_sequential_workloads() {
        let p = Params {
            scale: 0.1,
            ..Params::quick()
        };
        let o = prefetch_depth(&p);
        assert!(o.metric("hit_at_4") > o.metric("hit_at_0") + 0.1);
        assert!(o.metric("response_at_4") < o.metric("response_at_0"));
    }

    #[test]
    fn serve_at_speed_eliminates_spin_up_latency() {
        let p = Params {
            scale: 0.35,
            ..Params::quick()
        };
        let o = serve_at_speed(&p);
        // Option 1's responses drop dramatically (no spin-up waits).
        assert!(
            o.metric("option1_lru_response_s") * 3.0 < o.metric("option2_lru_response_s"),
            "option1 {} vs option2 {}",
            o.metric("option1_lru_response_s"),
            o.metric("option2_lru_response_s")
        );
    }

    #[test]
    fn laptop_disks_trade_latency_for_an_order_of_magnitude_of_energy() {
        let p = Params {
            scale: 0.35,
            ..Params::quick()
        };
        let o = disk_type(&p);
        assert!(
            o.metric("laptop_lru_energy") * 5.0 < o.metric("server_lru_energy"),
            "laptop array must be dramatically cheaper"
        );
        // PA-LRU still helps on laptop disks (their break-even sits at
        // ~15 s, below the cacheable disks' gaps), and the laptop array's
        // short spin-ups make even LRU's responses competitive.
        assert!(o.metric("laptop_pa_saving") > 0.0);
        assert!(o.metric("laptop_lru_response_s") < o.metric("server_lru_response_s"));
    }

    #[test]
    fn striping_destroys_the_energy_headroom() {
        let p = Params {
            scale: 0.35,
            ..Params::quick()
        };
        let o = layout(&p);
        // Striping keeps every spindle busy: more total energy, and
        // PA-LRU loses (almost) all of its edge.
        assert!(o.metric("striped_lru_energy") > o.metric("partitioned_lru_energy"));
        assert!(o.metric("striped_pa_saving") < o.metric("partitioned_pa_saving"));
        assert!(o.metric("striped_pa_saving") < 2.0);
    }

    #[test]
    fn replacement_and_write_savings_compose() {
        let p = Params {
            scale: 0.35,
            ..Params::quick()
        };
        let o = combo(&p);
        // Each contribution saves on its own, and the combination beats
        // either alone.
        let pa_only = o.metric("pa-lru_write-through");
        let wbeu_only = o.metric("lru_wbeu");
        let both = o.metric("pa-lru_wbeu");
        assert!(pa_only > 0.0, "pa alone {pa_only}");
        assert!(wbeu_only > 0.0, "wbeu alone {wbeu_only}");
        assert!(
            both > pa_only.max(wbeu_only),
            "combo {both} vs {pa_only}/{wbeu_only}"
        );
    }

    #[test]
    fn reordering_disciplines_beat_fcfs_under_bursts() {
        let p = Params {
            scale: 0.1,
            ..Params::quick()
        };
        let o = scheduler(&p);
        assert!(o.metric("sstf_service_s") < o.metric("fcfs_service_s"));
        assert!(o.metric("cscan_service_s") < o.metric("fcfs_service_s"));
        assert!(o.metric("sstf_mean_s") <= o.metric("fcfs_mean_s"));
    }

    #[test]
    fn wbeu_limit_sweep_runs() {
        let p = Params {
            scale: 0.05,
            ..Params::quick()
        };
        let o = wbeu_dirty_limit(&p);
        assert!(o.metric("saving_at_64") > 0.0);
    }
}
