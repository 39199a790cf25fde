//! Figure 6 — energy and response time of power-aware replacement.
//!
//! (a)/(b): disk energy of {infinite cache, Belady, OPG, LRU, PA-LRU}
//! under Oracle and Practical DPM, normalized to LRU, on the OLTP-like
//! and Cello-like traces. (c): mean response time under Practical DPM,
//! normalized to LRU.

use pc_cache::policy::OnlinePolicy;
use pc_disksim::DpmPolicy;
use pc_sim::{PolicySpec, SimConfig, SimReport};
use pc_units::Joules;

use crate::{sweep, ExperimentOutput, Params, Table, TraceKind, TraceSource};

/// The five bars of each Figure-6 group, in paper order. PA-LRU's epoch
/// scales with the trace length (see [`Params::pa_epoch`]).
fn bars(params: &Params) -> Vec<(&'static str, PolicySpec, bool)> {
    let power = SimConfig::default().power_model();
    vec![
        ("infinite-cache", PolicySpec::Lru, true),
        ("belady", PolicySpec::Belady, false),
        (
            "opg",
            PolicySpec::Opg {
                epsilon: Joules::ZERO,
            },
            false,
        ),
        (OnlinePolicy::Lru.name(), PolicySpec::Lru, false),
        (OnlinePolicy::PaLru.name(), params.pa_policy(&power), false),
    ]
}

fn config_for(kind: TraceKind, dpm: DpmPolicy, infinite: bool) -> SimConfig {
    // Paper: 128 MB cache for OLTP, 32 MB for Cello96 (scaled 4:1 here,
    // matching the down-scaled working sets; see EXPERIMENTS.md).
    let blocks = match kind {
        TraceKind::Oltp => 4_096,
        TraceKind::Cello => 1_024,
    };
    let cfg = SimConfig::default().with_cache_blocks(blocks).with_dpm(dpm);
    if infinite {
        cfg.with_infinite_cache()
    } else {
        cfg
    }
}

fn run_bar(
    trace: &TraceSource,
    kind: TraceKind,
    dpm: DpmPolicy,
    spec: &PolicySpec,
    infinite: bool,
) -> SimReport {
    trace.run_replacement(spec, &config_for(kind, dpm, infinite))
}

/// Figure 6a (OLTP) or 6b (Cello96): energy normalized to LRU, under both
/// DPM schemes.
#[must_use]
pub fn energy(params: &Params, kind: TraceKind) -> ExperimentOutput {
    // A TraceSource rather than a Trace: a file-backed run streams the
    // on-line bars straight off the map, and the off-line bars share one
    // cached materialization.
    let trace = params.trace_source(kind);
    let mut out = ExperimentOutput::default();
    let mut t = Table::new(["policy", "oracle dpm", "practical dpm"]);

    // All ten (DPM × policy) runs are independent: fan them out flat and
    // regroup into the two table columns afterwards. The bar list (and its
    // power model) is built once and shared by both DPM columns.
    let bar_specs = bars(params);
    let bar_count = bar_specs.len();
    let points: Vec<(DpmPolicy, &'static str, PolicySpec, bool)> =
        [DpmPolicy::Oracle, DpmPolicy::Practical]
            .into_iter()
            .flat_map(|dpm| {
                bar_specs
                    .iter()
                    .map(move |(name, spec, inf)| (dpm, *name, spec.clone(), *inf))
            })
            .collect();
    let reports: Vec<(&'static str, SimReport)> =
        sweep::over(params, points, |(dpm, name, spec, inf)| {
            (*name, run_bar(&trace, kind, *dpm, spec, *inf))
        });

    let mut columns = Vec::new();
    for dpm_reports in reports.chunks(bar_count) {
        let lru_energy = dpm_reports
            .iter()
            .find(|(n, _)| *n == OnlinePolicy::Lru.name())
            .expect("lru bar present")
            .1
            .total_energy();
        columns.push(
            dpm_reports
                .iter()
                .map(|(name, r)| (*name, r.total_energy().as_joules() / lru_energy.as_joules()))
                .collect::<Vec<_>>(),
        );
    }
    for (i, (name, oracle_ratio)) in columns[0].iter().enumerate() {
        let practical_ratio = columns[1][i].1;
        t.row([
            (*name).to_owned(),
            format!("{oracle_ratio:.3}"),
            format!("{practical_ratio:.3}"),
        ]);
        out.record(format!("{name}_oracle"), *oracle_ratio);
        out.record(format!("{name}_practical"), practical_ratio);
    }

    out.text = format!(
        "Figure 6{}: Disk energy on {} (normalized to LRU)\n\n{}",
        match kind {
            TraceKind::Oltp => "a",
            TraceKind::Cello => "b",
        },
        kind.name(),
        t.render()
    );
    out
}

/// Figure 6c: mean response time under Practical DPM, normalized to LRU,
/// for both traces — plus the p99 tail (beyond the paper, which reports
/// means only; the tail is where spin-up waits actually live).
#[must_use]
pub fn response(params: &Params) -> ExperimentOutput {
    let mut out = ExperimentOutput::default();
    let mut t = Table::new(["policy", "oltp", "cello96", "oltp p99", "cello96 p99"]);
    // Both traces are sourced once up front; the eight (trace × policy)
    // runs then fan out flat over the executor.
    let traces: Vec<(TraceKind, TraceSource)> = [TraceKind::Oltp, TraceKind::Cello]
        .into_iter()
        .map(|kind| (kind, params.trace_source(kind)))
        .collect();
    // One bar list serves both traces; the infinite-cache bar is dropped
    // (response time is meaningless without evictions to slow it down).
    let bar_specs: Vec<(&'static str, PolicySpec, bool)> = bars(params)
        .into_iter()
        .filter(|(name, _, _)| *name != "infinite-cache")
        .collect();
    let points: Vec<(usize, &'static str, PolicySpec, bool)> = (0..traces.len())
        .flat_map(|ti| {
            bar_specs
                .iter()
                .map(move |(name, spec, inf)| (ti, *name, spec.clone(), *inf))
        })
        .collect();
    let bar_count = bar_specs.len();
    let reports: Vec<(&'static str, SimReport)> =
        sweep::over(params, points, |(ti, name, spec, inf)| {
            let (kind, trace) = &traces[*ti];
            (
                *name,
                run_bar(trace, *kind, DpmPolicy::Practical, spec, *inf),
            )
        });
    let mut per_kind = Vec::new();
    for kind_reports in reports.chunks(bar_count) {
        let lru = kind_reports
            .iter()
            .find(|(n, _)| *n == OnlinePolicy::Lru.name())
            .expect("lru bar present")
            .1
            .mean_response()
            .as_secs_f64();
        per_kind.push(
            kind_reports
                .iter()
                .map(|(name, r)| {
                    (
                        *name,
                        r.mean_response().as_secs_f64() / lru,
                        r.response_quantile(0.99),
                    )
                })
                .collect::<Vec<_>>(),
        );
    }
    for (i, (name, oltp_ratio, oltp_p99)) in per_kind[0].iter().enumerate() {
        let (_, cello_ratio, cello_p99) = per_kind[1][i];
        t.row([
            (*name).to_owned(),
            format!("{oltp_ratio:.3}"),
            format!("{cello_ratio:.3}"),
            oltp_p99.to_string(),
            cello_p99.to_string(),
        ]);
        out.record(format!("{name}_oltp"), *oltp_ratio);
        out.record(format!("{name}_cello"), cello_ratio);
        out.record(format!("{name}_oltp_p99_s"), oltp_p99.as_secs_f64());
    }
    out.text = format!(
        "Figure 6c: Mean response time under Practical DPM (normalized to LRU),\nwith p99 tails (absolute; tails are ours, the paper reports means only)\n\n{}",
        t.render()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scale at which the cache actually fills and several PA-LRU epochs
    /// complete; magnitudes stay below full-scale (warm-up dominates) but
    /// the orderings must already hold.
    fn test_params() -> Params {
        Params {
            scale: 0.2,
            ..Params::quick()
        }
    }

    #[test]
    fn oltp_energy_ordering_matches_the_paper() {
        let o = energy(&test_params(), TraceKind::Oltp);
        // PA-LRU beats LRU; the infinite cache is the lower bound under
        // Oracle; OPG is at least as good as Belady on energy.
        assert!(o.metric("pa-lru_practical") < 0.998);
        assert!(o.metric("infinite-cache_oracle") <= o.metric("opg_oracle") + 0.01);
        assert!(o.metric("opg_oracle") <= o.metric("belady_oracle") + 1e-9);
    }

    #[test]
    fn response_improves_for_pa_lru_on_oltp() {
        // Needs a slightly longer run than the energy test: the response
        // win comes from *avoided spin-ups*, which only accumulate once
        // classification has settled.
        let o = response(&Params {
            scale: 0.35,
            ..Params::quick()
        });
        assert!(o.metric("pa-lru_oltp") < 0.97);
        assert!(o.metric("belady_oltp") < 1.0);
    }
}
