//! Non-stationary workload matrix — the adaptive meta-policy against
//! every fixed policy it wraps.
//!
//! This experiment is ours, not the paper's: the paper's traces are
//! statistically stationary, so a fixed policy tuned offline stays
//! tuned. The [`pc_trace::NonStationaryConfig`] scenarios (diurnal
//! cycles, flash crowds, tenant churn, a mid-run phase change) break
//! that assumption, and the matrix here measures what the adaptive
//! `meta` policy buys: for each scenario it runs meta plus all eleven
//! fixed candidates and reports total energy, hit ratio, and — for
//! meta — how many epoch-boundary switches the run made.
//!
//! The headline metrics per scenario: `{scenario}_meta_vs_best` (meta's
//! energy over the best fixed policy's; adaptivity is working when this
//! stays near 1) and `{scenario}_meta_vs_worst` (over the worst fixed
//! policy's; the guard against adapting into a pathology).

use pc_cache::policy::OnlinePolicy;
use pc_sim::{OnlineStepper, PolicySpec, SimConfig, SimReport};
use pc_trace::{NonStationaryConfig, Scenario, Trace};

use crate::{sweep, ExperimentOutput, Params, Table};

/// The policy matrix: meta first, then the eleven fixed candidates it
/// wraps, PA epochs scaled like every other experiment.
fn matrix(params: &Params) -> Vec<PolicySpec> {
    let power = SimConfig::default().power_model();
    let fixed = OnlinePolicy::ALL.map(|p| params.online_policy(p, &power));
    std::iter::once(PolicySpec::Meta).chain(fixed).collect()
}

/// The scenario trace at this scale. Phase length scales with the
/// request budget (20 phases at any scale) but never drops below four
/// meta epochs, so a down-scaled run still gives the adaptive policy
/// whole phases to read.
fn scenario_trace(params: &Params, scenario: Scenario) -> Trace {
    let requests = params.requests(200_000);
    let mut cfg = NonStationaryConfig::new(scenario).with_requests(requests);
    cfg = cfg.with_phase_requests((requests / 20).max(4_096));
    cfg.generate(params.seed)
}

/// One cell of the matrix: the batch-identical simulation loop, plus
/// the meta gauges [`pc_sim::run_replacement`] has no channel for.
fn run_cell(trace: &Trace, spec: &PolicySpec, cfg: &SimConfig) -> (SimReport, u64) {
    let power = cfg.power_model();
    let built = spec.build(trace, &power, cfg.dpm, cfg.cache_blocks);
    let mut stepper = OnlineStepper::new(trace.disk_count(), built, cfg);
    for record in trace {
        stepper.step(record);
    }
    let switches = stepper.meta_stats().map_or(0, |m| m.switches);
    (stepper.into_report(), switches)
}

/// Runs the matrix over every scenario (or just `only`, when the caller
/// passed `--workload nonstationary:NAME`).
#[must_use]
pub fn run(params: &Params, only: Option<Scenario>) -> ExperimentOutput {
    let scenarios: Vec<Scenario> = match only {
        Some(s) => vec![s],
        None => Scenario::all().to_vec(),
    };
    let cfg = SimConfig::default();
    let specs = matrix(params);
    let mut out = ExperimentOutput::default();
    let mut text = String::from(
        "Non-stationary matrix: adaptive meta-policy vs fixed policies\n(total energy per scenario; vs-best of 1.000 = matched the best fixed policy)\n",
    );

    for scenario in scenarios {
        let trace = scenario_trace(params, scenario);
        let cells: Vec<(SimReport, u64)> =
            sweep::over(params, specs.clone(), |spec| run_cell(&trace, spec, &cfg));
        // Cell 0 is meta; the rest are the fixed candidates.
        let meta_energy = cells[0].0.total_energy().as_joules();
        let switches = cells[0].1;
        let fixed = &cells[1..];
        let best = fixed
            .iter()
            .map(|(r, _)| r.total_energy().as_joules())
            .fold(f64::INFINITY, f64::min);
        let worst = fixed
            .iter()
            .map(|(r, _)| r.total_energy().as_joules())
            .fold(0.0, f64::max);

        let mut t = Table::new([
            "policy",
            "energy_j",
            "vs best fixed",
            "hit ratio",
            "switches",
        ]);
        for (report, sw) in &cells {
            t.row([
                report.policy.clone(),
                format!("{:.2}", report.total_energy().as_joules()),
                format!("{:.3}", report.total_energy().as_joules() / best),
                format!("{:.4}", report.cache.hit_ratio()),
                if report.policy == "meta" {
                    sw.to_string()
                } else {
                    "-".to_owned()
                },
            ]);
            out.record(
                format!("{}_{}_energy_j", scenario.name(), report.policy),
                report.total_energy().as_joules(),
            );
        }
        out.record(
            format!("{}_meta_switches", scenario.name()),
            switches as f64,
        );
        out.record(
            format!("{}_meta_vs_best", scenario.name()),
            meta_energy / best,
        );
        out.record(
            format!("{}_meta_vs_worst", scenario.name()),
            meta_energy / worst,
        );
        text.push_str(&format!("\nscenario: {}\n{}", scenario.name(), t.render()));
    }
    out.text = text;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Long enough for several phases of several meta epochs each.
    fn params() -> Params {
        Params {
            scale: 0.3,
            ..Params::quick()
        }
    }

    #[test]
    fn meta_adapts_across_every_scenario() {
        for scenario in Scenario::all() {
            let o = run(&params(), Some(scenario));
            let name = scenario.name();
            let vs_best = o.metric(&format!("{name}_meta_vs_best"));
            let vs_worst = o.metric(&format!("{name}_meta_vs_worst"));
            // The acceptance bar: within 10% of the best fixed policy,
            // strictly better than the worst, and actually switching.
            assert!(
                vs_best <= 1.10,
                "{name}: meta at {vs_best:.3}x the best fixed policy"
            );
            assert!(
                vs_worst < 1.0,
                "{name}: meta at {vs_worst:.3}x the worst fixed policy"
            );
            assert!(
                o.metric(&format!("{name}_meta_switches")) > 0.0,
                "{name}: meta never switched"
            );
        }
    }

    #[test]
    fn meta_runs_are_byte_identical() {
        let trace = scenario_trace(&params(), Scenario::PhaseChange);
        let cfg = SimConfig::default();
        let (a, sw_a) = run_cell(&trace, &PolicySpec::Meta, &cfg);
        let (b, sw_b) = run_cell(&trace, &PolicySpec::Meta, &cfg);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(sw_a, sw_b);
        assert!(sw_a > 0, "phase change must trigger at least one switch");
    }

    #[test]
    fn stationary_traces_keep_meta_off_the_floor() {
        // Property over seeds: on a *stationary* workload, meta must
        // never do worse than the worst fixed policy it wraps — the
        // hysteresis margin should keep it parked near one champion.
        let cfg = SimConfig::default();
        for seed in [1u64, 7, 42] {
            let trace = pc_trace::SyntheticConfig::default()
                .with_requests(20_000)
                .generate(seed);
            let specs = matrix(&Params::quick());
            let energies: Vec<f64> = specs
                .iter()
                .map(|s| run_cell(&trace, s, &cfg).0.total_energy().as_joules())
                .collect();
            let meta = energies[0];
            let worst = energies[1..].iter().fold(0.0f64, |a, &b| a.max(b));
            assert!(
                meta <= worst + 1e-9,
                "seed {seed}: meta {meta:.2} J above worst fixed {worst:.2} J"
            );
        }
    }
}
