//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale X] [--seed N] [--jobs N] [--trace FILE.pct]
//! repro all [--scale X] [--seed N] [--jobs N]
//! repro trace export --workload NAME --out FILE.pct [--requests N] [--seed N]
//! repro trace info FILE.pct
//! ```
//!
//! Experiments: `table1 table2 table3 fig2 fig3 fig4 fig5 fig6a fig6b
//! fig6c fig7 fig8 fig9-ratio fig9-gap`. The default scale of 1.0 runs
//! paper-comparable trace lengths (`fig9-*` take minutes); `--scale 0.05`
//! gives quick smoke runs.
//!
//! Sweeps fan out over worker threads: `--jobs N` pins the count, 0 or
//! no flag means one per core. Results are identical for any job count.
//!
//! `repro trace export` serializes a workload generator to the binary
//! `.pct` format (see `pc-tracefile`); `repro trace info` validates a
//! file and prints its header plus summary statistics. `--trace FILE`
//! on any experiment replays that file in place of every generated
//! workload — the bridge from `pc-server --capture` back into the
//! batch harness.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pc_experiments::{ablations, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, traceio};
use pc_experiments::{nonstationary, table1, table2, table3};
use pc_experiments::{ExperimentOutput, Params, TraceKind};
use pc_sim::cli::Flags;
use pc_trace::{Scenario, Workload};

/// An experiment driver; only `nonstationary` reads the scenario.
type Experiment = fn(&Params, Option<Scenario>) -> ExperimentOutput;

/// Every experiment, in the order `repro all` runs them.
const EXPERIMENTS: [(&str, Experiment); 26] = [
    ("table1", |p, _| table1::run(p)),
    ("table2", |p, _| table2::run(p)),
    ("table3", |_, _| table3::run()),
    ("fig2", |p, _| fig2::run(p)),
    ("fig3", |_, _| fig3::run()),
    ("fig4", |p, _| fig4::run(p)),
    ("fig5", |p, _| fig5::run(p)),
    ("fig6a", |p, _| fig6::energy(p, TraceKind::Oltp)),
    ("fig6b", |p, _| fig6::energy(p, TraceKind::Cello)),
    ("fig6c", |p, _| fig6::response(p)),
    ("fig7", |p, _| fig7::run(p)),
    ("fig8", |p, _| fig8::run(p)),
    ("fig9-ratio", |p, _| fig9::by_write_ratio(p)),
    ("fig9-gap", |p, _| fig9::by_interarrival(p)),
    ("ablation-eps", |p, _| ablations::epsilon_sweep(p)),
    ("ablation-pa", |p, _| ablations::pa_sensitivity(p)),
    ("ablation-modes", |p, _| ablations::mode_count(p)),
    ("ablation-policies", |p, _| ablations::policy_zoo(p)),
    ("ablation-wbeu", |p, _| ablations::wbeu_dirty_limit(p)),
    ("ablation-prefetch", |p, _| ablations::prefetch_depth(p)),
    ("ablation-scheduler", |p, _| ablations::scheduler(p)),
    ("ablation-combo", |p, _| ablations::combo(p)),
    ("ablation-layout", |p, _| ablations::layout(p)),
    ("ablation-disktype", |p, _| ablations::disk_type(p)),
    ("ablation-serve-at-speed", |p, _| {
        ablations::serve_at_speed(p)
    }),
    ("nonstationary", nonstationary::run),
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        return match run_trace(&args[1..]) {
            Ok(code) => code,
            Err(error) => trace_usage(&error),
        };
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => usage(&error),
    }
}

/// `repro <experiment|all> [flags]`. `Err` is a usage error; the empty
/// one asks for the usage text (`--help`).
fn run(args: Vec<String>) -> Result<(), String> {
    let mut which = None;
    let mut params = Params::paper();
    let mut workload = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--scale" => params.scale = flags.positive(&arg)?,
            "--seed" => params.seed = flags.value(&arg)?,
            "--jobs" => params.jobs = flags.value(&arg)?,
            "--trace" => params.trace_file = Some(flags.string(&arg)?.into()),
            "--workload" => workload = Some(flags.string(&arg)?),
            "--help" | "-h" => return Err(String::new()),
            name if which.is_none() => which = Some(name.to_owned()),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let which = which.ok_or("missing experiment name")?;

    // `--workload nonstationary:NAME` narrows the nonstationary matrix
    // to one scenario; no other experiment takes a workload override.
    let scenario = match workload.as_deref() {
        None => None,
        Some(w) if which == "nonstationary" => {
            let name = w.strip_prefix("nonstationary:").unwrap_or(w);
            Some(Scenario::parse(name).ok_or_else(|| {
                format!(
                    "unknown non-stationary workload: {w} (diurnal, flash-crowd, churn, phase-change)"
                )
            })?)
        }
        Some(_) => return Err("--workload only applies to the nonstationary experiment".into()),
    };
    if which == "all" {
        for (name, experiment) in EXPERIMENTS {
            run_one(name, experiment, &params, None);
        }
        return Ok(());
    }
    let (name, experiment) = EXPERIMENTS
        .into_iter()
        .find(|(name, _)| *name == which)
        .ok_or_else(|| format!("unknown experiment: {which}"))?;
    run_one(name, experiment, &params, scenario);
    Ok(())
}

fn run_one(name: &str, experiment: Experiment, params: &Params, scenario: Option<Scenario>) {
    let started = std::time::Instant::now();
    let output = experiment(params, scenario);
    println!("{}", output.text);
    println!("[{name} done in {:.1?}]\n", started.elapsed());
}

/// `repro trace export|info`: serialize a workload generator to a
/// binary `.pct` file, or validate one and print its summary. `Err` is
/// a usage error; failed I/O is reported here and exits 1.
fn run_trace(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("export") => run_export(&args[1..]),
        Some("info") => {
            let [path] = &args[1..] else {
                return Err("info takes exactly one FILE.pct argument".into());
            };
            Ok(match traceio::info(Path::new(path)) {
                Ok(summary) => {
                    print!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: reading {path}: {e}");
                    ExitCode::from(1)
                }
            })
        }
        Some(other) => Err(format!("unknown trace sub-command: {other}")),
        None => Err("trace needs a sub-command (export, info)".into()),
    }
}

/// `repro trace export --workload NAME --out OUT [--requests N] [--seed N]`.
fn run_export(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut out = None;
    let mut requests = None;
    let mut seed = 42u64;
    let mut flags = Flags::new(args.to_vec());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--workload" => {
                workload = Some(flags.parse_with(&arg, |name| {
                    Workload::parse(name)
                        .ok_or("expected synthetic, oltp, cello96, or nonstationary:SCENARIO")
                })?);
            }
            "--out" => out = Some(PathBuf::from(flags.string(&arg)?)),
            "--requests" => requests = Some(flags.at_least(&arg, 1)?),
            "--seed" => seed = flags.value(&arg)?,
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let mut workload: Workload = workload.ok_or("export needs --workload")?;
    let out = out.ok_or("export needs --out")?;
    if let Some(n) = requests {
        workload = workload.with_requests(n);
    }
    Ok(match traceio::export(&workload, seed, &out) {
        Ok(written) => {
            println!(
                "wrote {written} {} records to {}",
                workload.name(),
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: exporting to {}: {e}", out.display());
            ExitCode::from(1)
        }
    })
}

fn trace_usage(error: &str) -> ExitCode {
    eprintln!("error: {error}\n");
    eprintln!(
        "usage: repro trace export --workload <synthetic|oltp|cello96|nonstationary:SCENARIO> --out FILE.pct [--requests N] [--seed N]"
    );
    eprintln!("       repro trace info FILE.pct");
    ExitCode::from(2)
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!("usage: repro <experiment|all> [--scale X] [--seed N] [--jobs N] [--trace FILE.pct]");
    eprintln!("       repro --trace FILE.pct <experiment>   replays a binary trace file");
    eprintln!(
        "       repro nonstationary [--workload nonstationary:<diurnal|flash-crowd|churn|phase-change>]"
    );
    eprintln!("       repro trace export|info   converts workloads to/inspects .pct files");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("experiments: {}", names.join(" "));
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
