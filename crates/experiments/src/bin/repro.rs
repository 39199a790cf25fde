//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale X] [--seed N] [--jobs N] [--trace FILE.pct]
//! repro all [--scale X] [--seed N] [--jobs N]
//! repro trace export --workload NAME --out FILE.pct [--requests N] [--seed N]
//! repro trace info FILE.pct
//! repro trace filter IN.pct --out OUT.pct [--disk N] [--op read|write] [--from-us T] [--until-us T]
//! repro trace slice IN.pct --out OUT.pct [--skip N] [--take N] [--from-us T] [--until-us T]
//! repro trace merge IN.pct [IN2.pct ...] --out OUT.pct
//! repro trace rescale IN.pct --out OUT.pct --factor X
//! ```
//!
//! Experiments: `table1 table2 table3 fig2 fig3 fig4 fig5 fig6a fig6b
//! fig6c fig7 fig8 fig9-ratio fig9-gap`. The default scale of 1.0 runs
//! paper-comparable trace lengths (`fig9-*` take minutes); `--scale 0.05`
//! gives quick smoke runs.
//!
//! Sweeps fan out over worker threads: `--jobs N` (or the `REPRO_JOBS`
//! environment variable when the flag is absent) pins the count, 0 or
//! unset means one per core. Results are identical for any job count.
//!
//! `repro trace export` serializes a workload generator to the binary
//! `.pct` format (see `pc-tracefile`); `repro trace info` validates a
//! file and prints its header plus summary statistics. `--trace FILE`
//! on any experiment replays that file in place of every generated
//! workload — the bridge from `pc-server --capture` back into the
//! batch harness.
//!
//! `repro trace filter|slice|merge|rescale` are streaming surgery
//! operators (see `pc_experiments::surgery`): each reads its inputs
//! through a lazily-verified memory map and writes a fresh `.pct` file
//! in constant memory, so trimming or combining multi-GB corpora never
//! materializes a record vector.

use std::env;
use std::process::ExitCode;

use pc_experiments::{ablations, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9};
use pc_experiments::{nonstationary, surgery, table1, table2, table3, Params, TraceKind};

const EXPERIMENTS: [&str; 26] = [
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
    "fig8",
    "fig9-ratio",
    "fig9-gap",
    "ablation-eps",
    "ablation-pa",
    "ablation-modes",
    "ablation-policies",
    "ablation-wbeu",
    "ablation-prefetch",
    "ablation-scheduler",
    "ablation-combo",
    "ablation-layout",
    "ablation-disktype",
    "ablation-serve-at-speed",
    "nonstationary",
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace(&args[1..]);
    }
    let mut which = None;
    let mut params = Params::paper();
    let mut jobs_flag = None;
    let mut workload = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => params.scale = s,
                _ => return usage("--scale needs a positive number"),
            },
            "--seed" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => params.seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--jobs" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => jobs_flag = Some(n),
                None => return usage("--jobs needs a worker count (0 = one per core)"),
            },
            "--trace" => match iter.next() {
                Some(path) => params.trace_file = Some(path.into()),
                None => return usage("--trace needs a .pct file path"),
            },
            "--workload" => match iter.next() {
                Some(name) => workload = Some(name.clone()),
                None => return usage("--workload needs a workload name"),
            },
            "--help" | "-h" => return usage(""),
            name if which.is_none() => which = Some(name.to_owned()),
            other => return usage(&format!("unexpected argument: {other}")),
        }
    }
    // The flag wins; REPRO_JOBS covers scripted runs that can't pass one.
    match jobs_flag {
        Some(n) => params.jobs = n,
        None => {
            if let Some(n) = env::var("REPRO_JOBS").ok().and_then(|v| v.parse().ok()) {
                params.jobs = n;
            }
        }
    }
    let Some(which) = which else {
        return usage("missing experiment name");
    };

    // `--workload nonstationary:NAME` narrows the nonstationary matrix
    // to one scenario; no other experiment takes a workload override.
    let scenario = match workload.as_deref() {
        None => None,
        Some(w) if which == "nonstationary" => {
            let name = w.strip_prefix("nonstationary:").unwrap_or(w);
            match pc_trace::Scenario::parse(name) {
                Some(s) => Some(s),
                None => {
                    return usage(&format!(
                        "unknown non-stationary workload: {w} (diurnal, flash-crowd, churn, phase-change)"
                    ))
                }
            }
        }
        Some(_) => return usage("--workload only applies to the nonstationary experiment"),
    };
    if which == "all" {
        for name in EXPERIMENTS {
            run_one(name, &params, None);
        }
        return ExitCode::SUCCESS;
    }
    if EXPERIMENTS.contains(&which.as_str()) {
        run_one(&which, &params, scenario);
        ExitCode::SUCCESS
    } else {
        usage(&format!("unknown experiment: {which}"))
    }
}

fn run_one(name: &str, params: &Params, scenario: Option<pc_trace::Scenario>) {
    let started = std::time::Instant::now();
    let output = match name {
        "table1" => table1::run(params),
        "table2" => table2::run(params),
        "table3" => table3::run(),
        "fig2" => fig2::run(params),
        "fig3" => fig3::run(),
        "fig4" => fig4::run(params),
        "fig5" => fig5::run(params),
        "fig6a" => fig6::energy(params, TraceKind::Oltp),
        "fig6b" => fig6::energy(params, TraceKind::Cello),
        "fig6c" => fig6::response(params),
        "fig7" => fig7::run(params),
        "fig8" => fig8::run(params),
        "fig9-ratio" => fig9::by_write_ratio(params),
        "fig9-gap" => fig9::by_interarrival(params),
        "ablation-eps" => ablations::epsilon_sweep(params),
        "ablation-pa" => ablations::pa_sensitivity(params),
        "ablation-modes" => ablations::mode_count(params),
        "ablation-policies" => ablations::policy_zoo(params),
        "ablation-wbeu" => ablations::wbeu_dirty_limit(params),
        "ablation-prefetch" => ablations::prefetch_depth(params),
        "ablation-scheduler" => ablations::scheduler(params),
        "ablation-combo" => ablations::combo(params),
        "ablation-layout" => ablations::layout(params),
        "ablation-disktype" => ablations::disk_type(params),
        "ablation-serve-at-speed" => ablations::serve_at_speed(params),
        "nonstationary" => nonstationary::run(params, scenario),
        other => unreachable!("validated experiment name: {other}"),
    };
    println!("{}", output.text);
    println!("[{name} done in {:.1?}]\n", started.elapsed());
}

/// `repro trace export|info|filter|slice|merge|rescale`: serialize a
/// workload generator to a binary `.pct` file, validate one and print
/// its summary, or rewrite files with the streaming surgery operators.
fn run_trace(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("export") => {
            let mut workload = None;
            let mut out = None;
            let mut requests = None;
            let mut seed = 42u64;
            let mut iter = args[1..].iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--workload" => match iter.next().map(|v| pc_trace::Workload::parse(v)) {
                        Some(Some(w)) => workload = Some(w),
                        _ => return trace_usage(
                            "--workload needs synthetic, oltp, cello96, or nonstationary:SCENARIO",
                        ),
                    },
                    "--out" => match iter.next() {
                        Some(path) => out = Some(std::path::PathBuf::from(path)),
                        None => return trace_usage("--out needs a file path"),
                    },
                    "--requests" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                        Some(n) if n > 0 => requests = Some(n),
                        _ => return trace_usage("--requests needs a positive count"),
                    },
                    "--seed" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                        Some(s) => seed = s,
                        None => return trace_usage("--seed needs an integer"),
                    },
                    other => return trace_usage(&format!("unexpected argument: {other}")),
                }
            }
            let Some(mut workload) = workload else {
                return trace_usage("export needs --workload");
            };
            let Some(out) = out else {
                return trace_usage("export needs --out");
            };
            if let Some(n) = requests {
                workload = workload.with_requests(n);
            }
            match pc_experiments::traceio::export(&workload, seed, &out) {
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
            }
        }
        Some("info") => {
            let [path] = &args[1..] else {
                return trace_usage("info takes exactly one FILE.pct argument");
            };
            match pc_experiments::traceio::info(std::path::Path::new(path)) {
                Ok(summary) => {
                    print!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: reading {path}: {e}");
                    ExitCode::from(1)
                }
            }
        }
        Some("filter") => run_filter(&args[1..]),
        Some("slice") => run_slice(&args[1..]),
        Some("merge") => run_merge(&args[1..]),
        Some("rescale") => run_rescale(&args[1..]),
        Some(other) => trace_usage(&format!("unknown trace sub-command: {other}")),
        None => {
            trace_usage("trace needs a sub-command (export, info, filter, slice, merge, rescale)")
        }
    }
}

/// `repro trace filter IN --out OUT [predicates]`.
fn run_filter(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut out = None;
    let mut spec = surgery::FilterSpec::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out = Some(std::path::PathBuf::from(path)),
                None => return trace_usage("--out needs a file path"),
            },
            "--disk" => match iter.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(d) => spec.disk = Some(d),
                None => return trace_usage("--disk needs a disk index"),
            },
            "--op" => match iter.next().map(String::as_str) {
                Some("read") => spec.op = Some(pc_trace::IoOp::Read),
                Some("write") => spec.op = Some(pc_trace::IoOp::Write),
                _ => return trace_usage("--op needs read or write"),
            },
            "--from-us" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(t) => spec.from = Some(pc_units::SimTime::from_micros(t)),
                None => return trace_usage("--from-us needs a time in microseconds"),
            },
            "--until-us" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(t) => spec.until = Some(pc_units::SimTime::from_micros(t)),
                None => return trace_usage("--until-us needs a time in microseconds"),
            },
            path if input.is_none() && !path.starts_with("--") => {
                input = Some(std::path::PathBuf::from(path));
            }
            other => return trace_usage(&format!("unexpected argument: {other}")),
        }
    }
    let (Some(input), Some(out)) = (input, out) else {
        return trace_usage("filter needs an input file and --out");
    };
    report_surgery("filter", surgery::filter(&input, &out, &spec), &out)
}

/// `repro trace slice IN --out OUT [bounds]`.
fn run_slice(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut out = None;
    let mut spec = surgery::SliceSpec::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out = Some(std::path::PathBuf::from(path)),
                None => return trace_usage("--out needs a file path"),
            },
            "--skip" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => spec.skip = n,
                None => return trace_usage("--skip needs a record count"),
            },
            "--take" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => spec.take = Some(n),
                None => return trace_usage("--take needs a record count"),
            },
            "--from-us" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(t) => spec.from = Some(pc_units::SimTime::from_micros(t)),
                None => return trace_usage("--from-us needs a time in microseconds"),
            },
            "--until-us" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(t) => spec.until = Some(pc_units::SimTime::from_micros(t)),
                None => return trace_usage("--until-us needs a time in microseconds"),
            },
            path if input.is_none() && !path.starts_with("--") => {
                input = Some(std::path::PathBuf::from(path));
            }
            other => return trace_usage(&format!("unexpected argument: {other}")),
        }
    }
    let (Some(input), Some(out)) = (input, out) else {
        return trace_usage("slice needs an input file and --out");
    };
    report_surgery("slice", surgery::slice(&input, &out, &spec), &out)
}

/// `repro trace merge IN [IN2 ...] --out OUT`.
fn run_merge(args: &[String]) -> ExitCode {
    let mut inputs = Vec::new();
    let mut out = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out = Some(std::path::PathBuf::from(path)),
                None => return trace_usage("--out needs a file path"),
            },
            path if !path.starts_with("--") => inputs.push(std::path::PathBuf::from(path)),
            other => return trace_usage(&format!("unexpected argument: {other}")),
        }
    }
    let Some(out) = out else {
        return trace_usage("merge needs --out");
    };
    if inputs.is_empty() {
        return trace_usage("merge needs at least one input file");
    }
    report_surgery("merge", surgery::merge(&inputs, &out), &out)
}

/// `repro trace rescale IN --out OUT --factor X`.
fn run_rescale(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut out = None;
    let mut factor = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(path) => out = Some(std::path::PathBuf::from(path)),
                None => return trace_usage("--out needs a file path"),
            },
            "--factor" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f.is_finite() && f > 0.0 => factor = Some(f),
                _ => return trace_usage("--factor needs a positive number"),
            },
            path if input.is_none() && !path.starts_with("--") => {
                input = Some(std::path::PathBuf::from(path));
            }
            other => return trace_usage(&format!("unexpected argument: {other}")),
        }
    }
    let (Some(input), Some(out), Some(factor)) = (input, out, factor) else {
        return trace_usage("rescale needs an input file, --out, and --factor");
    };
    report_surgery("rescale", surgery::rescale(&input, &out, factor), &out)
}

/// Prints a surgery outcome uniformly and maps errors to exit code 1.
fn report_surgery(
    what: &str,
    result: std::io::Result<surgery::SurgeryStats>,
    out: &std::path::Path,
) -> ExitCode {
    match result {
        Ok(stats) => {
            println!(
                "{what}: read {} records, wrote {} to {}",
                stats.read,
                stats.written,
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {what}: {e}");
            ExitCode::from(1)
        }
    }
}

fn trace_usage(error: &str) -> ExitCode {
    eprintln!("error: {error}\n");
    eprintln!(
        "usage: repro trace export --workload <synthetic|oltp|cello96|nonstationary:SCENARIO> --out FILE.pct [--requests N] [--seed N]"
    );
    eprintln!("       repro trace info FILE.pct");
    eprintln!(
        "       repro trace filter IN.pct --out OUT.pct [--disk N] [--op read|write] [--from-us T] [--until-us T]"
    );
    eprintln!(
        "       repro trace slice IN.pct --out OUT.pct [--skip N] [--take N] [--from-us T] [--until-us T]"
    );
    eprintln!("       repro trace merge IN.pct [IN2.pct ...] --out OUT.pct");
    eprintln!("       repro trace rescale IN.pct --out OUT.pct --factor X");
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
    eprintln!("       repro trace filter|slice|merge|rescale   streaming .pct surgery");
    eprintln!("       REPRO_JOBS=N repro ...   (used when --jobs is absent; 0 = one per core)");
    eprintln!("experiments: {}", EXPERIMENTS.join(" "));
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
