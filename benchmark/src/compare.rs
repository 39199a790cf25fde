//! `compare A.json B.json`: are two sets of runs the same program?
//!
//! Each file is what `run --record FILE` appended: one JSON object per
//! run. One row per workload × end-to-end metric with both medians, the
//! ratio and its base (A), the bound, and a verdict.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::catalog::{Better, Bound, Metric, END_TO_END, WORKLOADS, WORKLOAD_END_TO_END};
use crate::json::{self, Value};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, and B's runs are
    /// not all on one side of A's: the bound cannot be checked.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` reads than `a` in the metric's own direction, in
/// the bound's terms (a share of `a`, or an absolute distance).
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    let worse = match m.better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    match m.bound {
        Bound::Share(_) if a != 0.0 => worse / a.abs(),
        _ => worse,
    }
}

fn limit(m: &Metric) -> f64 {
    match m.bound {
        Bound::Share(x) | Bound::Absolute(x) => x,
        Bound::Ungated => f64::INFINITY,
    }
}

/// The verdict for one workload × metric from both sides' runs.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = limit(m);
    let every_pair = |holds: &dyn Fn(f64) -> bool| {
        a.iter()
            .all(|&x| b.iter().all(|&y| holds(worse_by(m, x, y))))
    };
    // Every run of B at least as good as every run of A: no spread can
    // hide a regression.
    if every_pair(&|w| w <= 0.0) {
        return Verdict::Ok;
    }
    if let Bound::Absolute(_) = m.bound {
        // For numbers that repeat exactly: no run may stray, so no
        // median is taken.
        return if every_pair(&|w| w <= bound) {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    let over = worse_by(m, median(a), median(b)) > bound;
    if over && every_pair(&|w| w > bound) {
        return Verdict::Regressed;
    }
    if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if over {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// What one record file holds.
#[derive(Debug, Default)]
struct Runs {
    /// workload → metric → values, untraced runs only (end-to-end
    /// metrics are always taken untraced).
    metrics: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (workload, seed) → every `sim_digest` seen, traced runs too.
    digests: BTreeMap<(String, u64), BTreeSet<u64>>,
}

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let bad = || format!("{}:{}: not a run record", path.display(), i + 1);
        let workload = v.get("workload").and_then(Value::as_str).ok_or_else(bad)?;
        let metrics = v.get("metrics").and_then(Value::as_obj).ok_or_else(bad)?;
        let seed = v.get("seed").and_then(Value::as_f64);
        if let (Some(seed), Some(digest)) = (seed, v.get("digest").and_then(Value::as_f64)) {
            runs.digests
                .entry((workload.to_owned(), seed as u64))
                .or_default()
                .insert(digest as u64);
        }
        if v.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).ok_or_else(bad)?;
            runs.metrics
                .entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Prints one `sim_digest` row per workload × seed; returns how many
/// were not deterministic (two digests for one seed on one side).
fn compare_digests(a: &Runs, b: &Runs) -> usize {
    let mut unstable = 0;
    for (key, da) in &a.digests {
        let Some(db) = b.digests.get(key) else {
            continue;
        };
        let show = |d: &BTreeSet<u64>| {
            let all: Vec<String> = d.iter().map(|x| format!("{x:#010x}")).collect();
            all.join("/")
        };
        let verdict = if da.len() > 1 || db.len() > 1 {
            unstable += 1;
            "NOT DETERMINISTIC"
        } else if da == db {
            "identical"
        } else {
            "changed (simulated statistics differ)"
        };
        println!(
            "{:<15} sim_digest seed {:<6} A {} B {}  {verdict}",
            key.0,
            key.1,
            show(da),
            show(db)
        );
    }
    unstable
}

/// Prints the table; `Ok(false)` when any row regressed or a digest
/// did not repeat.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "# base A = {} ; B = {} ; ratio = B / A ; spread = run-to-run (IQR from 4 runs, range below) / median",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<15} {:<18} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "ratio", "spread A", "spread B", "bound"
    );
    let mut counts = [0usize; 3];
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter().chain(WORKLOAD_END_TO_END) {
            let side = |runs: &Runs| {
                runs.metrics
                    .get(*workload)
                    .and_then(|w| w.get(m.name))
                    .cloned()
            };
            let (Some(va), Some(vb)) = (side(&a), side(&b)) else {
                continue;
            };
            let verdict = judge(m, &va, &vb);
            counts[verdict as usize] += 1;
            let (ma, mb) = (median(&va), median(&vb));
            let bound = match m.bound {
                Bound::Share(x) => format!("{:.1}%", 100.0 * x),
                Bound::Absolute(x) => format!("{x} abs"),
                Bound::Ungated => "none".to_owned(),
            };
            println!(
                "{workload:<15} {:<18} {ma:>14.4} {mb:>14.4} {:>8.4} {:>8.2}% {:>8.2}% {bound:>7}  {} (n={}+{}, {})",
                m.name,
                if ma == 0.0 { 1.0 } else { mb / ma },
                100.0 * spread(&va),
                100.0 * spread(&vb),
                verdict.label(),
                va.len(),
                vb.len(),
                m.unit
            );
        }
    }
    let unstable = compare_digests(&a, &b);
    println!(
        "# {} ok, {} regressed, {} unresolved, {unstable} digests not deterministic",
        counts[Verdict::Ok as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize]
    );
    if counts.iter().sum::<usize>() == 0 {
        return Err("the two files share no workload × metric".to_owned());
    }
    Ok(counts[Verdict::Regressed as usize] == 0 && unstable == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-made metrics, so the verdict tests do not move with the
    /// catalogue's bounds.
    const fn metric(better: Better, bound: Bound) -> Metric {
        Metric {
            name: "test",
            unit: "unit",
            better,
            bound,
        }
    }
    const RATE: Metric = metric(Better::Higher, Bound::Share(0.10));
    const COST: Metric = metric(Better::Lower, Bound::Share(0.10));

    #[test]
    fn same_program_twice_is_ok() {
        assert_eq!(
            judge(&RATE, &[100.0, 101.0, 99.0], &[100.5, 99.5, 100.0]),
            Verdict::Ok
        );
        // Worse, but within the bound.
        assert_eq!(
            judge(&RATE, &[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_clear_loss_is_regressed_in_either_direction() {
        assert_eq!(
            judge(&RATE, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&COST, &[3.0, 3.1, 3.05], &[3.6, 3.5, 3.55]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&COST, &[3.0, 3.1, 3.05], &[2.0, 2.1, 2.2]),
            Verdict::Ok
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_not_unchanged() {
        // Medians agree, but runs range over 40%: a 10% loss could hide.
        assert_eq!(
            judge(&RATE, &[100.0, 120.0, 80.0], &[101.0, 79.0, 121.0]),
            Verdict::Unresolved
        );
        // Same noise, but every run of B beats every run of A.
        assert_eq!(
            judge(&RATE, &[100.0, 120.0, 80.0], &[130.0, 125.0, 160.0]),
            Verdict::Ok
        );
        // Same noise, every run of B far below every run of A.
        assert_eq!(
            judge(&RATE, &[100.0, 120.0, 90.0], &[50.0, 60.0, 40.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metrics_use_absolute_bounds() {
        let saving = metric(Better::Higher, Bound::Absolute(0.1));
        assert_eq!(judge(&saving, &[14.2; 3], &[14.2; 3]), Verdict::Ok);
        assert_eq!(judge(&saving, &[14.2; 3], &[14.15; 3]), Verdict::Ok);
        assert_eq!(judge(&saving, &[14.2; 3], &[13.9; 3]), Verdict::Regressed);
        // Zero tolerance: one stray run is enough.
        let fails = metric(Better::Lower, Bound::Absolute(0.0));
        assert_eq!(judge(&fails, &[0.0; 3], &[0.0; 3]), Verdict::Ok);
        assert_eq!(
            judge(&fails, &[0.0; 3], &[0.0, 1e-6, 0.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn single_runs_compare_on_their_values() {
        assert_eq!(judge(&COST, &[100.0], &[105.0]), Verdict::Ok);
        assert_eq!(judge(&COST, &[100.0], &[120.0]), Verdict::Regressed);
    }

    #[test]
    fn record_files_group_by_workload_and_skip_traced_runs() {
        let path = crate::out_dir()
            .unwrap()
            .join(format!("compare-test-{}.json", std::process::id()));
        std::fs::write(
            &path,
            concat!(
                "{\"workload\": \"sim-oltp\", \"seed\": 42, \"digest\": 7, \"traced\": false, \"metrics\": {\"req_per_s\": {\"value\": 10.0, \"unit\": \"1/s\"}}}\n",
                "{\"workload\": \"sim-oltp\", \"seed\": 42, \"digest\": 7, \"traced\": false, \"metrics\": {\"req_per_s\": {\"value\": 12.0, \"unit\": \"1/s\"}}}\n",
                "\n",
                "{\"workload\": \"sim-oltp\", \"seed\": 42, \"digest\": 8, \"traced\": true, \"metrics\": {\"req_per_s\": {\"value\": 99.0, \"unit\": \"1/s\"}}}\n",
            ),
        )
        .unwrap();
        let runs = load(&path).unwrap();
        assert_eq!(runs.metrics["sim-oltp"]["req_per_s"], vec![10.0, 12.0]);
        assert_eq!(
            runs.digests[&("sim-oltp".to_owned(), 42)].len(),
            2,
            "traced runs count here"
        );
        std::fs::write(&path, "{\"workload\": 3}\n").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
