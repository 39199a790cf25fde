//! The repo benchmark: five workloads, end-to-end metrics taken
//! untraced, per-layer metrics from a traced layer-replay run. See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.

mod catalog;
mod client;
mod compare;
mod host;
mod json;
mod layers;
mod server;
mod sim;
mod span;
mod stats;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Failed correctness checks of one run. Each failure counts in
/// `failed` (and so in `fail_ratio`) and turns the exit code non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, what());
        }
    }

    pub fn fail(&mut self, count: u64, what: String) {
        if count > 0 {
            self.failed += count;
            // Keep the report readable when one cause fails many times.
            if self.messages.len() < 20 {
                self.messages.push(what);
            }
        }
    }
}

/// Settings of one run, echoed in the header.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub record: Option<PathBuf>,
}

const USAGE: &str = "usage:
  pc-benchmark run --workload NAME|all --seed N [--seconds S] [--traced | --trace 0|1] [--record FILE]
  pc-benchmark compare A.json B.json
  pc-benchmark manifest            (prints BENCHMARK.json from the catalogue)
workloads: sim-oltp sim-cello sim-write server-meta server-payload";

fn parse_run(args: &[String]) -> Result<Settings, String> {
    let mut s = Settings {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(catalog::RUN_SECONDS),
        traced: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            s.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => s.workload = value.clone(),
            "--seed" => s.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                s.seconds = value.parse().map_err(|_| bad())?;
                if !(s.seconds >= 1.0 && s.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                s.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--record" => s.record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = catalog::WORKLOADS.iter().any(|w| w.0 == s.workload);
    if !known && s.workload != "all" {
        return Err(format!("unknown workload {:?}", s.workload));
    }
    Ok(s)
}

/// Where temp `.pct` files and span files go: `out/` beside the
/// package's manifest, inside the checkout.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    let dir = PathBuf::from(root).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Runs every workload, one child process each, so `peak_rss_mb` is per
/// workload; relays their output and sums their counts.
fn run_all(s: &Settings) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for (name, _) in catalog::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &s.seed.to_string()])
            .args(["--seconds", &s.seconds.to_string()])
            .args(["--trace", if s.traced { "1" } else { "0" }]);
        if let Some(record) = &s.record {
            cmd.arg("--record").arg(record);
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or_default();
        match json::parse(last) {
            Ok(v) if out.status.success() => {
                attempted += v
                    .get("attempted")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0);
                failed += v.get("failed").and_then(json::Value::as_f64).unwrap_or(0.0);
            }
            _ => correct = false,
        }
        println!();
    }
    correct &= failed == 0.0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
    );
    Ok(correct)
}

fn run(s: &Settings) -> Result<bool, String> {
    if s.workload == "all" {
        return run_all(s);
    }
    let fingerprint = host::fingerprint();
    // Before any thread exists: the server's and the client's inherit it.
    let pinned = host::pin_to_current_cpu();
    let host = format!(
        "{fingerprint} pinned_to_cpu={}",
        pinned.map_or("no".to_owned(), |cpu| cpu.to_string())
    );
    println!("# host: {host}");
    println!("# settings: {}", workload::describe(s));
    let outcome = workload::run(s).map_err(|e| format!("{}: {e}", s.workload))?;
    print!("{}", outcome.render(s));
    if let Some(path) = &s.record {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", outcome.record_line(s, &host)).map_err(|e| e.to_string())?;
    }
    println!("{}", outcome.result_line(s));
    Ok(outcome.checks.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|s| run(&s)),
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            compare::run(rest[0].as_ref(), rest[1].as_ref())
        }
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", catalog::manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
