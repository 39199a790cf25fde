//! The three simulator workloads: set-up, cells, measured rounds and
//! the checks that ride along.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pc_cache::WritePolicy;
use pc_sim::{run_replacement, run_write_policy, PolicySpec, SimConfig, SimReport};
use pc_trace::{
    CelloConfig, GapDistribution, OltpConfig, Record, SyntheticConfig, Trace, Workload,
};
use pc_tracefile::MappedTrace;
use pc_units::{Joules, SimDuration};

use crate::stats::median;
use crate::{host, Checks};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Oltp,
    Cello,
    Write,
}

/// Fewest measured rounds whatever `--seconds` says: a median of fewer
/// than three reps is a single run.
pub const MIN_ROUNDS: usize = 3;

/// The off-line cell costs 3-5 on-line cells, and the gated metrics come
/// from the on-line ones: it takes a rep every fourth round only, so ten
/// seconds hold about ten on-line reps instead of three.
pub const OFFLINE_EVERY: usize = 4;

/// One trace × policy × configuration the simulator is timed on.
pub struct Cell {
    pub name: &'static str,
    pub policy: PolicySpec,
    pub config: SimConfig,
    /// Counts toward `req_per_s` (off-line cells report their own rate).
    pub online: bool,
}

impl Cell {
    fn new(name: &'static str, policy: PolicySpec, write: WritePolicy) -> Cell {
        Cell {
            name,
            online: !policy.needs_future(),
            policy,
            config: SimConfig::default().with_write_policy(write),
        }
    }

    pub fn run(&self, kind: SimKind, trace: &Trace) -> SimReport {
        match kind {
            SimKind::Write => run_write_policy(trace, &self.policy, &self.config),
            _ => run_replacement(trace, &self.policy, &self.config),
        }
    }
}

impl SimKind {
    /// The generator and its settings.
    pub fn workload(self) -> Workload {
        match self {
            SimKind::Oltp => Workload::Oltp(OltpConfig::default().with_requests(1_440_000)),
            SimKind::Cello => Workload::Cello(CelloConfig::default().with_requests(800_000)),
            SimKind::Write => Workload::Synthetic(
                SyntheticConfig::default()
                    .with_requests(3_000_000)
                    .with_gaps(GapDistribution::exponential(SimDuration::from_millis(250)))
                    .with_write_ratio(0.6),
            ),
        }
    }

    /// The trace, from the seed alone.
    pub fn generate(self, seed: u64) -> Trace {
        match self.workload() {
            Workload::Oltp(c) => c.generate(seed),
            Workload::Cello(c) => c.generate(seed),
            Workload::Synthetic(c) => c.generate(seed),
            Workload::NonStationary(c) => c.generate(seed),
        }
    }

    /// Cells in round order. `PolicySpec::PaLru` is the paper's PA-LRU
    /// with the 900 s epoch (`PaLruConfig::default`).
    pub fn cells(self) -> Vec<Cell> {
        use WritePolicy::{Wbeu, WriteBack, WriteThrough, Wtdu};
        match self {
            SimKind::Oltp | SimKind::Cello => vec![
                Cell::new("lru", PolicySpec::Lru, WriteBack),
                Cell::new("pa-lru", PolicySpec::PaLru, WriteBack),
                Cell::new(
                    "opg",
                    PolicySpec::Opg {
                        epsilon: Joules::ZERO,
                    },
                    WriteBack,
                ),
            ],
            SimKind::Write => vec![
                Cell::new("wt", PolicySpec::Lru, WriteThrough),
                Cell::new("wb", PolicySpec::Lru, WriteBack),
                Cell::new("wbeu", PolicySpec::Lru, Wbeu { dirty_limit: 64 }),
                Cell::new("wtdu", PolicySpec::Lru, Wtdu),
            ],
        }
    }

    /// `(baseline, power-aware)` cell names: the pair `energy_saving_pct`
    /// compares; the second also gives `sim_energy_j` and `sim_resp_ms`.
    pub fn energy_pair(self) -> (&'static str, &'static str) {
        match self {
            SimKind::Oltp | SimKind::Cello => ("lru", "pa-lru"),
            SimKind::Write => ("wt", "wtdu"),
        }
    }

    /// The paper's figure the saving is printed beside (shape only: the
    /// traces are synthetic stand-ins).
    pub fn paper_reference(self) -> &'static str {
        match self {
            SimKind::Oltp => "paper Fig. 6a: PA-LRU saves 16% over LRU",
            SimKind::Cello => "paper Fig. 6b: PA-LRU saves 2-3% over LRU",
            SimKind::Write => {
                "paper Fig. 9: WTDU saves ~55% over write-through at 100% writes; ratio 0.6 is not legible"
            }
        }
    }
}

/// What set-up hands the measured phase.
pub struct SimInputs {
    pub trace: Trace,
    /// The trace exported as `.pct` (`sim-cello`, and every traced run).
    pub pct: Option<PathBuf>,
    pub gen_s: f64,
    pub export_s: f64,
}

/// One set-up: generate the trace and, when asked, export it.
pub fn set_up(kind: SimKind, seed: u64, pct: Option<&Path>) -> std::io::Result<SimInputs> {
    let t0 = Instant::now();
    let trace = kind.generate(seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    if let Some(path) = pct {
        pc_tracefile::write_trace(path, &trace)?;
    }
    Ok(SimInputs {
        trace,
        pct: pct.map(Path::to_path_buf),
        gen_s,
        export_s: t1.elapsed().as_secs_f64(),
    })
}

/// Order-sensitive fold of a record stream, to show two streams equal
/// without holding both.
pub fn fold_record(acc: u64, r: &Record) -> u64 {
    let word = r.time.as_micros()
        ^ r.block.block().number().rotate_left(17)
        ^ (u64::from(r.block.disk().index()) << 48)
        ^ (r.blocks << 56)
        ^ u64::from(r.op.is_write());
    (acc ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
}

/// One ingest pass: fresh map, first-touch CRC verify, every record.
/// Returns `(records, fold, crc computations, seconds)`.
pub fn ingest_pass(path: &Path) -> std::io::Result<(u64, u64, u64, f64)> {
    let t0 = Instant::now();
    let map = MappedTrace::open(path)?;
    let (mut count, mut fold) = (0u64, 0u64);
    for record in map.records() {
        fold = fold_record(fold, &record?);
        count += 1;
    }
    Ok((
        count,
        fold,
        map.crc_computations(),
        t0.elapsed().as_secs_f64(),
    ))
}

/// The measured phase's result.
pub struct SimRun {
    pub cells: Vec<Cell>,
    /// The warm-up round's reports: the reference every rep must equal.
    pub reports: Vec<SimReport>,
    /// Median wall seconds per cell over the measured rounds.
    pub wall_s: Vec<f64>,
    /// Every measured rep's wall seconds, per cell.
    pub reps_s: Vec<Vec<f64>>,
    /// Median CPU µs per cell over the measured rounds.
    pub cpu_us: Vec<f64>,
    pub rounds: usize,
    pub ingest_rec_per_s: Option<f64>,
    /// Requests simulated in the measured rounds.
    pub attempted: u64,
}

impl SimRun {
    pub fn cell(&self, name: &str) -> usize {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("no cell {name}"))
    }

    /// `(cells, Σ per_cell)` over the on-line cells.
    fn online(&self, per_cell: &[f64]) -> (f64, f64) {
        self.cells
            .iter()
            .zip(per_cell)
            .filter(|(c, _)| c.online)
            .fold((0.0, 0.0), |(n, sum), (_, x)| (n + 1.0, sum + x))
    }

    /// Σ requests ÷ Σ median wall over the on-line cells.
    pub fn online_req_per_s(&self, requests: usize) -> f64 {
        let (cells, wall_s) = self.online(&self.wall_s);
        cells * requests as f64 / wall_s
    }

    /// Σ median CPU µs ÷ Σ requests over the on-line cells.
    pub fn online_cpu_us_per_req(&self, requests: usize) -> f64 {
        let (cells, cpu_us) = self.online(&self.cpu_us);
        cpu_us / (cells * requests as f64)
    }

    /// The off-line cell's rate, `PolicySpec::build` included.
    pub fn offline_req_per_s(&self, requests: usize) -> Option<f64> {
        self.cells
            .iter()
            .zip(&self.wall_s)
            .find(|(c, _)| !c.online)
            .map(|(_, s)| requests as f64 / s)
    }

    /// CRC32C over every cell's report: equal digests, equal simulated
    /// statistics.
    pub fn digest(&self) -> u32 {
        self.reports.iter().fold(0, |crc, r| {
            pc_crc::crc32c_append(crc, r.to_json().as_bytes())
        })
    }
}

/// Checks one report against the trace it came from.
fn check_report(checks: &mut Checks, cell: &str, r: &SimReport, trace: &Trace) {
    checks.require(r.requests == trace.len() as u64, || {
        format!(
            "{cell}: {} requests for a {}-record trace",
            r.requests,
            trace.len()
        )
    });
    let c = &r.cache;
    checks.require(
        c.hits + c.misses() == c.accesses
            && c.accesses == r.requests
            && c.reads + c.writes == c.accesses,
        || format!("{cell}: cache counters do not balance: {c:?}"),
    );
}

/// Warm-up round, then interleaved rounds for about `seconds` (at least
/// [`MIN_ROUNDS`]); on `sim-cello` the last tenth of the time (at least
/// a second) goes to the ingest phase. Modelled caches start empty in
/// every cell, as the paper's figures do.
pub fn measure(
    kind: SimKind,
    inputs: &SimInputs,
    seconds: f64,
    min_rounds: usize,
    checks: &mut Checks,
) -> std::io::Result<SimRun> {
    let trace = &inputs.trace;
    let cells = kind.cells();
    let ingest_s = match kind {
        SimKind::Cello => (seconds * 0.1).max(1.0),
        _ => 0.0,
    };

    let reports: Vec<SimReport> = cells.iter().map(|c| c.run(kind, trace)).collect();
    let reference: Vec<String> = reports.iter().map(SimReport::to_json).collect();
    for (cell, report) in cells.iter().zip(&reports) {
        check_report(checks, cell.name, report, trace);
    }

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut cpu_us: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut attempted = 0u64;
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        for (i, cell) in cells.iter().enumerate() {
            if !cell.online && !rounds.is_multiple_of(OFFLINE_EVERY) {
                continue;
            }
            let cpu0 = host::cpu_ns_this_thread();
            let t0 = Instant::now();
            let report = cell.run(kind, trace);
            walls[i].push(t0.elapsed().as_secs_f64());
            cpu_us[i].push((host::cpu_ns_this_thread() - cpu0) as f64 / 1e3);
            attempted += report.requests;
            checks.require(report.to_json() == reference[i], || {
                format!(
                    "{}: rep {rounds} differs from the warm-up report",
                    cell.name
                )
            });
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        // Stop when another round would overshoot by more than it
        // undershoots now.
        if rounds >= min_rounds && elapsed + 0.5 * elapsed / rounds as f64 > seconds - ingest_s {
            break;
        }
    }

    let ingest_rec_per_s = match (&inputs.pct, kind) {
        (Some(path), SimKind::Cello) => {
            let want = trace.iter().fold(0, fold_record);
            let chunks = trace
                .len()
                .div_ceil(pc_tracefile::DEFAULT_CHUNK_RECORDS as usize)
                as u64;
            let mut rates = Vec::new();
            let start = Instant::now();
            while rates.is_empty() || start.elapsed().as_secs_f64() < ingest_s {
                let (count, fold, crcs, s) = ingest_pass(path)?;
                checks.require(
                    count == trace.len() as u64 && fold == want && crcs == chunks,
                    || format!("ingest: {count} records, fold {fold:#x}, {crcs} CRCs; want {}, {want:#x}, {chunks}", trace.len()),
                );
                rates.push(count as f64 / s);
            }
            Some(median(&rates))
        }
        _ => None,
    };

    Ok(SimRun {
        wall_s: walls.iter().map(|w| median(w)).collect(),
        reps_s: walls,
        cells,
        reports,
        rounds,
        cpu_us: cpu_us.iter().map(|c| median(c)).collect(),
        ingest_rec_per_s,
        attempted,
    })
}
