//! One run of one workload: set-up, the untraced end-to-end phase or
//! the traced layer-replay phase, and the report.

use std::path::PathBuf;
use std::time::Instant;

use pc_trace::Trace;

use crate::catalog::{self, END_TO_END, PER_LAYER, WORKLOAD_END_TO_END};
use crate::client::WindowStats;
use crate::layers::{self, Replay};
use crate::server::{self, Live, LiveRun, ServerKind, Session, CONNECTIONS, WINDOWS};
use crate::sim::{self, SimKind};
use crate::span::Tracer;
use crate::stats::median;
use crate::{host, json, out_dir, Checks, Settings};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
const _: () = assert!(WINDOWS.is_multiple_of(SETUPS));

/// Records a server workload materializes for the layer replays.
const SERVER_REPLAY_RECORDS: usize = 1_200_000;

/// Requests the traced run of a simulator workload replays over the
/// wire, so the server layers see this workload's inputs too.
const WIRE_REPLAY_REQUESTS: usize = 300_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sim(SimKind),
    Server(ServerKind),
}

fn kind_of(name: &str) -> Kind {
    match name {
        "sim-oltp" => Kind::Sim(SimKind::Oltp),
        "sim-cello" => Kind::Sim(SimKind::Cello),
        "sim-write" => Kind::Sim(SimKind::Write),
        "server-meta" => Kind::Server(ServerKind::Meta),
        "server-payload" => Kind::Server(ServerKind::Payload),
        _ => unreachable!("workload names are checked against the catalogue"),
    }
}

/// Every setting that shapes the numbers, for the header.
pub fn describe(s: &Settings) -> String {
    let client = |k: ServerKind| {
        format!(
            "closed loop, 1 client thread, {CONNECTIONS} connections, {} in flight each, warm-up {} requests",
            k.depth(),
            k.warmup_requests()
        )
    };
    let specific = match (kind_of(&s.workload), s.traced) {
        (Kind::Sim(_), false) => format!(
            "{SETUPS} set-ups; warm-up round + >= {} interleaved rounds, off-line cell every {}th, caches start empty",
            sim::MIN_ROUNDS,
            sim::OFFLINE_EVERY
        ),
        (Kind::Server(k), false) => format!(
            "{SETUPS} set-ups, each a fresh server measured for {} windows x {:.2} s; {}",
            WINDOWS / SETUPS,
            s.seconds / WINDOWS as f64,
            client(k)
        ),
        (Kind::Sim(_), true) => format!(
            "one round of the cells; layer replays in spans of {} calls over the whole trace; {WIRE_REPLAY_REQUESTS} requests replayed over loopback ({} in flight x {CONNECTIONS} connections)",
            layers::BATCH,
            ServerKind::Meta.depth()
        ),
        (Kind::Server(k), true) => format!(
            "layer replays in spans of {} calls over {SERVER_REPLAY_RECORDS} stream records; {}, 3 windows x {:.2} s with spans off, then on",
            layers::BATCH,
            client(k),
            s.seconds / WINDOWS as f64
        ),
    };
    format!(
        "workload={} seed={} seconds={} traced={}; {specific}",
        s.workload, s.seed, s.seconds, s.traced
    )
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted: requests simulated or sent in the measured
    /// phase.
    pub attempted: u64,
    pub checks: Checks,
    /// CRC32C over the deterministic reports.
    pub digest: Option<u32>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64) {
        // Catches a name the catalogue does not know, at the source.
        let _ = catalog::unit_of(name);
        self.checks.require(value.is_finite(), || {
            format!("{name} is not a finite number")
        });
        self.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn fail_ratio(&self) -> f64 {
        self.checks.failed as f64 / self.attempted.max(1) as f64
    }

    /// The table a person reads.
    pub fn render(&self, s: &Settings) -> String {
        let mut out = String::new();
        let mut section = |title: &str, metrics: &[catalog::Metric]| {
            let rows: Vec<_> = metrics
                .iter()
                .filter_map(|m| self.get(m.name).map(|v| (m, v)))
                .collect();
            if !rows.is_empty() {
                out.push_str(&format!("{title}\n"));
            }
            for (m, v) in rows {
                out.push_str(&format!(
                    "  {:<42} {v:>16.4} {:<6} ({} is better)\n",
                    m.name,
                    m.unit,
                    m.better.label()
                ));
            }
        };
        section(
            "end-to-end, every workload (gated by BENCHMARK.json):",
            END_TO_END,
        );
        section("end-to-end, this workload:", WORKLOAD_END_TO_END);
        section("per layer:", PER_LAYER);
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        if let Some(d) = self.digest {
            out.push_str(&format!("sim_digest {d:#010x}\n"));
        }
        out.push_str(&format!(
            "checks: {} failed of {} attempted operations ({})\n",
            self.checks.failed,
            self.attempted,
            if s.traced { "traced" } else { "untraced" }
        ));
        for m in &self.checks.messages {
            out.push_str(&format!("FAILED: {m}\n"));
        }
        out
    }

    fn metrics_json(&self, names: &mut dyn Iterator<Item = &'static str>) -> String {
        let fields: Vec<String> = names
            .filter_map(|n| self.get(n).map(|v| (n, v)))
            .map(|(n, v)| {
                format!(
                    "\"{n}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    catalog::unit_of(n)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The driver's line: exactly the end-to-end metrics of an untraced
    /// run, exactly the per-layer ones of a traced run.
    pub fn result_line(&self, s: &Settings) -> String {
        let names: Vec<&'static str> = if s.traced {
            catalog::traced_names()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let missing: Vec<_> = names.iter().filter(|n| self.get(n).is_none()).collect();
        assert!(missing.is_empty(), "run did not measure {missing:?}");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.checks.failed == 0,
            self.attempted,
            self.checks.failed,
            self.metrics_json(&mut names.into_iter())
        )
    }

    /// One line of a `--record` file: everything measured, for `compare`.
    pub fn record_line(&self, s: &Settings, host: &str) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"digest\": {}, \"host\": \"{}\", \"metrics\": {}}}",
            s.workload,
            s.seed,
            s.seconds,
            s.traced,
            self.digest.map_or("null".to_owned(), |d| d.to_string()),
            json::escape(host),
            self.metrics_json(&mut self.metrics.iter().map(|m| m.0))
        )
    }
}

/// Runs `set_up` [`SETUPS`] times, dropping each product before the
/// next is built so set-up never doubles the peak memory; returns the
/// last product and the median wall time.
fn repeat_set_up<T>(mut set_up: impl FnMut() -> std::io::Result<T>) -> std::io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut product = None;
    for _ in 0..SETUPS {
        drop(product.take());
        let t0 = Instant::now();
        product = Some(set_up()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((product.expect("SETUPS > 0"), median(&times)))
}

fn temp_pct(s: &Settings) -> std::io::Result<PathBuf> {
    Ok(out_dir()?.join(format!(
        "{}-{}-{}.pct",
        s.workload,
        s.seed,
        std::process::id()
    )))
}

pub fn run(s: &Settings) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let pct = temp_pct(s)?;
    let result = match (kind_of(&s.workload), s.traced) {
        (Kind::Sim(k), false) => sim_end_to_end(k, s, &pct, &mut out),
        (Kind::Sim(k), true) => sim_traced(k, s, &pct, &mut out),
        (Kind::Server(k), false) => server_end_to_end(k, s, &mut out),
        (Kind::Server(k), true) => server_traced(k, s, &pct, &mut out),
    };
    // The temp trace goes whether or not the run got to the end.
    let _ = std::fs::remove_file(&pct);
    result?;
    if !s.traced {
        out.put("peak_rss_mb", host::peak_rss_mib());
        let ratio = out.fail_ratio();
        out.put("fail_ratio", ratio);
    }
    Ok(out)
}

// ---------------------------------------------------------------- sim

/// The simulated results a `SimRun` carries, whatever its length.
fn put_sim_results(k: SimKind, run: &sim::SimRun, requests: usize, out: &mut Outcome) {
    let (base, aware) = k.energy_pair();
    let (base, aware) = (&run.reports[run.cell(base)], &run.reports[run.cell(aware)]);
    if let Some(rate) = run.offline_req_per_s(requests) {
        out.put("offline_req_per_s", rate);
    }
    out.put("energy_saving_pct", aware.saving_over(base));
    out.notes.push(format!(
        "energy_saving_pct is {} vs {}; {} (synthetic stand-in traces: shape only)",
        k.energy_pair().1,
        k.energy_pair().0,
        k.paper_reference()
    ));
    out.digest = Some(run.digest());
}

fn sim_end_to_end(
    k: SimKind,
    s: &Settings,
    pct: &std::path::Path,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let export = (k == SimKind::Cello).then_some(pct);
    let (inputs, setup_s) = repeat_set_up(|| sim::set_up(k, s.seed, export))?;
    let run = sim::measure(k, &inputs, s.seconds, sim::MIN_ROUNDS, &mut out.checks)?;
    let n = inputs.trace.len();
    let aware = &run.reports[run.cell(k.energy_pair().1)];

    out.attempted = run.attempted;
    out.put("setup_s", setup_s);
    out.put("req_per_s", run.online_req_per_s(n));
    out.put("cpu_us_per_req", run.online_cpu_us_per_req(n));
    out.put("sim_energy_j", aware.total_energy().as_joules());
    out.put(
        "sim_resp_ms",
        aware.mean_response().as_micros() as f64 / 1e3,
    );
    if let Some(rate) = run.ingest_rec_per_s {
        out.put("ingest_rec_per_s", rate);
    }
    put_sim_results(k, &run, n, out);
    out.notes.push(format!(
        "{n} requests x {} rounds; wall per cell, median [reps] ms:",
        run.rounds
    ));
    for (cell, (median, reps)) in run.cells.iter().zip(run.wall_s.iter().zip(&run.reps_s)) {
        let reps: Vec<String> = reps.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
        out.notes.push(format!(
            "  {:<7} {:>7.1} [{}]",
            cell.name,
            median * 1e3,
            reps.join(" ")
        ));
    }
    Ok(())
}

fn sim_traced(
    k: SimKind,
    s: &Settings,
    pct: &std::path::Path,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let inputs = sim::set_up(k, s.seed, Some(pct))?;
    let n = inputs.trace.len();
    let mut tracer = Tracer::new(true);

    // One round of the real cells: this workload's own off-line rate,
    // saving and digest.
    let run = sim::measure(k, &inputs, 0.0, 1, &mut out.checks)?;
    put_sim_results(k, &run, n, out);

    let replay = layers::replay_all(
        &layers::Inputs {
            trace: &inputs.trace,
            pct,
            gen_s: inputs.gen_s,
            export_s: inputs.export_s,
            stream: k.workload(),
            seed: s.seed,
        },
        &mut tracer,
        &mut out.checks,
    )?;
    for (name, value) in &replay.metrics {
        out.put(name, *value);
    }
    out.put("ingest_rec_per_s", replay.get("tracefile.mapped_rec_per_s"));
    if out.get("offline_req_per_s").is_none() {
        // No off-line cell of its own: the replay's OPG cell stands in.
        out.put("offline_req_per_s", n as f64 / replay.offline_wall_s);
    }

    let first = &run.cells[0];
    out.put(
        "bench.tracing_overhead_pct",
        layers::tracing_overhead_pct(&inputs.trace, &first.policy, &first.config),
    );

    // This workload's records over the wire, metadata plane.
    let wire = wire_replay(&inputs.trace, &replay, &mut tracer, out)?;
    out.attempted = run.attempted + wire;

    finish_trace(&tracer, s, &replay, out)
}

/// Replays the head of `trace` through a live metadata server, dealt
/// round-robin over the connections, and reports the server-side layer
/// metrics for it. Returns the requests sent.
fn wire_replay(
    trace: &Trace,
    replay: &Replay,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> std::io::Result<u64> {
    let head = &trace.records()[..trace.len().min(WIRE_REPLAY_REQUESTS)];
    let streams = (0..CONNECTIONS)
        .map(|c| {
            let dealt: Vec<_> = head.iter().skip(c).step_by(CONNECTIONS).copied().collect();
            Box::new(dealt.into_iter()) as Box<dyn Iterator<Item = pc_trace::Record>>
        })
        .collect();
    let engine = pc_server::EngineConfig::new(2, trace.disk_count()).with_io_threads(1);
    let mut live = Live::start(engine, ServerKind::Meta.depth(), None, streams)?;
    let session = Session::Requests(head.len() as u64);
    let run = server::measure(&mut live, session, tracer, &mut out.checks)?;
    live.shut_down()?;
    out.checks
        .require(run.stats.requests == head.len() as u64, || {
            format!(
                "wire replay: server counted {} of {} requests",
                run.stats.requests,
                head.len()
            )
        });
    put_live_workload_metrics(&run, true, out);
    put_live_layer_metrics(&run, replay, tracer, out);
    Ok(head.len() as u64)
}

fn finish_trace(
    tracer: &Tracer,
    s: &Settings,
    replay: &Replay,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let path = out_dir()?.join(format!("trace-{}.jsonl", s.workload));
    tracer.write_jsonl(&path)?;
    out.notes.extend(replay.notes.iter().cloned());
    out.notes.push(format!(
        "{} spans written to {}",
        tracer.len(),
        path.display()
    ));
    Ok(())
}

// ------------------------------------------------------------- server

/// The median over the windows of one per-window number. A window
/// without a reply (none at the reference rates) counts with its zeros.
fn window_median(windows: &[WindowStats], pick: impl Fn(&WindowStats) -> f64) -> f64 {
    let values: Vec<f64> = windows.iter().map(pick).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

fn window_rate(windows: &[WindowStats]) -> f64 {
    window_median(windows, |w| w.replies as f64 / w.seconds)
}

/// `payload`: whether bytes moved, or (traced runs) the metric is owed
/// anyway; a metadata run otherwise leaves it out rather than print 0.
fn put_live_workload_metrics(run: &LiveRun, payload: bool, out: &mut Outcome) {
    out.put("lat_p50_us", window_median(&run.windows, |w| w.p50_us));
    out.put("lat_p99_us", window_median(&run.windows, |w| w.p99_us));
    if payload {
        out.put(
            "payload_mb_per_s",
            window_median(&run.windows, |w| w.payload_bytes as f64 / 1e6 / w.seconds),
        );
    }
    out.notes.push(format!(
        "latency: exact samples (every reply until a window holds 2^19, then every 2nd, 4th, ...), median over {} window(s) of the window percentile; >= {} samples beyond p99 per window; loopback, not a wire",
        run.windows.len(),
        run.windows.iter().map(|w| w.beyond_p99).min().unwrap_or(0)
    ));
}

/// The layer metrics only a live session can give.
fn put_live_layer_metrics(run: &LiveRun, replay: &Replay, tracer: &Tracer, out: &mut Outcome) {
    out.put(
        "server.read_lat_p50_us",
        window_median(&run.windows, |w| w.read_p50_us),
    );
    out.put(
        "server.write_lat_p50_us",
        window_median(&run.windows, |w| w.write_p50_us),
    );
    out.put(
        "server.lat_p999_us",
        window_median(&run.windows, |w| w.p999_us),
    );
    out.put("server.stats.busy_rejects", run.stats.busy_rejects as f64);
    out.put(
        "server.stats.queue_high_water",
        run.stats.queue_high_water as f64,
    );
    out.put("server.stats.crc_failures", run.stats.crc_failures as f64);
    out.put(
        "server.stats.hit_ratio",
        run.stats.hits as f64 / run.stats.requests.max(1) as f64,
    );
    out.put(
        "server.frontend_us_per_req",
        run.cpu_us_per_req()
            - replay.get("server.shard.ingest_ns_per_req") / 1e3
            - run.client_cpu_us_per_req(),
    );
    let selfs = tracer.self_ns_by_name();
    let share_of = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
    let (encode, verify, wait) = (
        share_of("client.encode"),
        share_of("client.verify"),
        share_of("client.wait"),
    );
    // The window spans' own self time is whatever the three phases leave.
    let total = (share_of("client.window") + encode + verify + wait).max(1.0);
    out.put("client.encode_share", encode / total);
    out.put("client.verify_share", verify / total);
    out.put("client.wait_share", wait / total);
}

/// Starts a server, connects and warms it up: one set-up.
fn start_warm(k: ServerKind, seed: u64) -> std::io::Result<Live> {
    let mut live = Live::start(k.engine(), k.depth(), k.block_bytes(), k.streams(seed))?;
    live.client
        .run_requests(k.warmup_requests(), &mut Tracer::new(false), None)?;
    Ok(live)
}

fn server_end_to_end(k: ServerKind, s: &Settings, out: &mut Outcome) -> std::io::Result<()> {
    // Every set-up is measured: a fresh server and fresh threads each
    // time, so the rhythm one start's threads fell into is one vote
    // among SETUPS.
    let session = Session::Windows {
        count: WINDOWS / SETUPS,
        seconds: s.seconds / WINDOWS as f64,
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut sessions = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut live = start_warm(k, s.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        sessions.push(server::measure(
            &mut live,
            session,
            &mut Tracer::new(false),
            &mut out.checks,
        )?);
        live.shut_down()?;
    }
    let run = sessions
        .into_iter()
        .reduce(LiveRun::absorb)
        .expect("SETUPS > 0");
    let setup_s = median(&setups);

    let records: Vec<_> = k
        .workload()
        .stream(s.seed)
        .take(server::IN_PROCESS_RECORDS)
        .collect();
    let books = server::in_process_books(k, &records, &mut out.checks);

    out.attempted = run.windows.iter().map(|w| w.replies).sum();
    out.put("setup_s", setup_s);
    out.put("req_per_s", window_rate(&run.windows));
    out.put("cpu_us_per_req", run.cpu_us_per_req());
    out.put("sim_energy_j", books.energy_j);
    out.put("sim_resp_ms", books.resp_ms);
    out.put("energy_saving_pct", books.saving_pct);
    put_live_workload_metrics(&run, k.block_bytes().is_some(), out);
    out.digest = Some(books.digest);
    out.notes.push(format!(
        "sim_energy_j, sim_resp_ms: the engine's books (LRU write-back) for the first {} records of stream {} served in-process; energy_saving_pct: PA-LRU over that",
        records.len(),
        s.seed
    ));
    out.notes.push(format!(
        "client thread {:.2} of {:.2} CPU us/request; the last session's STATS: {} requests, hit ratio {:.3}, {} BUSY, queue high water {}",
        run.client_cpu_us_per_req(),
        run.cpu_us_per_req(),
        run.stats.requests,
        run.stats.hits as f64 / run.stats.requests.max(1) as f64,
        run.stats.busy_rejects,
        run.stats.queue_high_water
    ));
    let row = |values: Vec<f64>, digits: usize| {
        let cells: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
        cells.join(" ")
    };
    out.notes.push(format!(
        "per window, k req/s: [{}]; CPU us/request: [{}]",
        row(
            run.windows
                .iter()
                .map(|w| w.replies as f64 / w.seconds / 1e3)
                .collect(),
            0
        ),
        row(run.window_cpu_us.clone(), 2)
    ));
    Ok(())
}

fn server_traced(
    k: ServerKind,
    s: &Settings,
    pct: &std::path::Path,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let t0 = Instant::now();
    let records: Vec<_> = k
        .workload()
        .stream(s.seed)
        .take(SERVER_REPLAY_RECORDS)
        .collect();
    let gen_s = t0.elapsed().as_secs_f64();
    let trace = Trace::from_records(k.workload().disk_count(), records);
    let t1 = Instant::now();
    pc_tracefile::write_trace(pct, &trace)?;
    let export_s = t1.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(true);
    let replay = layers::replay_all(
        &layers::Inputs {
            trace: &trace,
            pct,
            gen_s,
            export_s,
            stream: k.workload(),
            seed: s.seed,
        },
        &mut tracer,
        &mut out.checks,
    )?;
    for (name, value) in &replay.metrics {
        out.put(name, *value);
    }
    out.put("ingest_rec_per_s", replay.get("tracefile.mapped_rec_per_s"));
    out.put(
        "offline_req_per_s",
        trace.len() as f64 / replay.offline_wall_s,
    );

    // The workload's own session twice, shorter: spans off, then on.
    let session = Session::Windows {
        count: 3,
        seconds: s.seconds / WINDOWS as f64,
    };
    let session = |tracer: &mut Tracer, checks: &mut Checks| -> std::io::Result<LiveRun> {
        let mut live = start_warm(k, s.seed)?;
        let run = server::measure(&mut live, session, tracer, checks)?;
        live.shut_down()?;
        Ok(run)
    };
    let untraced = session(&mut Tracer::new(false), &mut out.checks)?;
    let traced = session(&mut tracer, &mut out.checks)?;
    let (off, on) = (window_rate(&untraced.windows), window_rate(&traced.windows));
    out.put("bench.tracing_overhead_pct", 100.0 * (off / on - 1.0));
    put_live_workload_metrics(&untraced, true, out);
    put_live_layer_metrics(&traced, &replay, &tracer, out);

    let books = server::in_process_books(
        k,
        &trace.records()[..server::IN_PROCESS_RECORDS.min(trace.len())],
        &mut out.checks,
    );
    out.put("energy_saving_pct", books.saving_pct);
    out.digest = Some(books.digest);
    out.attempted = untraced
        .windows
        .iter()
        .chain(&traced.windows)
        .map(|w| w.replies)
        .sum();
    finish_trace(&tracer, s, &replay, out)
}
