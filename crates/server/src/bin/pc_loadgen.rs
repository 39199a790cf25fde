//! The `pc-loadgen` client: replay a workload against a `pc-server`
//! over M concurrent connections (or through the in-process cluster)
//! and print a closing report.

use std::process::ExitCode;
use std::time::Duration;

use pc_server::{
    parse_slow_shard, parse_write_policy, run_in_process, run_tcp, EngineConfig, LoadgenConfig,
    SlowShard, DEFAULT_QUEUE_BOUND,
};
use pc_sim::PolicySpec;
use pc_trace::Workload;

const USAGE: &str = "usage: pc-loadgen [--addr HOST:PORT] \
[--workload synthetic|oltp|cello96|nonstationary:SCENARIO] \
[--trace FILE.pct] \
[--conns N] [--connections N] [--secs S] [--seed N] [--rate REQ_PER_SEC] [--shutdown] \
[--retry-budget N] [--backoff-us N] [--backoff-cap-us N] [--io-timeout-secs S] \
[--payload] [--block-bytes N] \
[--in-process] [--shards N] [--policy NAME] [--write-policy NAME] [--reqs N] \
[--shard-queue N] [--slow-shard IDX:MICROS]\n\
  nonstationary scenarios (diurnal, flash-crowd, churn, phase-change)\n\
  shift their request mix mid-run — pair with `pc-server --policy meta`\n\
  to watch the adaptive policy switch in STATS.\n\
  --conns drives the hot workload streams; --connections N holds the\n\
  remainder (N - conns) open as mostly-idle sockets to exercise the\n\
  server's event-loop connection scaling.\n\
  --trace FILE replays a binary .pct trace (see `repro trace export`\n\
  and `pc-server --capture`) instead of generating --workload; records\n\
  are dealt round-robin across the hot connections.\n\
  --payload drives the protocol-v2 data plane: writes carry block\n\
  contents, reads are READ_DATA, and every DATA reply is verified\n\
  (CRC32C + exact bytes) against the deterministic disk image.\n\
  --block-bytes must match the server's data-plane block size.";

struct Args {
    load: LoadgenConfig,
    shutdown: bool,
    in_process: bool,
    shards: usize,
    policy: String,
    write_policy: String,
    reqs: Option<usize>,
    shard_queue: usize,
    slow_shard: Option<SlowShard>,
}

fn parse_args() -> Result<Args, String> {
    let mut load = LoadgenConfig::new("127.0.0.1:7070".to_owned());
    let mut shutdown = false;
    let mut in_process = false;
    let mut shards = 8usize;
    let mut policy = PolicySpec::PaLru.name();
    let mut write_policy = "write-back".to_owned();
    let mut reqs = None;
    let mut shard_queue = DEFAULT_QUEUE_BOUND;
    let mut slow_shard = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => load.addr = value("--addr")?,
            "--workload" => {
                let name = value("--workload")?;
                load.workload =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            }
            "--conns" => {
                load.conns = value("--conns")?
                    .parse()
                    .map_err(|e| format!("--conns: {e}"))?
            }
            "--connections" => {
                load.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?
            }
            "--secs" => {
                load.secs = value("--secs")?
                    .parse()
                    .map_err(|e| format!("--secs: {e}"))?
            }
            "--seed" => {
                load.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--rate" => {
                load.rate = Some(
                    value("--rate")?
                        .parse()
                        .map_err(|e| format!("--rate: {e}"))?,
                )
            }
            "--reqs" => {
                reqs = Some(
                    value("--reqs")?
                        .parse()
                        .map_err(|e| format!("--reqs: {e}"))?,
                )
            }
            "--retry-budget" => {
                load.retry_budget = value("--retry-budget")?
                    .parse()
                    .map_err(|e| format!("--retry-budget: {e}"))?
            }
            "--backoff-us" => {
                load.backoff_us = value("--backoff-us")?
                    .parse()
                    .map_err(|e| format!("--backoff-us: {e}"))?
            }
            "--backoff-cap-us" => {
                load.backoff_cap_us = value("--backoff-cap-us")?
                    .parse()
                    .map_err(|e| format!("--backoff-cap-us: {e}"))?
            }
            "--io-timeout-secs" => {
                let secs: f64 = value("--io-timeout-secs")?
                    .parse()
                    .map_err(|e| format!("--io-timeout-secs: {e}"))?;
                if secs <= 0.0 {
                    return Err("--io-timeout-secs must be positive".to_owned());
                }
                load.io_timeout = Duration::from_secs_f64(secs);
            }
            "--trace" => load.trace = Some(value("--trace")?.into()),
            "--payload" => load.payload = true,
            "--block-bytes" => {
                load.block_bytes = value("--block-bytes")?
                    .parse()
                    .map_err(|e| format!("--block-bytes: {e}"))?;
                if load.block_bytes == 0 {
                    return Err("--block-bytes must be at least 1".to_owned());
                }
            }
            "--shutdown" => shutdown = true,
            "--in-process" => in_process = true,
            "--shards" => {
                shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--shard-queue" => {
                shard_queue = value("--shard-queue")?
                    .parse()
                    .map_err(|e| format!("--shard-queue: {e}"))?;
                if shard_queue == 0 {
                    return Err("--shard-queue must be at least 1".to_owned());
                }
            }
            "--slow-shard" => {
                let spec = value("--slow-shard")?;
                slow_shard =
                    Some(parse_slow_shard(&spec).ok_or_else(|| {
                        format!("--slow-shard: expected IDX:MICROS, got {spec:?}")
                    })?);
            }
            "--policy" => policy = value("--policy")?,
            "--write-policy" => write_policy = value("--write-policy")?,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if let Some(n) = reqs {
        load.workload = load.workload.clone().with_requests(n);
    }
    Ok(Args {
        load,
        shutdown,
        in_process,
        shards,
        policy,
        write_policy,
        reqs,
        shard_queue,
        slow_shard,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if args.in_process {
        if args.load.trace.is_some() {
            eprintln!("pc-loadgen: --trace replays over TCP; drop --in-process");
            return ExitCode::FAILURE;
        }
        return run_in_process_mode(&args);
    }

    let source = match &args.load.trace {
        Some(path) => format!("trace:{}", path.display()),
        None => args.load.workload.name().to_owned(),
    };
    println!(
        "pc-loadgen: {} conns={} connections={} secs={} seed={} -> {}",
        source,
        args.load.conns,
        args.load.connections.max(args.load.conns),
        args.load.secs,
        args.load.seed,
        args.load.addr,
    );
    let report = match run_tcp(&args.load) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pc-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    if args.shutdown {
        if let Err(e) = pc_server::loadgen::send_shutdown(&args.load.addr) {
            eprintln!("pc-loadgen: shutdown: {e}");
            return ExitCode::FAILURE;
        }
        println!("pc-loadgen: server acknowledged shutdown");
    }
    // A run with zero responses, or shards that never accounted any
    // energy, is a failed run even if the sockets behaved.
    if report.responses == 0 {
        eprintln!("pc-loadgen: no responses received");
        return ExitCode::FAILURE;
    }
    if !report.stats.shard_energy_j.iter().all(|&e| e > 0.0) {
        eprintln!("pc-loadgen: a shard reported zero energy");
        return ExitCode::FAILURE;
    }
    // BUSY handled by backoff is a healthy protocol exchange; BUSY that
    // persisted past the whole retry budget means the server stayed
    // saturated, and the run failed to deliver those requests.
    if report.exhausted > 0 {
        eprintln!(
            "pc-loadgen: {} requests exhausted the retry budget",
            report.exhausted
        );
        return ExitCode::FAILURE;
    }
    // In payload mode every DATA reply was verified against the disk
    // image; a mismatch is a data-plane bug, and an unexpected CORRUPT
    // (no fault injection requested here) means the slab lost data.
    if report.verify_failures > 0 {
        eprintln!(
            "pc-loadgen: {} DATA replies failed verification",
            report.verify_failures
        );
        return ExitCode::FAILURE;
    }
    if report.corrupt > 0 {
        eprintln!("pc-loadgen: {} reads answered CORRUPT", report.corrupt);
        return ExitCode::FAILURE;
    }
    if args.load.payload && report.payload_bytes == 0 {
        eprintln!("pc-loadgen: payload mode moved zero payload bytes");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_in_process_mode(args: &Args) -> ExitCode {
    let Some(write_policy) = parse_write_policy(&args.write_policy) else {
        eprintln!("unknown write policy {:?}", args.write_policy);
        return ExitCode::FAILURE;
    };
    let sim = pc_sim::SimConfig::default().with_write_policy(write_policy);
    let Some(policy) = PolicySpec::online(&args.policy) else {
        eprintln!(
            "unknown policy {:?}; online policies: {}",
            args.policy,
            PolicySpec::online_names()
        );
        return ExitCode::FAILURE;
    };
    let mut engine = EngineConfig::new(args.shards, args.load.workload.disk_count())
        .with_policy(policy)
        .with_sim(sim)
        .with_queue_bound(args.shard_queue);
    if let Some(slow) = args.slow_shard {
        if slow.shard >= args.shards {
            eprintln!(
                "--slow-shard index {} out of range (shards={})",
                slow.shard, args.shards
            );
            return ExitCode::FAILURE;
        }
        engine = engine.with_slow_shard(slow);
    }
    let workload = args
        .load
        .workload
        .clone()
        .with_requests(args.reqs.unwrap_or(100_000));
    let report = run_in_process(&engine, &workload, args.load.seed);
    println!(
        "pc-loadgen (in-process): {} submitted={} served={} hits={} seed={}",
        workload.name(),
        report.submitted,
        report.served,
        report.hits,
        args.load.seed,
    );
    println!(
        "backpressure: busy_rejects={} retries=0 exhausted=0",
        report.busy_rejects
    );
    print!("{}", report.snapshot.render_table());
    println!("{}", report.snapshot.to_json());
    ExitCode::SUCCESS
}
