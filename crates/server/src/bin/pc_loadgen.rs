//! The `pc-loadgen` client: replay a workload against a `pc-server`
//! over M concurrent connections (or through the in-process cluster)
//! and print a closing report.

use std::process::ExitCode;
use std::time::Duration;

use pc_server::protocol::MAX_BLOCK_BYTES;
use pc_server::{run_in_process, run_tcp, EngineConfig, LoadgenConfig};
use pc_sim::cli::Flags;
use pc_sim::PolicySpec;
use pc_trace::Workload;

fn usage() -> String {
    format!(
        "usage: pc-loadgen [--addr HOST:PORT] \
[--workload synthetic|oltp|cello96|nonstationary:SCENARIO] \
[--trace FILE.pct] \
[--conns N] [--connections N] [--secs S] [--seed N] [--rate REQ_PER_SEC] [--shutdown] \
[--io-timeout-secs S] \
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
  --block-bytes must match the server's data-plane block size\n\
  (at most {MAX_BLOCK_BYTES} bytes)."
    )
}

struct Args {
    load: LoadgenConfig,
    /// The `--in-process` cluster; its `disks` follow the workload.
    engine: EngineConfig,
    shutdown: bool,
    in_process: bool,
    reqs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut load = LoadgenConfig::new("127.0.0.1:7070".to_owned());
    let mut engine = EngineConfig::new(8, 1).with_policy(PolicySpec::PaLru);
    let mut shutdown = false;
    let mut in_process = false;
    let mut reqs = None;

    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next() {
        if engine.parse_flag(&flag, &mut flags)? {
            continue;
        }
        match flag.as_str() {
            "--addr" => load.addr = flags.string(&flag)?,
            "--workload" => {
                load.workload = flags.parse_with(&flag, |name| {
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
                })?;
            }
            "--conns" => load.conns = flags.at_least(&flag, 1)?,
            "--connections" => load.connections = flags.value(&flag)?,
            "--secs" => load.secs = flags.seconds(&flag)?,
            "--seed" => load.seed = flags.value(&flag)?,
            "--rate" => load.rate = Some(flags.value(&flag)?),
            "--reqs" => reqs = Some(flags.value(&flag)?),
            "--io-timeout-secs" => {
                let secs = flags.seconds(&flag)?;
                if secs <= 0.0 {
                    return Err(format!("{flag}: {secs} is not positive"));
                }
                load.io_timeout = Duration::from_secs_f64(secs);
            }
            "--trace" => load.trace = Some(flags.string(&flag)?.into()),
            "--payload" => load.payload = true,
            "--block-bytes" => load.block_bytes = flags.within(&flag, 1, MAX_BLOCK_BYTES)?,
            "--shutdown" => shutdown = true,
            "--in-process" => in_process = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    engine.check()?;
    if let Some(n) = reqs {
        load.workload = load.workload.clone().with_requests(n);
    }
    engine.disks = load.workload.disk_count();
    Ok(Args {
        load,
        engine,
        shutdown,
        in_process,
        reqs,
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
    let workload = args
        .load
        .workload
        .clone()
        .with_requests(args.reqs.unwrap_or(100_000));
    let report = run_in_process(&args.engine, &workload, args.load.seed);
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
