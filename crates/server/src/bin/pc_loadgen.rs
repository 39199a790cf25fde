//! The `pc-loadgen` client: replay a workload against a `pc-server`
//! over M concurrent connections and print a closing report.

use std::process::ExitCode;
use std::time::Duration;

use pc_server::protocol::MAX_BLOCK_BYTES;
use pc_server::{run_tcp, LoadgenConfig};
use pc_sim::cli::Flags;
use pc_trace::Workload;

fn usage() -> String {
    format!(
        "usage: pc-loadgen [--addr HOST:PORT] \
[--workload synthetic|oltp|cello96|nonstationary:SCENARIO] \
[--trace FILE.pct] \
[--conns N] [--connections N] [--secs S] [--seed N] [--rate REQ_PER_SEC] \
[--io-timeout-secs S] \
[--payload] [--block-bytes N]
  nonstationary scenarios (diurnal, flash-crowd, churn, phase-change)
  shift their request mix mid-run — pair with `pc-server --policy meta`
  to watch the adaptive policy switch in STATS.
  --conns drives the hot workload streams; --connections N holds the
  remainder (N - conns) open as mostly-idle sockets to exercise the
  server's event-loop connection scaling.
  --trace FILE replays a binary .pct trace (see `repro trace export`
  and `pc-server --capture`) instead of generating --workload; records
  are dealt round-robin across the hot connections.
  --payload drives the protocol-v2 data plane: writes carry block
  contents, reads are READ_DATA, and every DATA reply is compared
  byte for byte against the deterministic disk image.
  --block-bytes must match the server's data-plane block size
  (at most {MAX_BLOCK_BYTES} bytes)."
    )
}

fn parse_args() -> Result<LoadgenConfig, String> {
    let mut load = LoadgenConfig::new("127.0.0.1:7070".to_owned());
    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next() {
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
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(load)
}

fn main() -> ExitCode {
    let load = match parse_args() {
        Ok(load) => load,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let source = match &load.trace {
        Some(path) => format!("trace:{}", path.display()),
        None => load.workload.name().to_owned(),
    };
    println!(
        "pc-loadgen: {} conns={} connections={} secs={} seed={} -> {}",
        source,
        load.conns,
        load.connections.max(load.conns),
        load.secs,
        load.seed,
        load.addr,
    );
    let report = match run_tcp(&load) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pc-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
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
    if load.payload && report.payload_bytes == 0 {
        eprintln!("pc-loadgen: payload mode moved zero payload bytes");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
