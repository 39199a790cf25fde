//! The `pc-server` daemon: serve block I/O over TCP until SIGTERM (or a
//! `SHUTDOWN` frame), then drain and print the closing report.

// The one exception is `install_signal_handlers`' FFI call.
#![deny(unsafe_code)]

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pc_cache::WritePolicy;
use pc_server::protocol::MAX_BLOCK_BYTES;
use pc_server::{EngineConfig, Server};
use pc_sim::cli::Flags;
use pc_sim::PolicySpec;

/// Set by the C signal handler; bridged to the server's stop flag by a
/// watcher thread (the handler itself must stay async-signal-safe).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[allow(unsafe_code)]
fn install_signal_handlers() {
    // libc is already linked by std; `signal` with a flag-setting
    // handler is the entire dependency surface.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` matches the C prototype (int, handler pointer) ->
    // previous handler, returned as a pointer-sized integer and ignored.
    // The handler only stores to an atomic, which is async-signal-safe,
    // and is an `extern "C" fn` with the `void (*)(int)` signature.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

fn usage() -> String {
    format!(
        "usage: pc-server [--addr HOST:PORT] [--shards N] [--disks N] \
[--policy NAME] [--write-policy NAME] [--cache-blocks N] \
[--shard-queue N] [--slow-shard IDX:MICROS] [--io-threads N] \
[--block-bytes N] [--corrupt-rate N] [--capture FILE.pct]\n\
  policies: {}\n\
  (--policy meta adapts: it re-ranks the fixed policies each epoch and\n\
  switches the live one; STATS gains per-shard active_policy/switches)\n\
  write policies: {}\n\
  --shard-queue bounds each shard's admission queue (requests); a full\n\
  queue answers BUSY. --slow-shard injects a per-request service delay\n\
  into one shard (fault injection for backpressure tests).\n\
  --io-threads sets the epoll event-loop thread count (0 = auto).\n\
  --block-bytes sets the data-plane block size (READ_DATA/WRITE_DATA\n\
  payload bytes per block, default 4096, at most {}).\n\
  --corrupt-rate N flips one slab byte before every Nth verified read\n\
  per shard (0 = off): CRC fault injection — reads answer CORRUPT and\n\
  STATS counts crc_failures.\n\
  --capture records every accepted request into a binary .pct trace\n\
  file for later replay (pc-loadgen --trace); capture never blocks a\n\
  shard — when the writer falls behind, records are dropped and the\n\
  drop count surfaces in STATS and the closing report.",
        PolicySpec::online_names(),
        WritePolicy::NAMES,
        MAX_BLOCK_BYTES,
    )
}

struct Args {
    addr: String,
    engine: EngineConfig,
    capture: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:7070".to_owned();
    let mut engine = EngineConfig::new(8, 21).with_policy(PolicySpec::PaLru);
    let mut capture = None;

    let mut flags = Flags::from_env();
    while let Some(flag) = flags.next() {
        if engine.parse_flag(&flag, &mut flags)? {
            continue;
        }
        match flag.as_str() {
            "--addr" => addr = flags.string(&flag)?,
            "--disks" => engine.disks = flags.at_least(&flag, 1)?,
            "--cache-blocks" => engine.sim.cache_blocks = flags.at_least(&flag, 1)?,
            "--io-threads" => engine.io_threads = flags.value(&flag)?,
            "--block-bytes" => engine.block_bytes = flags.within(&flag, 1, MAX_BLOCK_BYTES)?,
            "--corrupt-rate" => engine.corrupt_every = flags.value(&flag)?,
            "--capture" => capture = Some(flags.string(&flag)?.into()),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    engine.check()?;
    Ok(Args {
        addr,
        engine,
        capture,
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
    install_signal_handlers();
    let mut server = match Server::bind(&args.addr, args.engine.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pc-server: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.capture {
        server = server.with_capture(path.clone());
    }
    let addr = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or(args.addr);
    println!(
        "pc-server listening on {addr} shards={} disks={} policy={} write_policy={} cache_blocks={} shard_queue={} front_end={}{} crc32c={}",
        args.engine.shards,
        args.engine.disks,
        args.engine.policy.name(),
        args.engine.sim.write_policy.name(),
        args.engine.sim.cache_blocks,
        args.engine.queue_bound,
        if args.engine.io_threads == 0 {
            "event-loop(auto)".to_owned()
        } else {
            format!("event-loop({})", args.engine.io_threads)
        },
        args.engine
            .slow_shard
            .map(|s| format!(" slow_shard={}:{}us", s.shard, s.micros))
            .unwrap_or_default(),
        pc_crc::kernel(),
    );
    if let Some(path) = &args.capture {
        println!("pc-server capturing to {}", path.display());
    }

    let stop = server.stop_flag();
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            stop.store(true, Ordering::Relaxed);
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });

    match server.run() {
        Ok(summary) => {
            println!(
                "pc-server drained: {} connections, {} requests",
                summary.connections,
                summary.snapshot.total_requests()
            );
            if let Some(report) = &summary.capture {
                println!(
                    "pc-server captured {} records to {} ({} dropped)",
                    report.written,
                    report.path.display(),
                    report.dropped,
                );
            }
            print!("{}", summary.snapshot.render_table());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pc-server: {e}");
            ExitCode::FAILURE
        }
    }
}
