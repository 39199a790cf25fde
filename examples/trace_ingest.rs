//! Measures trace-ingest startup and memory for the two ways of using
//! the one `.pct` decoder, streaming and materializing:
//!
//! ```text
//! cargo run --release --example trace_ingest -- mmap  FILE.pct
//! cargo run --release --example trace_ingest -- read  FILE.pct
//! ```
//!
//! `mmap` opens the file with [`pc_tracefile::MappedTrace`] and streams
//! it record by record (each chunk's CRC verifying on first touch) —
//! the path `repro --trace` and `pc-loadgen --trace` use. `read`
//! materializes the same map into a `Vec` ([`pc_tracefile::read_trace`]),
//! as off-line policies and unsorted captures do. Both report
//! time-to-first-record (what a streaming simulation waits before its
//! first simulated request), the full-pass wall time and throughput, and
//! the process's peak RSS (`VmHWM`). Run the two modes as separate
//! processes: peak RSS is a high-water mark, so a single process would
//! charge the second mode with the first one's footprint.

use std::time::Instant;

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` (`VmHWM`); `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn report(label: &str, first: std::time::Duration, full: std::time::Duration, records: u64) {
    println!("{label}:");
    println!("  time to first record: {first:.2?}");
    println!("  full pass:            {full:.2?}  ({records} records)");
    println!(
        "  throughput:           {:.1} M records/s",
        records as f64 / full.as_secs_f64() / 1e6
    );
    match peak_rss_kb() {
        Some(kb) => println!("  peak RSS:             {:.1} MiB", kb as f64 / 1024.0),
        None => println!("  peak RSS:             unavailable"),
    }
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let (mode, path) = match (args.get(1), args.get(2)) {
        (Some(mode), Some(path)) if mode == "mmap" || mode == "read" => (mode.as_str(), path),
        _ => {
            eprintln!("usage: trace_ingest <mmap|read> FILE.pct");
            std::process::exit(2);
        }
    };

    let start = Instant::now();
    match mode {
        "mmap" => {
            let map = pc_tracefile::MappedTrace::open(path)?;
            let mut records = map.records();
            let first_record = records.next().transpose()?;
            let first = start.elapsed();
            let mut count = u64::from(first_record.is_some());
            for record in records {
                record?;
                count += 1;
            }
            report(
                "mmap (MappedTrace, lazy CRC)",
                first,
                start.elapsed(),
                count,
            );
        }
        "read" => {
            let trace = pc_tracefile::read_trace(path)?;
            let first = start.elapsed();
            // The materializing path has every record in hand the moment
            // it has any: first-record latency is the whole decode.
            let count = trace.iter().count() as u64;
            report(
                "read (read_trace, materialized)",
                first,
                start.elapsed(),
                count,
            );
        }
        _ => unreachable!(),
    }
    Ok(())
}
