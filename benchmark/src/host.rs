//! What the host tells us: CPU time, peak memory and a fingerprint.

use std::fs;
use std::process::Command;

/// On-CPU nanoseconds of every live thread of this process
/// (`/proc/self/task/*/schedstat`, first field). Threads that have
/// exited are gone from the sum, so take deltas only across intervals in
/// which no thread ends.
pub fn cpu_ns_all_threads() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// On-CPU nanoseconds of the calling thread alone.
pub fn cpu_ns_this_thread() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Confines this thread, and every thread it starts afterwards, to the
/// CPU it is running on; returns that CPU. Call before any thread is
/// spawned.
///
/// The server workloads run four threads (client, IO thread, two
/// shards) that sleep and wake each other per batch. Left to the
/// scheduler on a two-core box, cross-core wake-ups are most of the CPU
/// per request and follow whatever else the host runs: measured on
/// `server-meta`, 2.4 µs/request idle, 1.4 with one busy neighbour
/// process, 2.75 with two; confined to one CPU, 1.02, 1.06 and 1.11.
/// The CPU the process was started on is the one the kernel found
/// idlest, so two benchmark processes at once do not pick the same one.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    /// CPUs a `cpu_set_t` of the C library holds.
    const SET_BITS: usize = 1024;

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    // SAFETY: `sched_getcpu` takes no arguments and touches no memory of
    // ours.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    if cpu >= SET_BITS {
        return None;
    }
    let mut mask = [0u64; SET_BITS / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized array of exactly the byte
    // length passed; the call only reads it. Pid 0 names the caller.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One line naming the machine and toolchain the numbers came from.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{}\" commit={}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Confines this test's own thread only.
    #[test]
    fn a_pinned_thread_is_allowed_one_cpu() {
        let Some(cpu) = pin_to_current_cpu() else {
            return; // not Linux, or the sandbox forbids it
        };
        let status = fs::read_to_string("/proc/thread-self/status").unwrap();
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap();
        assert_eq!(allowed.trim(), cpu.to_string());
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
    }
}
