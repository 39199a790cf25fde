//! Bad flag values are errors that name the flag, never panics: each
//! input below used to abort `pc-server` or `pc-loadgen` with exit code
//! 101. The TCP cases point at a port nothing listens on, so a value
//! that slipped past the flag reader would fail later with a connect
//! error that does not name the flag.

use std::process::Command;

const NOWHERE: &str = "127.0.0.1:1";

fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code();
    assert!(
        !out.status.success() && code.is_some() && code != Some(101),
        "{args:?}: exit {code:?}, stderr {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
}

#[test]
fn pc_server_rejects_zero_sizes_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_pc-server");
    for flag in ["--shards", "--disks", "--cache-blocks"] {
        assert_rejected(bin, &["--addr", NOWHERE, flag, "0"], flag);
    }
}

#[test]
fn pc_loadgen_rejects_bad_values_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_pc-loadgen");
    assert_rejected(bin, &["--in-process", "--shards", "0"], "--shards");
    for (flag, value) in [
        ("--conns", "0"),
        ("--secs", "1e30"),
        ("--secs", "inf"),
        ("--io-timeout-secs", "inf"),
    ] {
        assert_rejected(bin, &["--addr", NOWHERE, flag, value], flag);
    }
}
