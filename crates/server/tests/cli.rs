//! Bad flag values are errors (exit 1) that name the flag, never
//! panics: most inputs below used to abort `pc-server` or `pc-loadgen`
//! with exit code 101. `pc-loadgen` is a TCP client only, so the engine
//! flags, which belong to `pc-server`, and the retired in-process flags
//! are unknown to it; it used to parse them and carry on. The TCP cases
//! point at a port nothing listens on, so a value that slipped past the
//! flag reader would fail later with a connect error that does not name
//! the flag; the server cases that would otherwise start serving point
//! at a port no socket can bind, for the same reason.

use std::process::Command;

const NOWHERE: &str = "127.0.0.1:1";

const UNBINDABLE: &str = "127.0.0.1:99999";

/// Block sizes whose largest data frame overflows the protocol's 1 MiB
/// frame bound (the largest it carries is 16 383 bytes).
const UNCARRIABLE_BLOCK_BYTES: [&str; 2] = ["16384", "1048576"];

fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code();
    assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
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
fn pc_server_rejects_block_sizes_the_protocol_cannot_carry() {
    let bin = env!("CARGO_BIN_EXE_pc-server");
    for value in UNCARRIABLE_BLOCK_BYTES {
        let args = ["--addr", UNBINDABLE, "--block-bytes", value];
        assert_rejected(bin, &args, "--block-bytes");
    }
}

#[test]
fn pc_loadgen_rejects_bad_values_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_pc-loadgen");
    for args in [
        &["--policy", "lru"][..],
        &["--shards", "4"],
        &["--write-policy", "wb"],
        &["--shard-queue", "8"],
        &["--slow-shard", "0:5"],
        &["--reqs", "5"],
        &["--in-process"],
    ] {
        let flag = format!("unknown flag {}", args[0]);
        assert_rejected(bin, &[&["--addr", NOWHERE][..], args].concat(), &flag);
    }
    for (flag, value) in [
        ("--conns", "0"),
        ("--secs", "1e30"),
        ("--secs", "inf"),
        ("--io-timeout-secs", "inf"),
    ] {
        assert_rejected(bin, &["--addr", NOWHERE, flag, value], flag);
    }
    for value in UNCARRIABLE_BLOCK_BYTES {
        let args = ["--addr", NOWHERE, "--payload", "--block-bytes", value];
        assert_rejected(bin, &args, "--block-bytes");
    }
}

/// `--help` keeps the usage text's indent: its paragraphs print under
/// the `usage:` line indented by two spaces, not flush left.
#[test]
fn help_text_keeps_its_indent() {
    for bin in [
        env!("CARGO_BIN_EXE_pc-server"),
        env!("CARGO_BIN_EXE_pc-loadgen"),
    ] {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("binary runs");
        let help = String::from_utf8_lossy(&out.stderr);
        assert!(help.starts_with("usage: "), "{bin}: {help}");
        assert!(
            help.lines()
                .any(|l| l.starts_with("  ") && !l.trim().is_empty()),
            "{bin}: no indented line in {help}"
        );
    }
}
