#!/bin/sh
# Every workload, one child process each, seed 42 (extra flags pass through).
exec cargo run --release --offline --manifest-path "$(dirname "$0")/Cargo.toml" -- run --workload all --seed 42 "$@"
