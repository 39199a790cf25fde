#!/usr/bin/env bash
# The perf gate: this checkout against a base revision, both built and
# measured here and now with the repo benchmark (benchmark/README.md).
#
#   ci/bench-gate.sh <base-rev> [flags passed through to `run`]
#
# Exports <base-rev> into .bench_gate/parent, builds both checkouts'
# benchmark packages (--release --offline), records three rounds of
# `run --workload all --seed 42` per side, alternating which side goes
# first, then prints `compare parent.json head.json`. The exit status is
# compare's: non-zero on any `regressed` row or on one side giving two
# sim_digests for one seed; `unresolved` rows and a digest that changed
# between the sides are printed, never fatal. A run whose own checks
# fail stops the gate at once. Both record files and the table stay in
# .bench_gate/ (ignored) for CI to upload.
#
# The held-back seed: ci/bench-gate.sh HEAD~1 --seed 7
set -euo pipefail

BASE=${1:?usage: ci/bench-gate.sh <base-rev> [flags passed through to run]}
shift
cd "$(git rev-parse --show-toplevel)"
OUT=$PWD/.bench_gate
rm -rf "$OUT"
mkdir -p "$OUT/parent"
git archive "$BASE" | tar -x -C "$OUT/parent"

bench() { # bench <checkout> <benchmark args...>
  cargo run --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml" -- "${@:2}"
}
cargo build --release --offline --quiet --manifest-path "$OUT/parent/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

for order in "parent head" "head parent" "parent head"; do
  for side in $order; do
    checkout=$PWD
    [[ $side == parent ]] && checkout=$OUT/parent
    bench "$checkout" run --workload all --seed 42 "$@" --record "$OUT/$side.json" \
      >>"$OUT/$side.log" || { tail -n 40 "$OUT/$side.log"; exit 1; }
  done
done

bench "$PWD" compare "$OUT/parent.json" "$OUT/head.json" | tee "$OUT/compare.txt"
