#!/usr/bin/env bash
# The perf gate: this checkout against a base revision, both built and
# measured here and now with the repo benchmark (benchmark/README.md).
#
#   ci/bench-gate.sh <base-rev> [flags passed through to `run`]
#
# Exports both sides into .bench_gate/parent (<base-rev>) and
# .bench_gate/head (this checkout, uncommitted edits to tracked files
# included; see ci/sides.sh), then records three rounds of
# `run --workload all --seed 42` per side, alternating which side goes
# first, and prints `compare parent.json head.json`. The exit status is
# compare's: non-zero on any `regressed` row or on one side giving two
# sim_digests for one seed; `unresolved` rows and a digest that changed
# between the sides are printed, never fatal. A run whose own checks fail
# stops the gate at once. Both record files and the table stay in
# .bench_gate/ (ignored) for CI to upload.
#
# The held-back seed: ci/bench-gate.sh HEAD~1 --seed 7
set -euo pipefail

BASE=${1:?usage: ci/bench-gate.sh <base-rev> [flags passed through to run]}
shift
cd "$(git rev-parse --show-toplevel)"
. ci/sides.sh
OUT=$PWD/.bench_gate
export_sides "$OUT" "$BASE"

for order in "parent head" "head parent" "parent head"; do
  for side in $order; do
    bench "$OUT" "$side" run --workload all --seed 42 "$@" --record "$OUT/$side.json" \
      >>"$OUT/$side.log" || { tail -n 40 "$OUT/$side.log"; exit 1; }
  done
done

bench "$OUT" head compare "$OUT/parent.json" "$OUT/head.json" | tee "$OUT/compare.txt"
