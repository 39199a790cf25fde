#!/usr/bin/env bash
# The perf gate: this checkout against a base revision, both built and
# measured here and now with the repo benchmark (benchmark/README.md).
#
#   ci/bench-gate.sh <base-rev> [flags passed through to `run`]
#
# Exports both sides with `git archive` into sibling directories of equal
# depth, .bench_gate/parent (<base-rev>) and .bench_gate/head (this
# checkout), so neither side runs from the working tree and each builds
# into its own benchmark/target. Head is the tracked files as they are
# now, uncommitted edits included (`git stash create` snapshots them
# without touching the tree and prints nothing on a clean one, hence the
# HEAD fallback); untracked files are not measured, so `git add` new
# files first. Then records three rounds of `run --workload all --seed 42`
# per side, alternating which side goes first, and prints
# `compare parent.json head.json`. The exit status is compare's: non-zero
# on any `regressed` row or on one side giving two sim_digests for one
# seed; `unresolved` rows and a digest that changed between the sides are
# printed, never fatal. A run whose own checks fail stops the gate at
# once. Both record files and the table stay in .bench_gate/ (ignored)
# for CI to upload.
#
# The held-back seed: ci/bench-gate.sh HEAD~1 --seed 7
set -euo pipefail

BASE=${1:?usage: ci/bench-gate.sh <base-rev> [flags passed through to run]}
shift
cd "$(git rev-parse --show-toplevel)"
OUT=$PWD/.bench_gate
rm -rf "$OUT"
mkdir -p "$OUT/parent" "$OUT/head"
git archive "$BASE" | tar -x -C "$OUT/parent"
rev=$(git stash create)
git archive "${rev:-HEAD}" | tar -x -C "$OUT/head"

bench() { # bench <side> <benchmark args...>
  cargo run --release --offline --quiet --manifest-path "$OUT/$1/benchmark/Cargo.toml" -- "${@:2}"
}
for side in parent head; do
  cargo build --release --offline --quiet --manifest-path "$OUT/$side/benchmark/Cargo.toml"
done

for order in "parent head" "head parent" "parent head"; do
  for side in $order; do
    bench "$side" run --workload all --seed 42 "$@" --record "$OUT/$side.json" \
      >>"$OUT/$side.log" || { tail -n 40 "$OUT/$side.log"; exit 1; }
  done
done

bench head compare "$OUT/parent.json" "$OUT/head.json" | tee "$OUT/compare.txt"
