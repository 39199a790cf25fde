# Sourced by ci/bench-gate.sh and ci/bench-pairs.sh: the two sides a
# perf measurement compares, each exported and built on its own.
#
# export_sides <dir> <base-rev> exports <base-rev> into <dir>/parent and
# this checkout into <dir>/head with `git archive`: sibling directories of
# equal depth, so neither side runs from the working tree and each builds
# into its own benchmark/target. Head is the tracked files as they are
# now, uncommitted edits included (`git stash create` snapshots them
# without touching the tree and prints nothing on a clean one, hence the
# HEAD fallback); untracked files are not measured, so `git add` new
# files first. Then it builds both sides' benchmark package.
#
# bench <dir> <side> <benchmark args...> runs one side's benchmark.

export_sides() {
  rm -rf "$1"
  mkdir -p "$1/parent" "$1/head"
  git archive "$2" | tar -x -C "$1/parent"
  local rev
  rev=$(git stash create)
  git archive "${rev:-HEAD}" | tar -x -C "$1/head"
  for side in parent head; do
    cargo build --release --offline --quiet --manifest-path "$1/$side/benchmark/Cargo.toml"
  done
}

bench() {
  cargo run --release --offline --quiet --manifest-path "$1/$2/benchmark/Cargo.toml" -- "${@:3}"
}
