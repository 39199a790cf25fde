#!/usr/bin/env bash
# Paired measurement of one workload, for a gain claim: a base revision
# against this checkout, run as many short adjacent A/B pairs.
#
#   ci/bench-pairs.sh <base-rev> <workload> [pairs=10] [flags passed through to `run`]
#
# Exports and builds both sides exactly as ci/bench-gate.sh does (see
# ci/sides.sh), into .bench_pairs/{parent,head}, then runs
# `run --workload <workload> --seed 42 [flags]` once per side per pair,
# alternating which side goes first (odd pairs parent first). Prints one
# row per pair with every end-to-end metric BENCHMARK.json gates, as
# parent → head and the head/parent ratio; then, per metric, each side's
# median and quartiles, the median ratio, the pairs head won (ties count
# for neither) and whether the claim rule holds: head wins at least nine
# tenths of the pairs and the medians differ, in head's favour, by more
# than the parent's own quartile spread. Last, the sim_digests each side
# gave. A run whose own checks fail stops the script. Records and logs
# stay in .bench_pairs/ (ignored).
#
#   ci/bench-pairs.sh HEAD~1 sim-oltp             # seed 42, 10 pairs
#   ci/bench-pairs.sh HEAD~1 sim-oltp 10 --seed 7 # the held-back seed
set -euo pipefail

USAGE="usage: ci/bench-pairs.sh <base-rev> <workload> [pairs=10] [flags passed through to run]"
BASE=${1:?$USAGE}
WORKLOAD=${2:?$USAGE}
shift 2
PAIRS=10
if [[ ${1:-} =~ ^[0-9]+$ ]]; then
  PAIRS=$1
  shift
fi
((PAIRS > 0)) || { echo "$USAGE" >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"
. ci/sides.sh
OUT=$PWD/.bench_pairs
export_sides "$OUT" "$BASE"

for ((pair = 1; pair <= PAIRS; pair++)); do
  order="parent head"
  ((pair % 2)) || order="head parent"
  for side in $order; do
    bench "$OUT" "$side" run --workload "$WORKLOAD" --seed 42 "$@" --record "$OUT/$side.json" \
      >>"$OUT/$side.log" || { tail -n 40 "$OUT/$side.log"; exit 1; }
  done
done

# "name:better" for every gated end-to-end metric, in BENCHMARK.json order.
gated=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ {
    match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
    match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH)
    gsub(/.*: *"|"/, "", n); gsub(/.*: *"|"/, "", b)
    printf "%s:%s ", n, b
  }' "$OUT/head/BENCHMARK.json")

awk -v gated="$gated" -v workload="$WORKLOAD" '
  function value(line, name,   s) {
    if (!match(line, "\"" name "\": [{]\"value\": [^,}]*")) return ""
    s = substr(line, RSTART, RLENGTH); sub(/.*: /, "", s); return s + 0
  }
  function digest(line,   s) {
    match(line, /"digest": [^,]*/); s = substr(line, RSTART, RLENGTH); sub(/.*: /, "", s); return s
  }
  # Sorts a[1..n] ascending (n is a few dozen at most).
  function isort(a, n,   i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
  }
  function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
  # Quartile i (1 or 3) as benchmark/src/stats.rs gives it: Python
  # statistics.quantiles(n=4), exclusive method.
  function quartile(a, n, i,   j, d) {
    j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    d = i * (n + 1) - 4 * j
    return (a[j] * (4 - d) + a[j + 1] * d) / 4
  }
  FNR == NR { parent[FNR] = $0; n = FNR; next }
  { head[FNR] = $0 }
  END {
    m = split(gated, spec, " ")
    printf "%s, %d pairs; per pair: metric parent -> head (x head/parent)\n", workload, n
    for (p = 1; p <= n; p++) {
      row = sprintf("pair %2d (%s first):", p, p % 2 ? "parent" : "head")
      for (k = 1; k <= m; k++) {
        split(spec[k], nb, ":")
        a = value(parent[p], nb[1]); b = value(head[p], nb[1])
        if (a == "" || b == "") continue
        row = row sprintf("  %s %.5g -> %.5g (x%.3f)", nb[1], a, b, a ? b / a : 0)
      }
      print row
    }
    print ""
    for (k = 1; k <= m; k++) {
      split(spec[k], nb, ":"); name = nb[1]; lower = nb[2] == "lower"
      if (value(parent[1], name) == "") continue
      wins = 0
      for (p = 1; p <= n; p++) {
        a = value(parent[p], name); b = value(head[p], name)
        pa[p] = a; hb[p] = b; r[p] = a ? b / a : 0
        if (lower ? b < a : b > a) wins++
      }
      isort(pa, n); isort(hb, n); isort(r, n)
      pm = median(pa, n); hm = median(hb, n)
      printf "%s (%s is better)\n", name, nb[2]
      if (n >= 2) {
        pq1 = quartile(pa, n, 1); pq3 = quartile(pa, n, 3)
        printf "  parent median %.5g  quartiles %.5g .. %.5g\n", pm, pq1, pq3
        printf "  head   median %.5g  quartiles %.5g .. %.5g\n", hm, quartile(hb, n, 1), quartile(hb, n, 3)
      } else {
        pq1 = pq3 = pm
        printf "  parent %.5g\n  head   %.5g\n", pm, hm
      }
      gain = lower ? pm - hm : hm - pm
      claim = wins * 10 >= 9 * n && gain > pq3 - pq1
      printf "  median ratio x%.3f (min x%.3f, max x%.3f); head won %d/%d; parent quartile spread %.5g; claim rule %s\n", \
        median(r, n), r[1], r[n], wins, n, pq3 - pq1, claim ? "met" : "not met"
    }
    for (p = 1; p <= n; p++) { pd[digest(parent[p])] = 1; hd[digest(head[p])] = 1 }
    s = ""; for (d in pd) s = s " " d; printf "sim_digest parent:%s\n", s
    s = ""; for (d in hd) s = s " " d; printf "sim_digest head:  %s\n", s
  }' "$OUT/parent.json" "$OUT/head.json" | tee "$OUT/pairs.txt"
