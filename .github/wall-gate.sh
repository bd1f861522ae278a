#!/usr/bin/env bash
# Wall-clock gate: the end-to-end benchmark (bench/e2e, bounds in
# BENCHMARK.json) on BASE_REV and on this checkout, built and run on
# one host in alternating rounds, so host speed cancels out of the
# comparison.
#
#   .github/wall-gate.sh BASE_REV [ROUNDS] [SECONDS]
#
# Each round runs `odin_bench run --seed 1 --seconds SECONDS` once per
# side (every workload, each in a fresh process); odd rounds run the
# base first, even rounds the checkout. The pooled runs of each side go
# to `odin_bench compare`, which prints one row per workload and metric.
# Exits non-zero when a run's outputs are wrong or a metric reads worse
# or missing. For each row that reads worse the gate prints both sides'
# per-run values, one line per side, so a single slow run can be told
# from a shift. A row whose runs spread wider than its bound reads
# "unresolved" and passes; the gate names those rows in one GitHub
# `::warning::` annotation, since it could not judge them. Needs git,
# dune, jq and awk on PATH.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
  echo "usage: $0 BASE_REV [ROUNDS] [SECONDS]" >&2
  exit 2
fi
base_rev=$1
rounds=${2:-5}
seconds=${3:-3}

head=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
base="$work/base"
cleanup() {
  git -C "$head" worktree remove --force "$base" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT

git -C "$head" worktree add --detach "$base" "$base_rev" >/dev/null
for dir in "$base" "$head"; do
  (cd "$dir" && dune build ./bench/e2e/odin_bench.exe)
done

side_dir() { if [ "$1" = base ]; then echo "$base"; else echo "$head"; fi; }

for i in $(seq 1 "$rounds"); do
  if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    echo "== round $i/$rounds: $side"
    (cd "$(side_dir "$side")" &&
      ./_build/default/bench/e2e/odin_bench.exe run --seed 1 \
        --seconds "$seconds" --out-dir "$work/$side-$i")
  done
done

for side in base head; do
  jq -s '{meta: .[0].meta, outputs_ok: (map(.outputs_ok) | min),
          runs: (map(.runs) | add)}' "$work/$side"-*/e2e.json \
    > "$work/$side.json"
done

# compare reads the bounds from the checkout's BENCHMARK.json; its exit
# status is the gate's
cd "$head"
status=0
./_build/default/bench/e2e/odin_bench.exe compare "$work/base.json" "$work/head.json" \
  | tee "$work/compare.txt" || status=$?
awk '$NF == "worse" && $2 != "(all)" { print $1, $2 }' "$work/compare.txt" |
  while read -r workload metric; do
    for side in base head; do
      echo "$workload $metric $side runs: $(jq -r --arg w "$workload" --arg m "$metric" \
        '[.runs[] | select(.workload == $w) | .metrics[$m].value // empty]
         | map(tostring) | join(" ")' "$work/$side.json")"
    done
  done
unresolved=$(awk '$NF == "unresolved" && $2 != "(all)" {
  printf "%s%s %s", sep, $1, $2; sep = ", " }' "$work/compare.txt")
if [ -n "$unresolved" ]; then
  echo "::warning title=wall gate::unresolved, spread wider than the bound: $unresolved"
fi
exit "$status"
