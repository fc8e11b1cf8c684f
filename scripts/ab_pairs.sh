#!/usr/bin/env bash
# Alternating A/B pairs of perfbench runs: a base commit against the working tree.
#
#   scripts/ab_pairs.sh [--base REV] [--pairs N] [--seed S] [--seconds T] [--trace 0|1] WORKLOAD
#
# Both sides are exported under target/ab/ and built there with their own target directories:
# the base with `git archive REV` (default HEAD, the commit the working tree sits on), the
# working tree as its tracked and untracked, not ignored, files. The repository itself is not
# touched, so perfbench's rewrite of perfbench/Cargo.lock stays in the copies, and no git
# worktree is registered. Pair i runs the base first when i is odd and the working tree first
# when i is even. Each run's result line is kept in target/ab/results/; the summary gives per
# metric the median and quartiles of each side, the median change, the base's interquartile
# range, and in how many pairs the working tree was better (by the metric's direction in
# BENCHMARK.json).
set -euo pipefail

base=HEAD pairs=10 seed=1 seconds=25 trace=0 workload=
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    -*) echo "ab_pairs.sh: unknown option $1" >&2; exit 2 ;;
    *) workload=$1; shift ;;
  esac
done
[ -n "$workload" ] || { echo "usage: $0 [--base REV] [--pairs N] [--seed S] [--seconds T] [--trace 0|1] WORKLOAD" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
out=$root/target/ab
base_sha=$(git -C "$root" rev-parse --verify "$base^{commit}")
mkdir -p "$out/results"

# Exports `$1` (a commit, or "work" for the working tree) to target/ab/src-<name> and builds
# its perfbench; prints the binary's path. A commit's export is reused by later runs; the
# working tree is exported afresh each time.
build_side() {
  local name=$1 src=$out/src-$1
  if [ "$name" = work ]; then
    rm -rf "$src"
    mkdir -p "$src"
    git -C "$root" ls-files -z -co --exclude-standard | (cd "$root" && tar --null -T - -c) | tar -x -C "$src"
  elif [ ! -d "$src" ]; then
    mkdir -p "$src.partial"
    git -C "$root" archive "$name" | tar -x -C "$src.partial"
    mv "$src.partial" "$src"
  fi
  cargo build --quiet --release --offline --manifest-path "$src/perfbench/Cargo.toml" \
    --target-dir "$out/target-$name" >&2
  echo "$out/target-$name/release/mvrc-perfbench"
}

base_bin=$(build_side "$base_sha")
work_bin=$(build_side work)
echo "# base $base_sha vs working tree: $workload, seed $seed, $pairs pairs of ${seconds} s, trace $trace" >&2

run() {
  local side=$1 bin=$2 pair=$3
  local file=$out/results/$workload-s$seed-t$trace-$side-$pair.json
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" |
    tail -n 1 > "$file"
  echo "$file"
}

files_base=() files_work=()
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) = 1 ]; then
    files_base+=("$(run base "$base_bin" "$pair")")
    files_work+=("$(run work "$work_bin" "$pair")")
  else
    files_work+=("$(run work "$work_bin" "$pair")")
    files_base+=("$(run base "$base_bin" "$pair")")
  fi
  echo "# pair $pair of $pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "${#files_base[@]}" "${files_base[@]}" "${files_work[@]}" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
n = int(sys.argv[2])
base = [json.load(open(f))["metrics"] for f in sys.argv[3:3 + n]]
work = [json.load(open(f))["metrics"] for f in sys.argv[3 + n:3 + 2 * n]]
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':34} {'base q1/med/q3':>30} {'work q1/med/q3':>30} {'change':>8} {'base IQR':>9} {'wins':>6}")
for name in sorted(set(base[0]) & set(work[0])):
    b = [r[name]["value"] for r in base]
    w = [r[name]["value"] for r in work]
    bq, wq = quartiles(b), quartiles(w)
    sign = -1 if better.get(name, "higher") == "lower" else 1
    wins = sum(1 for x, y in zip(b, w) if sign * (y - x) > 0)
    change = (wq[1] - bq[1]) / bq[1] * 100 if bq[1] else float("nan")
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:34} {fmt(bq):>30} {fmt(wq):>30} {change:+7.1f}% {bq[2] - bq[0]:9.4g} {wins:>3}/{n}")
PY
