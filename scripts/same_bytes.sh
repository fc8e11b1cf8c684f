#!/usr/bin/env bash
# Records the bytes a behaviour-preserving change must keep, for `diff -r` against another
# checkout.
#
#   scripts/same_bytes.sh OUT_DIR
#
# Run from the root of a checkout. Builds `mvrc` and three examples in release mode there, then
# writes to OUT_DIR:
#
# * certify/<workload>/<setting>/<mask>.{out,err,code}: stdout, stderr and exit code of
#   `./target/release/mvrc certify <workload> --json --programs S` for every program subset S
#   (bit i of <mask> selects the i-th program; the first 64 masks where there are more) of
#   `--benchmark smallbank|tpcc|auction|ycsb-t`, `crates/cli/workloads/shop.sql` and
#   `crates/cli/workloads/smallbank.sql`, under the default settings, `--type1`, `--tuple`
#   and `--no-fk`: 162 subsets × 4 settings = 648 runs;
# * examples/<name>.out: the stdout of the examples `isolation_cost`, `dynamic_validation`
#   and `counterexample_hunt`.
#
# Typical use: export the base commit with `git archive`, run the script in both checkouts
# into two directories, and `diff -r` them; empty output means the same bytes.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 OUT_DIR" >&2; exit 2; }
out=$(mkdir -p "$1" && cd "$1" && pwd)
examples=(isolation_cost dynamic_validation counterexample_hunt)

cargo build --quiet --release --offline --bin mvrc $(printf -- '--example %s ' "${examples[@]}")
mvrc=./target/release/mvrc

# The BTP names of a workload in declaration order: its LTP names without the `[i]` suffix.
programs() {
  "$mvrc" programs "$@" | sed -n 's/^  \([^ []*\).* := .*/\1/p' | awk '!seen[$0]++'
}

workloads=("--benchmark smallbank" "--benchmark tpcc" "--benchmark auction" "--benchmark ycsb-t"
  crates/cli/workloads/shop.sql crates/cli/workloads/smallbank.sql)
settings=(default --type1 --tuple --no-fk)
runs=0
for workload in "${workloads[@]}"; do
  # shellcheck disable=SC2086 # `--benchmark NAME` is two words
  mapfile -t names < <(programs $workload)
  n=${#names[@]}
  last=$(((1 << n) - 1))
  [ "$last" -le 64 ] || last=64
  label=$(basename "${workload#--benchmark }" .sql)
  [ "${workload#--benchmark }" = "$workload" ] || label=benchmark-$label
  for setting in "${settings[@]}"; do
    dir=$out/certify/$label/$setting
    mkdir -p "$dir"
    flags=()
    [ "$setting" = default ] || flags=("$setting")
    for ((mask = 1; mask <= last; mask++)); do
      subset=()
      for ((i = 0; i < n; i++)); do
        if (((mask >> i) & 1)); then subset+=("${names[i]}"); fi
      done
      list=$(IFS=,; echo "${subset[*]}")
      code=0
      # shellcheck disable=SC2086
      "$mvrc" certify $workload --json --programs "$list" "${flags[@]}" \
        >"$dir/$mask.out" 2>"$dir/$mask.err" || code=$?
      echo "$code" >"$dir/$mask.code"
      runs=$((runs + 1))
    done
  done
done

mkdir -p "$out/examples"
for example in "${examples[@]}"; do
  "./target/release/examples/$example" >"$out/examples/$example.out"
done
echo "same_bytes.sh: $runs certify runs and ${#examples[@]} examples recorded in $out" >&2
