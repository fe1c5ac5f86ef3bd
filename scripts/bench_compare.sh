#!/usr/bin/env bash
# Host-speed regression check of this working tree against another commit:
#
#   scripts/bench_compare.sh PARENT_REV [hetsim-bench args...]
#
# Checks PARENT_REV out in a temporary git worktree, builds both sides'
# benchmark/ (hetsim-bench) into separate target directories under
# target/bench_compare/, runs 10 pairs with seeds 101-110 and --trace 0,
# alternating which side goes first, and ends with
# `hetsim-bench compare --spec BENCHMARK.json`, whose exit status (non-zero
# on any WORSE row) it returns. Extra arguments, such as `--seconds 5`,
# pass through to every run. benchmark/README.md explains the verdicts.
set -euo pipefail
cd "$(dirname "$0")/.."

parent="${1:?usage: scripts/bench_compare.sh PARENT_REV [hetsim-bench args...]}"
shift
work=target/bench_compare
tree="$work/parent-src"
rm -rf "$work/runs" "$tree"
git worktree prune
mkdir -p "$work/runs"
git worktree add --detach --quiet "$tree" "$parent"
trap 'git worktree remove --force "$tree"' EXIT

for side in parent change; do
  src=.
  [[ $side == parent ]] && src="$tree"
  cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml" \
    --target-dir "$work/$side"
done

pairs=()
for i in $(seq 1 10); do
  order=(parent change)
  if (( i % 2 == 0 )); then order=(change parent); fi
  for side in "${order[@]}"; do
    "$work/$side/release/hetsim-bench" --seed $((100 + i)) --trace 0 \
      --out "$work/runs/$side-$i.json" "$@"
  done
  pairs+=("$work/runs/parent-$i.json" "$work/runs/change-$i.json")
done
"$work/change/release/hetsim-bench" compare --spec BENCHMARK.json "${pairs[@]}"
