#!/usr/bin/env bash
# Runs the release gates and commits each one's record: the JSON block
# `borndist_bench::gate::Record::finish` prints last becomes
# BENCH_<bench>.json (named by the record's own `bench` field). A gate
# that misses an enforced floor exits non-zero and its committed record
# is left as it was.
#
# Usage: tools/record_gates.sh [gate-example ...]   (default: all five)
set -euo pipefail
cd "$(dirname "$0")/.."

gates=("$@")
if [ ${#gates[@]} -eq 0 ]; then
  gates=(pairing_throughput batch_throughput scalar_mul_throughput dkg_scaling reactor_mesh)
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
for gate in "${gates[@]}"; do
  cargo run --locked --release --example "$gate" | tee "$out"
  bench=$(sed -n 's/^  "bench": "\([a-z_]*\)",$/\1/p' "$out")
  if [ -z "$bench" ]; then
    echo "record_gates: $gate printed no record" >&2
    exit 1
  fi
  awk '/^\{$/,0' "$out" > "BENCH_$bench.json"
  echo "record_gates: $gate -> BENCH_$bench.json"
done
