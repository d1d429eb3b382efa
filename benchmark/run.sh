#!/usr/bin/env bash
# The one command of BENCHMARK.json: builds the daemon and the benchmark
# from source, then runs one workload.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Prints `workload metric value unit` lines and, as the last line of
# standard output, the result object. Build output goes to standard
# error. Results and traces are also written to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds; a relative CARGO_TARGET_DIR is
# taken relative to the repo root, whichever directory cargo runs in.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Explicit manifests: cargo must not wander into a parent directory's.
# The benchmark package has path dependencies only and commits no lock
# file: cargo writes one next to its manifest, so a later change to the
# library's dependency graph cannot leave a stale lock here.
cargo build --release --locked --offline --manifest-path "$root/Cargo.toml" -p borndist_service 1>&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/borndist-benchmark" "$@" \
    --service-bin "$target/release/borndist-service" \
    --out-dir "$here/out"
