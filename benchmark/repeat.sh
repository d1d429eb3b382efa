#!/usr/bin/env bash
# Runs the full benchmark twice on the same code and checks that the two
# sets agree within the bounds BENCHMARK.json fixes.
#
#   bash benchmark/repeat.sh
#
# A set is five seeds per workload; the two sets take their runs in turn
# (seeds 1, 3, 5, 7, 9 and 2, 4, 6, 8, 10), so a slow spell of the host
# falls on both. Single runs do not agree within the bounds on a shared
# host (see README.md, "First result set"); medians of five do, and
# medians are what the driver compares. Prints, per workload and
# end-to-end metric, both medians, their relative difference and the
# bound. Exits non-zero when a difference exceeds its bound or when any
# run reports a failed operation. Takes about 20 minutes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

exec python3 - "$here" <<'PY'
import json, statistics, subprocess, sys

here = sys.argv[1]
contract = json.load(open(here + "/../BENCHMARK.json"))
seconds = str(contract["run_seconds"])
bad = False

for workload in [w["name"] for w in contract["workloads"]]:
    sets = ([], [])
    for seed in range(1, 11):
        out = subprocess.run(
            ["bash", here + "/run.sh", "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            bad = True
        sets[(seed - 1) % 2].append(result["metrics"])
    for m in contract["end_to_end"]:
        a, b = (statistics.median(r[m["name"]]["value"] for r in runs) for runs in sets)
        difference = abs(b - a) / min(a, b)
        over = difference > m["bound"]
        bad = bad or over
        print(f"{workload} {m['name']} {m['unit']}: {a:.6g} {b:.6g}"
              f" | difference {difference:.4f} bound {m['bound']}"
              + (" EXCEEDED" if over else ""), flush=True)

sys.exit(1 if bad else 0)
PY
