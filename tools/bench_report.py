#!/usr/bin/env python3
"""Merge every BENCH_*.json trajectory point into one table and fail CI
on malformed or silently-missing bench records.

Each release-gate example prints a machine-readable JSON record that CI
commits as ``BENCH_<name>.json``. This script is the aggregation gate:

* every file in ``EXPECTED`` must exist — a gate that stops emitting its
  record must fail the job, not quietly vanish from the trajectory;
* every file must parse as JSON and carry its required keys (``bench``
  matching the file name, a non-empty ``rows`` list, and the per-file
  keys listed in ``EXPECTED``);
* every row must carry a ``name`` plus that file's required row keys.

On success it prints one merged table (file, row, headline numbers) so
the CI log shows the whole performance trajectory in one place.

Usage: python3 tools/bench_report.py [repo-root]
"""

import json
import sys
from pathlib import Path

# file stem -> (required top-level keys, required per-row keys)
EXPECTED = {
    "batch_verify": (["unit", "reps"], ["batch_ms", "sequential_ms", "speedup"]),
    "dkg_scaling": (
        ["unit", "reps", "host_parallelism", "gate"],
        ["n", "baseline_ms", "batched_ms", "skipped"],
    ),
    "pairing_engine": (["unit", "reps", "iters"], ["ate_ms", "reference_ms", "speedup"]),
    "parallel": (
        ["unit", "reps", "threads", "gate"],
        ["k", "ms", "speedup_t4"],
    ),
    "reactor": (
        ["unit", "host_parallelism", "gate", "service"],
        ["n", "time_ms", "aux", "skipped"],
    ),
    # Rows are heterogeneous (GLV comparisons, per-op decode rows and a
    # verify-path sample), so only `name` is required per row;
    # headline() dispatches on shape.
    "scalar_mul": (["unit", "reps", "gate"], []),
    "service": (
        ["host_parallelism", "enforced", "amortization_ratio"],
        ["ops", "elapsed_ms", "p50_ms", "p99_ms"],
    ),
}

# `bench` field inside the record, where it differs from the file stem.
BENCH_NAME = {
    "parallel": "parallel_throughput",
    "reactor": "reactor_mesh",
    "scalar_mul": "scalar_mul_throughput",
    "service": "service_load",
}


def fail(msg: str) -> None:
    print(f"bench_report: ERROR: {msg}", file=sys.stderr)
    sys.exit(1)


def headline(stem: str, row: dict) -> str:
    """The one number per row worth a table cell."""
    if stem == "batch_verify":
        return f"{row['batch_ms']:.3f} ms ({row['speedup']:.2f}x)"
    if stem == "dkg_scaling":
        if row.get("skipped"):
            return "skipped"
        return f"{row['batched_ms']:.1f} ms"
    if stem == "pairing_engine":
        return f"{row['ate_ms']:.3f} ms ({row['speedup']:.2f}x)"
    if stem == "parallel":
        # `ms` is the per-thread-count series [t1, t2, t3, t4].
        ms = row["ms"][-1] if isinstance(row["ms"], list) else row["ms"]
        return f"{ms:.3f} ms ({row['speedup_t4']:.2f}x @t4)"
    if stem == "reactor":
        if row.get("skipped"):
            return "skipped"
        aux = row.get("aux", 0)
        note = f", aux {aux}" if aux else ""
        return f"{row['time_ms']:.1f} ms{note}"
    if stem == "scalar_mul":
        if "glv_ms" in row:
            return f"glv {row['glv_ms']:.3f} ms ({row['vs_schoolbook']:.2f}x vs schoolbook)"
        if "us" in row:
            cell = f"{row['us']:.1f} us (was {row['before_us']:.1f}, {row['speedup']:.2f}x)"
            if "vs_g2_scalar_mul" in row:
                cell += f", {row['vs_g2_scalar_mul']:.2f}x one GLS g2 mul"
            return cell
        return f"{row['ms']:.3f} ms"
    if stem == "service":
        return f"{row['ops']} ops, p99 {row['p99_ms']:.2f} ms"
    return "?"


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent

    present = {p.stem.removeprefix("BENCH_") for p in root.glob("BENCH_*.json")}
    missing = sorted(set(EXPECTED) - present)
    if missing:
        fail(f"missing bench records: {['BENCH_' + m + '.json' for m in missing]}")
    unexpected = sorted(present - set(EXPECTED))
    if unexpected:
        fail(
            f"unlisted bench records {unexpected}: add them to EXPECTED in "
            "tools/bench_report.py so the trajectory table stays complete"
        )

    table = []
    for stem in sorted(EXPECTED):
        path = root / f"BENCH_{stem}.json"
        top_keys, row_keys = EXPECTED[stem]
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{path.name}: unreadable or malformed JSON: {e}")
        if record.get("bench") != BENCH_NAME.get(stem, stem):
            fail(
                f"{path.name}: bench field {record.get('bench')!r} does not "
                f"match expected {BENCH_NAME.get(stem, stem)!r}"
            )
        for key in top_keys:
            if key not in record:
                fail(f"{path.name}: missing top-level key {key!r}")
        rows = record.get("rows")
        if not isinstance(rows, list) or not rows:
            fail(f"{path.name}: 'rows' must be a non-empty list")
        for i, row in enumerate(rows):
            if "name" not in row:
                fail(f"{path.name}: row {i} has no 'name'")
            for key in row_keys:
                if key not in row:
                    fail(f"{path.name}: row {row['name']!r} missing key {key!r}")
            table.append((stem, row["name"], headline(stem, row)))

    width = max(len(name) for _, name, _ in table)
    print(f"== bench trajectory ({len(EXPECTED)} records, {len(table)} rows) ==")
    last = None
    for stem, name, cell in table:
        label = stem if stem != last else ""
        print(f"  {label:<14} {name:<{width}}  {cell}")
        last = stem
    print("bench_report: all records present and well-formed")


if __name__ == "__main__":
    main()
