#!/usr/bin/env python3
"""Check every BENCH_*.json gate record against the one schema
`borndist_bench::gate::Record` writes, and print them as one table.

`tools/record_gates.sh` commits each release gate's record as
``BENCH_<bench>.json``. This script fails when a record

* does not parse, is not named after its ``bench`` field, or has a row
  without exactly the keys ``name, n, baseline_ms, measured_ms, ratio,
  floor, enforced`` (so no ``skipped`` legs);
* carries a floor that is not enforced, or a ratio below its floor — a
  committed record states only floors this host held.

Usage: python3 tools/bench_report.py [repo-root]
"""

import json
import sys
from pathlib import Path

ROW_KEYS = {"name", "n", "baseline_ms", "measured_ms", "ratio", "floor", "enforced"}


def fail(msg: str) -> None:
    print(f"bench_report: ERROR: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        fail(f"no BENCH_*.json records under {root}")

    table = []
    for path in paths:
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{path.name}: unreadable or malformed JSON: {e}")
        bench = record.get("bench")
        if path.name != f"BENCH_{bench}.json":
            fail(f"{path.name}: bench field {bench!r} does not name the file")
        for key in ("unit", "host_parallelism", "spread"):
            if key not in record:
                fail(f"{path.name}: missing top-level key {key!r}")
        rows = record.get("rows")
        if not isinstance(rows, list) or not rows:
            fail(f"{path.name}: 'rows' must be a non-empty list")
        for row in rows:
            if set(row) != ROW_KEYS:
                fail(f"{path.name}: row keys {sorted(row)} are not {sorted(ROW_KEYS)}")
            name, ratio, floor = row["name"], row["ratio"], row["floor"]
            if floor is None:
                if row["enforced"]:
                    fail(f"{path.name}: row {name!r} is enforced but has no floor")
            elif not row["enforced"]:
                fail(f"{path.name}: row {name!r} records floor {floor} unenforced")
            elif ratio is None or ratio < floor:
                fail(f"{path.name}: row {name!r} ratio {ratio} is below floor {floor}")
            table.append((bench, row))

    width = max(len(row["name"]) for _, row in table)
    print(f"== gate records ({len(paths)} records, {len(table)} rows) ==")
    last = None
    for bench, row in table:
        label = bench if bench != last else ""
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.2f}x"
        floor = "" if row["floor"] is None else f">= {row['floor']:.2f}x"
        print(
            f"  {label:<14} {row['name']:<{width}}  n={row['n']:<5}"
            f" {row['measured_ms']:>10.3f} ms  {ratio:>8}  {floor}"
        )
        last = bench
    print("bench_report: all records well-formed, every floor enforced and held")


if __name__ == "__main__":
    main()
