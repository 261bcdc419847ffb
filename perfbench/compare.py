#!/usr/bin/env python3
"""Report how two benchmark records differ in stdout digests and computed counts.

    python3 perfbench/compare.py A/record.json B/record.json

Records are written by ``run.py`` under ``.perfbench-out/``.  Two runs of the
same code and seed must show no difference; between a parent commit and a
change, a digest difference is reported here, not gated.  Always exits 0.
"""

from __future__ import annotations

import json
import sys


def diff_records(a: dict, b: dict) -> list[str]:
    out = []
    da, db = a.get("digests", []), b.get("digests", [])
    if len(da) != len(db):
        out.append(f"op count differs: {len(da)} vs {len(db)}")
    out += [f"op {i}: stdout digest differs" for i, (x, y) in enumerate(zip(da, db)) if x != y]
    ca, cb = a.get("counts", {}), b.get("counts", {})
    for key in sorted(set(ca) | set(cb)):
        if ca.get(key) != cb.get(key):
            out.append(f"count {key}: {ca.get(key)} vs {cb.get(key)}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    diffs = diff_records(*records)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
