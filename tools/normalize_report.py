#!/usr/bin/env python3
"""Canonical form of a run report for byte comparison across processes.

Drops the fields that legitimately differ between two processes running the
same configuration — the wall-clock "times" buckets, the process-local
"metrics" delta, and the "estimation_cache" hit counters (a resumed run
starts with a cold prefix cache) — and writes the rest with sorted keys:

    python3 tools/normalize_report.py report.json report.norm.json

Used by tools/check_crash.sh and tools/check_record.sh.
"""

import json
import sys

VOLATILE_FIELDS = ("times", "metrics", "estimation_cache")


def main(argv):
    if len(argv) != 2:
        print("usage: normalize_report.py IN.json OUT.json", file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        report = json.load(f)
    for field in VOLATILE_FIELDS:
        report.pop(field, None)
    with open(argv[1], "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
