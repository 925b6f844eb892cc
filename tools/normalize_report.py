#!/usr/bin/env python3
"""Canonical form of a run report for byte comparison across processes.

The run report's determinism contract (DESIGN.md §8) as data: for each
perturbation the engine claims to survive, the report fields it may change.
Every other field must stay byte-identical. The normalizer drops the fields
the named perturbation may change and writes the rest with sorted keys:

    python3 tools/normalize_report.py --across resume IN.json OUT.json

Used by tools/check_crash.sh (--across resume) and tools/check_record.sh
(--across recording). The in-process tests enforce the threads, SIMD and
tracing rows by clearing the span totals, the only input of "times".
"""

import argparse
import json
import sys

MAY_DIFFER = {
    # Worker-thread count, 1 vs N.
    "threads": ("times",),
    # FASTFT_SIMD vector kernels on vs off.
    "simd": ("times",),
    # Tracing and flight recording on vs off.
    "recording": ("times",),
    # Kill -> resume from a checkpoint. "metrics" is a delta of the
    # process-wide registry, so a resumed process counts only the work it did
    # after the restore; the checkpointed run totals still match.
    "resume": ("times", "metrics"),
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--across", required=True, choices=sorted(MAY_DIFFER),
                        help="perturbation the two compared runs differ by")
    parser.add_argument("input")
    parser.add_argument("output")
    args = parser.parse_args(argv)
    with open(args.input) as f:
        report = json.load(f)
    for field in MAY_DIFFER[args.across]:
        report.pop(field, None)
    with open(args.output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
