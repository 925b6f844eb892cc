#!/usr/bin/env python3
"""ctest driver for tools/fastft_analyze.py.

Builds a scratch tree from tests/analyze_fixtures/ (each fixture names its
destination path in a `// fixture-dest:` header — `# fixture-dest:` for the
CMake fixture; passes are path- and layer-scoped), runs the analyzer over
it, and asserts:

  * every trigger_* fixture fires its expected rules (and only those),
  * the clean fixtures and the suppression fixtures fire nothing,
  * analyzing one clean file by path exits 0,
  * the real repository tree analyzes clean (exit 0),
  * the include cycle is reported exactly once (on its first member),
  * --list-rules names every rule and --dump-graph/--dump-index emit JSON.

Two narrower modes check only the convention pass (the six rules in
CONVENTION_RULES):

  * --conventions: the convention fixtures alone in a scratch tree, each
    with its exact convention outcome (fires / clean / suppressed), and
    the exit-code contract (1 = findings, 0 = clean);
  * --conventions-tree: the repository tree has no convention finding.

Run directly, or via `ctest -R fastft_analyze` (full) and
`ctest -R fastft_lint` (the two convention modes).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANALYZE = os.path.join(REPO_ROOT, "tools", "fastft_analyze.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "analyze_fixtures")

DEST_RE = re.compile(r"(?://|#)\s*fixture-dest:\s*(\S+)")
FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")

# fixture file -> the exact set of rules it fires (empty = must fire
# nothing). An accumulating loop over a hash map in src/core or src/nn fires
# both unordered-iteration and fp-unordered-accumulate.
UNORDERED_LOOP = {"unordered-iteration", "fp-unordered-accumulate"}
EXPECTATIONS = {
    "trigger_discarded_status.cc": {"discarded-status"},
    "trigger_unchecked_value.cc": {"unchecked-value"},
    "trigger_layer_violation.cc": {"layer-violation"},
    "trigger_cycle_a.h": {"include-cycle"},
    "trigger_cycle_b.h": set(),
    "trigger_fp_reduction.cc": {"fp-reduction"},
    "trigger_fp_unordered.cc": UNORDERED_LOOP,
    "trigger_fp_flag_drift.cmake": {"fp-flag-drift"},
    "trigger_nondeterminism.cc": {"nondeterminism"},
    "trigger_unordered_iteration.cc": UNORDERED_LOOP,
    "trigger_raw_mutex.cc": {"raw-mutex"},
    "trigger_raw_intrinsics.cc": {"raw-intrinsics"},
    "trigger_check_user_input.cc": {"check-user-input"},
    "trigger_pragma_once.h": {"pragma-once"},
    "stub_core_header.h": set(),
    "clean.cc": set(),
    "clean_conventions.cc": set(),
    "clean_block_comment.cc": set(),
    "suppressed.cc": set(),
    "suppressed_conventions.cc": set(),
    "suppressed_layer.cc": set(),
}

ALL_RULES = (
    "discarded-status", "unchecked-value", "layer-violation",
    "include-cycle", "fp-reduction", "fp-unordered-accumulate",
    "fp-flag-drift", "nondeterminism", "unordered-iteration", "raw-mutex",
    "raw-intrinsics", "check-user-input", "pragma-once",
)

# The convention pass: project invariants checked per token stream.
CONVENTION_RULES = {
    "nondeterminism", "unordered-iteration", "raw-mutex", "raw-intrinsics",
    "check-user-input", "pragma-once",
}
CONVENTION_FIXTURES = (
    "trigger_nondeterminism.cc", "trigger_unordered_iteration.cc",
    "trigger_raw_mutex.cc", "trigger_raw_intrinsics.cc",
    "trigger_check_user_input.cc", "trigger_pragma_once.h",
    "clean_conventions.cc", "clean_block_comment.cc",
    "suppressed_conventions.cc",
)

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")
    else:
        print(f"ok:   {message}")


def run_analyze(*args):
    return subprocess.run(
        [sys.executable, ANALYZE, *args], capture_output=True, text=True)


def seed_scratch(scratch, names):
    """Copies each fixture to its fixture-dest path; returns name -> dest."""
    dest_of = {}
    for name in sorted(names):
        src = os.path.join(FIXTURES, name)
        with open(src, encoding="utf-8") as f:
            header = f.readline()
        match = DEST_RE.search(header)
        check(match is not None, f"{name} declares a fixture-dest header")
        if not match:
            continue
        dest = match.group(1)
        dest_of[name] = dest
        target = os.path.join(scratch, dest)
        os.makedirs(os.path.dirname(target) or scratch, exist_ok=True)
        shutil.copyfile(src, target)
    return dest_of


def fired_rules(stdout):
    """Parses analyzer output into dest path -> set of rules."""
    fired = {}
    for line in stdout.splitlines():
        match = FINDING_RE.match(line)
        if match:
            fired.setdefault(match.group("path"), set()).add(
                match.group("rule"))
    return fired


def finish(label):
    if failures:
        print(f"\n{len(failures)} assertion(s) failed")
        return 1
    print(f"\nall {label} assertions passed")
    return 0


def check_convention_fixtures():
    with tempfile.TemporaryDirectory(prefix="fastft_lint_test") as scratch:
        dest_of = seed_scratch(scratch, CONVENTION_FIXTURES)
        proc = run_analyze("--root", scratch)
        check(proc.returncode == 1,
              f"convention scratch tree exits 1 (findings), "
              f"got {proc.returncode}")
        fired = fired_rules(proc.stdout)
        for name in CONVENTION_FIXTURES:
            dest = dest_of.get(name)
            if dest is None:
                continue
            expected = EXPECTATIONS[name] & CONVENTION_RULES
            rules = fired.get(dest, set()) & CONVENTION_RULES
            check(rules == expected,
                  f"{name}: convention pass fires exactly {sorted(expected)}, "
                  f"got {sorted(rules)}")

        clean = os.path.join(scratch, dest_of["clean_conventions.cc"])
        proc = run_analyze("--root", scratch, clean)
        check(proc.returncode == 0,
              f"explicit clean convention file exits 0, "
              f"got {proc.returncode}")
    return finish("convention-fixture")


def check_convention_tree():
    proc = run_analyze("--root", REPO_ROOT)
    findings = [line for line in proc.stdout.splitlines()
                if (m := FINDING_RE.match(line))
                and m.group("rule") in CONVENTION_RULES]
    check(not findings,
          "repository tree has no convention finding"
          + "".join("\n  " + f for f in findings))
    return finish("convention-tree")


def main():
    if sys.argv[1:] == ["--conventions"]:
        return check_convention_fixtures()
    if sys.argv[1:] == ["--conventions-tree"]:
        return check_convention_tree()
    if sys.argv[1:]:
        print("usage: fastft_analyze_test.py "
              "[--conventions | --conventions-tree]", file=sys.stderr)
        return 2

    # --- scratch tree from the fixtures -------------------------------
    with tempfile.TemporaryDirectory(prefix="fastft_analyze_test") as scratch:
        dest_of = seed_scratch(scratch, EXPECTATIONS)

        proc = run_analyze("--root", scratch)
        check(proc.returncode == 1,
              f"scratch tree exits 1 (findings), got {proc.returncode}")

        fired = fired_rules(proc.stdout)

        for name, expected in sorted(EXPECTATIONS.items()):
            dest = dest_of.get(name)
            if dest is None:
                continue
            rules = fired.get(dest, set())
            check(rules == expected,
                  f"{name}: fires exactly {sorted(expected)}, "
                  f"got {sorted(rules)}")

        cycle_count = proc.stdout.count("[include-cycle]")
        check(cycle_count == 1,
              f"the include cycle is reported exactly once, got {cycle_count}")

        proc = run_analyze("--root", scratch,
                           os.path.join(scratch, dest_of["clean.cc"]))
        check(proc.returncode == 0,
              f"explicit clean file exits 0, got {proc.returncode}")

    # --- the real tree must be clean ----------------------------------
    proc = run_analyze("--root", REPO_ROOT)
    check(proc.returncode == 0,
          "repository tree analyzes clean "
          f"(exit {proc.returncode}):\n{proc.stdout}")

    # --- --list-rules names every rule --------------------------------
    proc = run_analyze("--list-rules")
    for rule in ALL_RULES:
        check(rule in proc.stdout, f"--list-rules mentions {rule}")

    # --- machine-readable dumps parse as JSON -------------------------
    proc = run_analyze("--root", REPO_ROOT, "--dump-graph")
    try:
        graph = json.loads(proc.stdout)
        check(any(info["layer"] == "core" for info in graph.values()),
              "--dump-graph labels core-layer files")
    except json.JSONDecodeError:
        check(False, "--dump-graph emits valid JSON")

    proc = run_analyze("--root", REPO_ROOT, "--dump-index")
    try:
        index = json.loads(proc.stdout)
        check("AtomicWriteFile" in index["status"],
              "--dump-index indexes AtomicWriteFile as Status-returning")
        check(any("Run" == k or k.startswith("Read")
                  for k in index["result"]),
              "--dump-index indexes Result-returning entry points")
    except json.JSONDecodeError:
        check(False, "--dump-index emits valid JSON")

    return finish("fastft_analyze")


if __name__ == "__main__":
    sys.exit(main())
