#!/usr/bin/env python3
"""FastFT engine benchmark.

Builds the engine and perfbench_driver from source (perfbench/CMakeLists.txt,
into .bench_build/perfbench), runs one workload (or `all` of them, in one
driver process), checks every run's results, prints each metric by name and
unit, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

  python3 perfbench/run.py --workload wide_eval_t1 --seed 1 --seconds 20 \
      --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced layer driver. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
IO_DIR = os.path.join(ROOT, ".bench_build", "perfbench_io")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("wide_eval_t1", "wide_eval_t4", "small_search_durable")
BUILD_JOBS = "4"
DRIVER_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def run_driver(workloads, seed, seconds, trace):
    """Runs perfbench_driver; returns its per-workload JSON objects."""
    os.makedirs(IO_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", ",".join(workloads), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--io-dir", IO_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S * len(workloads))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return None
    if done.returncode != 0:
        sys.stderr.write("perfbench: driver exited with %d\n"
                         % done.returncode)
        return None
    raws = [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]
    if [r["workload"] for r in raws] != list(workloads):
        sys.stderr.write("perfbench: driver output is incomplete\n")
        return None
    return raws


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return "%d" % value
    return "%.6g" % value


def report_end_to_end(raw, attempted, failed):
    print("\n== %s (%d thread%s, tracing off) ==" % (
        raw["workload"], raw["threads"], "" if raw["threads"] == 1 else "s"))
    metrics = benchlib.end_to_end_metrics(raw)
    metrics["error_rate"] = benchlib.error_rate(attempted, failed)
    q1, _, q3 = benchlib.quartiles(raw["setup_s"])
    notes = {
        "setup_s": "median of n=%d, quartiles %s .. %s" % (
            len(raw["setup_s"]), fmt(q1), fmt(q3)),
        "best_score": "mean over the inputs",
        "downstream_evals": "mean per run over the inputs",
        "error_rate": "%d failed of %d attempted" % (failed, attempted),
    }
    for name in ("run_s", "cpu_s"):
        samples = benchlib.samples(raw, name)
        q1, _, q3 = benchlib.quartiles(samples)
        notes[name] = "median of n=%d runs over %d inputs, quartiles %s .. %s" % (
            len(samples), len(raw["inputs"]), fmt(q1), fmt(q3))
    units = dict(benchlib.END_TO_END, **benchlib.REPORTED_ONLY)
    for name, unit in units.items():
        print("  %-17s %12s %-6s  %s" % (name, fmt(metrics[name]), unit,
                                         notes.get(name, "")))
    return metrics


def report_per_layer(raw, attempted, failed):
    print("\n== %s (%d thread%s, traced layer driver, median of %d "
          "replays) ==" % (
        raw["workload"], raw["threads"], "" if raw["threads"] == 1 else "s",
        len(raw["replays"])))
    metrics = benchlib.per_layer_metrics(raw)
    for name, unit in benchlib.PER_LAYER.items():
        print("  %-28s %14s %s" % (name, fmt(metrics[name]), unit))
    for replay in raw["replays"]:
        print("  driver replay followed the engine's path on %d of %d steps"
              % (replay["steps_matched"], replay["steps_total"]))
    print("  %-28s %14s ratio  %d failed of %d attempted" % (
        "error_rate", fmt(benchlib.error_rate(attempted, failed)), failed,
        attempted))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in WORKLOADS for w in workloads):
        parser.error("unknown workload %r" % args.workload)

    if not build():
        return 1
    raws = run_driver(workloads, args.seed, args.seconds, args.trace == 1)
    if raws is None:
        return 1

    total_attempted = total_failed = 0
    metrics_out = {}
    units = benchlib.PER_LAYER if args.trace else benchlib.END_TO_END
    for raw in raws:
        attempted, failed, reasons = benchlib.check_runs(raw)
        total_attempted += attempted
        total_failed += failed
        report = report_per_layer if args.trace else report_end_to_end
        metrics = report(raw, attempted, failed)
        for reason in reasons:
            print("  FAILED %s" % reason)
        prefix = "" if len(raws) == 1 else raw["workload"] + "/"
        for name, unit in units.items():
            metrics_out[prefix + name] = {"value": metrics[name], "unit": unit}
    result = {
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": metrics_out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
