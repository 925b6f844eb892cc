"""Statistics, result checks and metric tables of the engine benchmark.

perfbench_driver (src/main.cc) prints one JSON object per workload: raw
timing samples plus one record per FastFtEngine::Run. This module turns
those objects into the named metrics of BENCHMARK.json and decides which
runs failed. run.py is the command-line front end; test_benchlib.py tests
this module.
"""

import math
import statistics

# End-to-end metrics (--trace 0) with a regression bound in BENCHMARK.json:
# name -> unit.
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "downstream_evals": "count",
}

# End-to-end figures printed beside them but left out of BENCHMARK.json:
# best_score moves with the inputs far more than any bound allows (1-RAE on
# the 160-row regression runs from 0.05 to 0.3 across seeds), and
# error_rate is 0 on a correct run; the result line carries it as
# "failed" / "attempted".
REPORTED_ONLY = {
    "best_score": "score",
    "error_rate": "ratio",
}

_LAYERS = ("evaluator", "clustering", "state", "generation", "seqmodel",
           "estimation", "agent", "io")

# Per-layer metrics (--trace 1): name -> unit, in report order.
PER_LAYER = {}
for _layer in _LAYERS:
    PER_LAYER[_layer + ".calls"] = "count"
    PER_LAYER[_layer + ".busy_ms"] = "ms"
PER_LAYER.update({
    "evaluator.folds": "count",
    "evaluator.folds_skipped": "count",
    "evaluator.trees_fit": "count",
    "evaluator.us_per_tree": "us",
    "clustering.mi_pairs": "count",
    "clustering.ns_per_mi_pair": "ns",
    "generation.columns_added": "count",
    "generation.accept_ratio": "ratio",
    "seqmodel.tokens_trained": "count",
    "estimation.cache_hit_ratio": "ratio",
    "estimation.tokens_encoded": "count",
    "replay.ops": "count",
    "io.checkpoint_writes": "count",
    "io.checkpoint_bytes": "bytes",
    "io.record_bytes": "bytes",
    "pool.tasks": "count",
    "pool.queue_wait_ms": "ms",
    "pool.task_run_ms": "ms",
    "reconcile.evaluator": "ratio",
    "reconcile.seqmodel": "ratio",
    "reconcile.select_action": "ratio",
    "reconcile.estimation": "ratio",
    "reconcile.io": "ratio",
    "trace.overhead_pct": "%",
})

# Fields of a run record that must be bitwise equal between repeats of a
# workload and between the same inputs at different thread counts.
RESULT_FIELDS = ("base_score", "best_score", "episode_best", "trace",
                 "downstream_evals", "predictor_estimations", "health")

# Prefix-cache counters that depend on scheduling when more than one thread
# shares the cache: a concurrent lookup hits or misses depending on whether
# another thread inserted the prefix first. The number of lookups does not.
SCHEDULING_DEPENDENT = ("encode_cache.hits", "encode_cache.misses",
                        "encode_cache.tokens_reused",
                        "encode_cache.tokens_encoded",
                        "encode_cache.evictions")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def run_failure(record):
    """Why a single run failed on its own, or None when it did not."""
    if not record.get("ok"):
        return "status: " + record.get("status", "?")
    if record.get("interrupted"):
        return "interrupted"
    best = record.get("best_score_value")
    if best is None or not math.isfinite(best):
        return "best_score not finite"
    return None


def compare(record, reference, counters=True, threads=1):
    """Names of the fields in which `record` differs from `reference`.

    Result fields are compared bitwise (the driver writes doubles as bit
    patterns). With `counters`, the work counters are compared exactly too;
    at more than one thread the scheduling-dependent cache counters are
    left out.
    """
    diffs = [f for f in RESULT_FIELDS if record.get(f) != reference.get(f)]
    if counters:
        mine = record.get("counters", {})
        theirs = reference.get("counters", {})
        for name in sorted(set(mine) | set(theirs)):
            if threads > 1 and name in SCHEDULING_DEPENDENT:
                continue
            if mine.get(name, 0) != theirs.get(name, 0):
                diffs.append("counters." + name)
    return diffs


def check_runs(raw):
    """(attempted, failed, reasons) over every run in one workload's output.

    A run fails when it fails on its own (run_failure), when it differs from
    the first run on the same input, or when it differs in a result field
    from the first input run at the reference workload's thread count. Each
    set-up repeat is an attempted operation too; it fails when its baseline
    score differs from the engine's base_score on that input.
    """
    threads = raw.get("threads", 1)
    reference = raw.get("reference")
    attempted = failed = 0
    reasons = []

    def fail(why):
        nonlocal failed
        failed += 1
        reasons.append(why)

    if reference is not None:
        attempted += 1
        if run_failure(reference) is not None:
            fail("reference run: " + run_failure(reference))
    for k, inp in enumerate(raw["inputs"]):
        records = inp["records"]
        first = records[0]
        for i, record in enumerate(records):
            attempted += 1
            why = run_failure(record)
            if why is None and i > 0 and run_failure(first) is None:
                diffs = compare(record, first, counters=True, threads=threads)
                if diffs:
                    why = "differs from run 0 in " + ", ".join(diffs)
            if (why is None and k == 0 and reference is not None
                    and run_failure(reference) is None):
                diffs = compare(record, reference, counters=False)
                if diffs:
                    why = ("differs from the reference workload in "
                           + ", ".join(diffs))
            if why is not None:
                fail("input %d run %d: %s" % (k, i, why))
        for i, base in enumerate(inp.get("setup_base", [])):
            attempted += 1
            if first.get("ok") and base != first.get("base_score"):
                fail("input %d setup %d: baseline score differs from the "
                     "engine's base_score" % (k, i))
    return attempted, failed, reasons


def error_rate(attempted, failed):
    return failed / attempted if attempted else 1.0


def samples(raw, name):
    """Every timed sample of `name` ("run_s" or "cpu_s") over the inputs."""
    return [value for inp in raw["inputs"] for value in inp[name]]


def end_to_end_metrics(raw):
    """name -> value for --trace 0 output.

    Run times are the median over every timed run (the driver cycles
    through the inputs, so each contributes equally); scores and evaluation
    counts are the mean over the inputs of their first run (they repeat
    exactly, see check_runs).
    """
    inputs = raw["inputs"]

    def first(field):
        values = [inp["records"][0].get(field) for inp in inputs]
        return None if None in values else sum(values) / len(values)

    return {
        "run_s": median(samples(raw, "run_s")),
        "cpu_s": median(samples(raw, "cpu_s")),
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "best_score": first("best_score_value"),
        "downstream_evals": first("downstream_evals"),
    }


def per_layer_metrics(raw):
    """name -> value for --trace 1 output: the median over the replays.

    trace.overhead_pct compares each traced engine run with the untraced
    run just before it.
    """
    values = {name: [] for name in PER_LAYER}
    for replay in raw["replays"]:
        untraced = replay["untraced_run_s"]
        metrics = dict(replay["layers"], **replay["reconcile"])
        metrics["trace.overhead_pct"] = (
            (replay["traced_run_s"] - untraced) / untraced * 100.0)
        for name in PER_LAYER:
            values[name].append(metrics.get(name, 0.0))
    return {name: median(v) if v else 0.0 for name, v in values.items()}
