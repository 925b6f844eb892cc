"""Tests of the benchmark's own code: python3 perfbench/test_benchlib.py"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def record(best="3fe0000000000000", best_value=0.5):
    return {
        "ok": True,
        "interrupted": False,
        "best_score_value": best_value,
        "base_score": "3fd0000000000000",
        "best_score": best,
        "episode_best": ["3fd0000000000000", best],
        "trace": ["0|0|3f50000000000000|3fe0000000000000|1|1|0|0|0|f1",
                  "0|1|0000000000000000|3fe0000000000000|0|0|0|0|0|"],
        "downstream_evals": 2,
        "predictor_estimations": 0,
        "health": '{"faults_observed":0}',
        "counters": {"evaluator.folds": 6, "forest.trees_fit": 48,
                     "encode_cache.lookups": 4, "encode_cache.hits": 1},
    }


def raw_output(records, threads=1, reference=None, setup_base=None):
    """Driver output with one input holding `records`."""
    return {
        "workload": "w",
        "threads": threads,
        "reference": reference,
        "setup_s": [0.1, 0.2, 0.3],
        "peak_rss_mb": 20.0,
        "inputs": [{
            "records": records,
            "setup_base": setup_base or [],
            "run_s": [1.0, 2.0, 3.0],
            "cpu_s": [1.5, 2.5, 3.5],
        }],
    }


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, benchlib.median(values))
        self.assertLessEqual(q1, q2)
        self.assertLessEqual(q2, q3)

    def test_quartiles_of_one_sample(self):
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))


class ErrorRateTest(unittest.TestCase):
    def test_identical_runs_do_not_fail(self):
        attempted, failed, reasons = benchlib.check_runs(
            raw_output([record(), record(), record()]))
        self.assertEqual((attempted, failed, reasons), (3, 0, []))
        self.assertEqual(benchlib.error_rate(attempted, failed), 0.0)

    def test_failed_status_interrupt_and_nan_each_count(self):
        bad_status = {"ok": False, "status": "Internal: boom"}
        interrupted = record()
        interrupted["interrupted"] = True
        not_finite = record(best_value=None)
        attempted, failed, reasons = benchlib.check_runs(raw_output(
            [record(), bad_status, interrupted, not_finite, record()]))
        self.assertEqual(attempted, 5)
        self.assertEqual(failed, 3)
        self.assertEqual(benchlib.error_rate(attempted, failed), 0.6)
        self.assertIn("input 0 run 1: status", reasons[0])
        self.assertIn("interrupted", reasons[1])
        self.assertIn("not finite", reasons[2])

    def test_reference_and_setups_are_attempted(self):
        raw = raw_output([record(), record()], reference=record(),
                         setup_base=["3fd0000000000000", "3fd0000000000001"])
        attempted, failed, reasons = benchlib.check_runs(raw)
        self.assertEqual(attempted, 2 + 1 + 2)
        self.assertEqual(failed, 1)
        self.assertIn("input 0 setup 1", reasons[0])

    def test_runs_compare_within_their_own_input(self):
        raw = raw_output([record(), record()])
        raw["inputs"].append({"records": [record(best="3fe8000000000000"),
                                          record(best="3fe8000000000000")],
                              "run_s": [1.0], "cpu_s": [1.0]})
        self.assertEqual(benchlib.check_runs(raw), (4, 0, []))
        raw["inputs"][1]["records"][1]["health"] = '{"faults_observed":1}'
        _, failed, reasons = benchlib.check_runs(raw)
        self.assertEqual(failed, 1)
        self.assertIn("input 1 run 1: differs from run 0 in health",
                      reasons[0])

    def test_error_rate_of_nothing_attempted(self):
        self.assertEqual(benchlib.error_rate(0, 0), 1.0)


class ComparatorTest(unittest.TestCase):
    def test_flags_perturbed_best_score(self):
        other = record(best="3fe0000000000001")
        self.assertIn("best_score", benchlib.compare(other, record()))
        _, failed, reasons = benchlib.check_runs(
            raw_output([record(), other]))
        self.assertEqual(failed, 1)
        self.assertIn("best_score", reasons[0])

    def test_flags_perturbed_step_trace(self):
        other = record()
        other["trace"][1] = other["trace"][1].replace(
            "|0000000000000000|", "|8000000000000000|")  # -0.0 vs +0.0
        self.assertEqual(benchlib.compare(other, record()), ["trace"])

    def test_flags_counter_mismatch(self):
        other = record()
        other["counters"]["forest.trees_fit"] += 1
        self.assertEqual(benchlib.compare(other, record()),
                         ["counters.forest.trees_fit"])
        _, failed, _ = benchlib.check_runs(raw_output([record(), other]))
        self.assertEqual(failed, 1)

    def test_missing_counter_reads_as_zero(self):
        other = record()
        other["counters"]["replay.adds"] = 0
        self.assertEqual(benchlib.compare(other, record()), [])

    def test_cache_hits_compared_only_at_one_thread(self):
        other = record()
        other["counters"]["encode_cache.hits"] += 1
        self.assertEqual(benchlib.compare(other, record(), threads=1),
                         ["counters.encode_cache.hits"])
        self.assertEqual(benchlib.compare(other, record(), threads=4), [])
        other["counters"]["encode_cache.lookups"] += 1
        self.assertEqual(benchlib.compare(other, record(), threads=4),
                         ["counters.encode_cache.lookups"])

    def test_reference_compares_results_not_counters(self):
        reference = record()
        reference["counters"]["forest.trees_fit"] = 0
        _, failed, _ = benchlib.check_runs(
            raw_output([record()], threads=4, reference=reference))
        self.assertEqual(failed, 0)
        reference["trace"] = reference["trace"][:1]
        _, failed, reasons = benchlib.check_runs(
            raw_output([record()], threads=4, reference=reference))
        self.assertEqual(failed, 1)
        self.assertIn("reference workload in trace", reasons[0])


class MetricsTest(unittest.TestCase):
    def test_end_to_end_aggregates_over_inputs(self):
        raw = raw_output([record(), record()])
        raw["inputs"].append({"records": [record(best_value=0.7)],
                              "run_s": [5.0, 3.0], "cpu_s": [4.0, 6.0]})
        raw["inputs"][1]["records"][0]["downstream_evals"] = 4
        m = benchlib.end_to_end_metrics(raw)
        self.assertEqual(m["run_s"], 3.0)  # median of 1, 2, 3, 5, 3
        self.assertEqual(m["cpu_s"], 3.5)  # median of 1.5, 2.5, 3.5, 4, 6
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["downstream_evals"], 3.0)
        self.assertAlmostEqual(m["best_score"], 0.6)


    def test_per_layer_medians_over_replays(self):
        def replay(busy, ratio, untraced, traced):
            return {"layers": {"evaluator.calls": 3.0,
                               "evaluator.busy_ms": busy},
                    "reconcile": {"reconcile.io": ratio},
                    "untraced_run_s": untraced, "traced_run_s": traced}
        raw = {"replays": [replay(10.0, 0.9, 2.0, 2.1),
                           replay(30.0, 0.5, 1.0, 1.2),
                           replay(20.0, 1.0, 4.0, 3.9)]}
        m = benchlib.per_layer_metrics(raw)
        self.assertEqual(m["evaluator.calls"], 3.0)
        self.assertEqual(m["evaluator.busy_ms"], 20.0)
        self.assertEqual(m["reconcile.io"], 0.9)
        self.assertAlmostEqual(m["trace.overhead_pct"], 5.0)
        self.assertEqual(m["pool.tasks"], 0.0)
        self.assertEqual(set(m), set(benchlib.PER_LAYER))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            benchlib.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            benchlib.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
