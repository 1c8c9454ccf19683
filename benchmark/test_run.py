"""Unit tests for the statistics and checks in benchmark/run.py.

Runs under pytest or on its own: python3 benchmark/test_run.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def doc_with(pass_ms, setup_s=(0.3, 0.1, 0.2)):
    """A nocmap_bench document whose passes hold the given op times (ms)."""
    return {
        "setup_s": list(setup_s),
        "peak_rss_mb": 12.5,
        "passes": [{"ops": len(p), "traced": False} for p in pass_ms],
        "op_ns": [round(ms * 1e6) for p in pass_ms for ms in p],
        "max_apl": 22.4,
    }


class NearestRank(unittest.TestCase):
    def test_picks_the_smallest_sample_covering_p(self):
        values = list(range(1, 11))
        self.assertEqual(run.nearest_rank(values, 50), 5)
        self.assertEqual(run.nearest_rank(values, 90), 9)
        self.assertEqual(run.nearest_rank(values, 91), 10)
        self.assertEqual(run.nearest_rank(values, 100), 10)
        self.assertEqual(run.nearest_rank(values, 0), 1)

    def test_order_of_the_pool_does_not_matter(self):
        self.assertEqual(run.nearest_rank([9, 1, 5, 3, 7], 50), 5)

    def test_deep_tail_of_a_pooled_sample(self):
        # 20 000 samples: p99.99 leaves two samples beyond it.
        values = list(range(1, 20001))
        self.assertEqual(run.nearest_rank(values, 99.99), 19998)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            run.nearest_rank([], 50)


class PassQuartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [4.1, 3.9, 4.4, 4.0, 5.2, 4.2, 3.8]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_pass(self):
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_op_ms_is_the_fastest_decile_of_per_pass_means(self):
        # Twenty passes with means 1..20 ms: the 10th percentile is 2 ms.
        passes = [[m - 0.5, m + 0.5] for m in range(20, 0, -1)]
        value, q1, q3, n = run.summarize(doc_with(passes))["op_ms"]
        self.assertEqual(value, 2.0)
        self.assertEqual(n, 20)
        self.assertEqual((q1, q3), (5.25, 15.75))

    def test_p50_is_taken_per_pass(self):
        first = list(range(1, 101))
        second = [2 * ms for ms in first]
        summary = run.summarize(doc_with([second, first]))
        # Per-pass medians 100 and 50; the faster pass is reported.
        self.assertEqual(summary["op_p50_ms"][0], 50.0)
        self.assertEqual(summary["op_p50_ms"][3], 2)

    def test_slow_passes_do_not_move_the_result(self):
        quiet = [[1.0] * 10 for _ in range(4)]
        summary = run.summarize(doc_with([[9.0] * 10] * 5 + quiet))
        self.assertEqual(summary["op_ms"][0], 1.0)
        self.assertEqual(summary["op_p50_ms"][0], 1.0)

    def test_setup_reports_the_fastest_of_few(self):
        self.assertEqual(run.summarize(doc_with([[1.0]]))["setup_s"][0], 0.1)

    def test_trace_overhead_compares_traced_with_untraced_passes(self):
        self.assertAlmostEqual(
            run.trace_overhead_pct([11.0, 10.0], [True, False]), 10.0)
        self.assertEqual(run.trace_overhead_pct([10.0], [False]), 0.0)


class Bounds(unittest.TestCase):
    def test_relative_bound(self):
        self.assertFalse(run.beyond_bound("op_ms", 10.0, 10.9, 0.1))
        self.assertTrue(run.beyond_bound("op_ms", 10.0, 11.2, 0.1))
        self.assertTrue(run.beyond_bound("op_ms", 10.0, 8.8, 0.1))

    def test_setup_time_has_an_absolute_floor(self):
        # 1 ms -> 15 ms is fifteen-fold but under the 20 ms floor.
        self.assertFalse(run.beyond_bound("setup_s", 0.001, 0.015, 0.1))
        self.assertTrue(run.beyond_bound("setup_s", 0.001, 0.025, 0.1))
        self.assertTrue(run.beyond_bound("setup_s", 0.5, 0.7, 0.25))
        self.assertFalse(run.beyond_bound("setup_s", 0.5, 0.6, 0.25))

    def test_set_agreement(self):
        spec = {"end_to_end": [
            {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
        ]}

        def reading(op, setup):
            return {"w": {"op_ms": (op, op, op, 1),
                          "setup_s": (setup, setup, setup, 1)}}

        agreeing = [reading(10.0, 0.010), reading(10.5, 0.025)]
        self.assertEqual(run.disagreements(agreeing, spec), [])
        apart = [reading(10.0, 0.010), reading(12.0, 0.040)]
        self.assertEqual(
            [(w, name) for w, name, _, _ in run.disagreements(apart, spec)],
            [("w", "op_ms"), ("w", "setup_s")])


class Failures(unittest.TestCase):
    def test_failed_share(self):
        self.assertEqual(run.failed_share(100, 0), 0.0)
        self.assertEqual(run.failed_share(200, 5), 0.025)
        with self.assertRaises(ValueError):
            run.failed_share(0, 0)

    def test_result_is_incorrect_when_any_operation_failed(self):
        spec = {"end_to_end": [{"name": "max_apl", "unit": "cycles",
                                "better": "lower", "bound": 0.01}]}
        summary = {"max_apl": (22.4, 22.4, 22.4, 1)}
        ok = run.result_line({"attempted": 10, "failed": 0}, summary, spec, 0)
        bad = run.result_line({"attempted": 10, "failed": 1}, summary, spec, 0)
        self.assertTrue(ok["correct"])
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["metrics"]["max_apl"],
                         {"value": 22.4, "unit": "cycles"})


class Spec(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_every_end_to_end_metric_is_summarized(self):
        summary = run.summarize(doc_with([[1.0, 2.0], [1.5, 2.5]]))
        for metric in self.spec["end_to_end"]:
            self.assertIn(metric["name"], summary)
            self.assertLessEqual(metric["bound"], 0.25)

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_missing_layers_default_only_for_counts_and_shares(self):
        summary = {}
        count_only = {"per_layer": [{"name": "service.fallbacks",
                                     "unit": "count", "better": "lower"}]}
        run.complete_layers(summary, count_only, "w")
        self.assertEqual(summary["service.fallbacks"][0], 0.0)
        time_metric = {"per_layer": [{"name": "netsim.setup_ms",
                                      "unit": "ms", "better": "lower"}]}
        with self.assertRaises(KeyError):
            run.complete_layers({}, time_metric, "w")

    def test_names_are_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] +
                 self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
