"""Tests for the compare_bench.py perf gate (run with pytest or unittest).

Covers the dotted-path metric flattening, every gate outcome — pass, timing
regression, speedup floor, removed-metric failure, added-metric tolerance —
including the mismatched-metric-set case that used to crash the script, and
the fingerprint note.
"""

import io
import unittest

import compare_bench


def run_compare(baseline, current, tolerance=0.20):
    out = io.StringIO()
    code = compare_bench.compare(baseline, current, tolerance, out=out)
    return code, out.getvalue()


class CollectMetricsTest(unittest.TestCase):
    def test_names_time_leaves_by_dotted_path(self):
        doc = {"schema": "nocmap.run_report/1", "artifacts": ["a.csv"],
               "mappers": {"SSS": {"map_ms": 0.5}},
               "a": {"x_ns": 1, "y_us": 2.0, "flag_ms": True}}
        self.assertEqual(compare_bench.collect_metrics(doc),
                         {"mappers.SSS.map_ms": 0.5, "a.x_ns": 1.0,
                          "a.y_us": 2.0})

    def test_key_without_time_suffix_is_never_gated(self):
        doc = {"fingerprint": {"hw_threads": 4},
               "netsim": {"w1": {"run_ms": 12.0}, "mesh64_speedup_w8": 0.9,
                          "events": 100000, "ms_per_map": 1.0}}
        self.assertEqual(compare_bench.collect_metrics(doc),
                         {"netsim.w1.run_ms": 12.0})


class CompareTest(unittest.TestCase):
    def test_within_tolerance_passes(self):
        code, out = run_compare({"a.x_ms": 10.0}, {"a.x_ms": 11.0})
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_regression_fails(self):
        code, out = run_compare({"a.x_ms": 10.0}, {"a.x_ms": 13.0})
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)

    def test_faster_is_never_flagged(self):
        code, _ = run_compare({"a.x_ms": 10.0}, {"a.x_ms": 1.0})
        self.assertEqual(code, 0)

    def test_removed_metric_fails_gate(self):
        code, out = run_compare({"a.x_ms": 10.0, "b.y_ms": 5.0},
                                {"a.x_ms": 10.0})
        self.assertEqual(code, 1)
        self.assertIn("REMOVED", out)
        self.assertIn("b.y_ms", out)

    def test_added_metric_is_informational(self):
        code, out = run_compare({"a.x_ms": 10.0},
                                {"a.x_ms": 10.0, "new.z_ms": 7.0})
        self.assertEqual(code, 0)
        self.assertIn("new.z_ms", out)
        self.assertIn("not gated", out)

    def test_fully_disjoint_sets_do_not_crash(self):
        code, out = run_compare({"a.x_ms": 10.0}, {"b.y_ms": 5.0})
        self.assertEqual(code, 1)
        self.assertIn("a.x_ms", out)
        self.assertIn("b.y_ms", out)

    def test_empty_baseline_is_usage_error(self):
        code, _ = run_compare({}, {"a.x_ms": 1.0})
        self.assertEqual(code, 2)

    def test_zero_baseline_value_does_not_divide_by_zero(self):
        code, _ = run_compare({"a.x_ms": 0.0}, {"a.x_ms": 1.0})
        self.assertEqual(code, 1)

    def test_failure_lines_carry_baseline_and_candidate_values(self):
        # Sub-0.05 metrics used to print as "0.0" on failure lines; the
        # actual values must survive into the FAIL summary.
        code, out = run_compare({"a.x_ms": 0.012345}, {"a.x_ms": 0.024690})
        self.assertEqual(code, 1)
        self.assertIn("baseline 0.012345", out)
        self.assertIn("measured 0.02469", out)
        self.assertIn("2.00x", out)

    def test_removed_failure_line_carries_baseline_value(self):
        code, out = run_compare({"a.x_ms": 10.0, "b.y_ms": 0.00125},
                                {"a.x_ms": 10.0})
        self.assertEqual(code, 1)
        self.assertIn("b.y_ms (baseline 0.00125)", out)

    def test_negative_tolerance_is_a_speedup_floor(self):
        # -0.75 allows at most 25% of the baseline time: a 4x floor.
        code, out = run_compare({"m.MC.map_ms": 6.0, "m.SA.map_ms": 7.0},
                                {"m.MC.map_ms": 1.0, "m.SA.map_ms": 1.75},
                                tolerance=-0.75)
        self.assertEqual(code, 0)
        self.assertIn("6.00x faster", out)
        self.assertIn("at least 4.00x faster", out)
        code, out = run_compare({"m.MC.map_ms": 6.0},
                                {"m.MC.map_ms": 2.0}, tolerance=-0.75)
        self.assertEqual(code, 1)
        self.assertIn("3.00x faster", out)
        self.assertIn("REGRESSED", out)

    def test_tolerance_of_minus_one_or_less_is_usage_error(self):
        code, _ = run_compare({"a.x_ms": 10.0}, {"a.x_ms": 1.0},
                              tolerance=-1.0)
        self.assertEqual(code, 2)


class CheckRatiosTest(unittest.TestCase):
    """--min-ratio floors (the partitioned-netsim speedup gate)."""

    CURRENT = {"netsim.w1.run_ms": 12.0, "netsim.w8.run_ms": 3.0}

    def run_ratios(self, specs, current=None):
        out = io.StringIO()
        code = compare_bench.check_ratios(
            self.CURRENT if current is None else current, specs, out=out)
        return code, out.getvalue()

    def test_floor_met_passes(self):
        code, out = self.run_ratios(
            ["netsim.w1.run_ms:netsim.w8.run_ms:3.0"])
        self.assertEqual(code, 0)
        self.assertIn("ratio OK", out)

    def test_floor_missed_fails(self):
        code, out = self.run_ratios(
            ["netsim.w1.run_ms:netsim.w8.run_ms:5.0"])
        self.assertEqual(code, 1)
        self.assertIn("FAIL", out)
        self.assertIn("< required 5", out)

    def test_missing_metric_fails_not_crashes(self):
        code, out = self.run_ratios(["netsim.w1.run_ms:absent.run_ms:2.0"])
        self.assertEqual(code, 1)
        self.assertIn("missing", out)

    def test_malformed_spec_is_usage_error(self):
        code, _ = self.run_ratios(["no-colons-here"])
        self.assertEqual(code, 2)
        code, _ = self.run_ratios(["a:b:not-a-number"])
        self.assertEqual(code, 2)

    def test_zero_denominator_passes_as_infinite_speedup(self):
        code, _ = self.run_ratios(
            ["netsim.w1.run_ms:netsim.w8.run_ms:3.0"],
            current={"netsim.w1.run_ms": 1.0, "netsim.w8.run_ms": 0.0})
        self.assertEqual(code, 0)

    def test_no_specs_is_a_pass(self):
        code, _ = self.run_ratios([])
        self.assertEqual(code, 0)


class FingerprintTest(unittest.TestCase):
    """The fingerprint note: printed once, never changes the exit code."""

    FP = {"hw_threads": 4, "compiler": "gcc 12.2.0", "asserts": False}

    @staticmethod
    def doc(run_ms, fingerprint=None):
        doc = {"schema": "nocmap.run_report/1", "binary": "micro_netsim",
               "netsim": {"w1": {"run_ms": run_ms}}}
        if fingerprint is not None:
            doc["fingerprint"] = fingerprint
        return doc

    def run_gate(self, baseline, current):
        out = io.StringIO()
        code = compare_bench.gate(baseline, current, out=out)
        return code, out.getvalue()

    def test_matching_fingerprints_print_no_note(self):
        _, out = self.run_gate(self.doc(10.0, self.FP), self.doc(10.0, self.FP))
        self.assertNotIn("note:", out)

    def test_mismatch_or_missing_fingerprint_prints_one_note(self):
        for base_fp, note in ((dict(self.FP, hw_threads=1),
                               "fingerprints differ in hw_threads"),
                              (None, "records no fingerprint")):
            for current_ms, expected in ((10.0, 0), (13.0, 1)):
                code, out = self.run_gate(self.doc(10.0, base_fp),
                                          self.doc(current_ms, self.FP))
                self.assertEqual(code, expected)
                self.assertEqual(out.count("note:"), 1)
                self.assertIn(note, out)


if __name__ == "__main__":
    unittest.main()
