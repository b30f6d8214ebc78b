"""Percentile / IQR helpers and the pair-comparison rule on synthetic data."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        # statistics.quantiles(n=4), exclusive method: positions (n+1)q.
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_value(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(stats.iqr([4.0]), 0.0)
        self.assertEqual(stats.spread([4.0]), 0.0)

    def test_spread_is_iqr_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        self.assertAlmostEqual(stats.iqr(values), 1.0)
        self.assertAlmostEqual(stats.spread(values), 0.1)

    def test_spread_of_zero_median(self):
        self.assertEqual(stats.spread([0.0, 0.0, 0.0]), 0.0)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 9.9, 10.1]

    def test_clear_gain_is_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "improved")

    def test_direction_higher(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1),
                         "improved")
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "worse")

    def test_identical_is_unchanged(self):
        self.assertEqual(
            compare.verdict(self.parent, list(self.parent), "lower", 0.1),
            "unchanged")

    def test_small_gain_within_spread_is_not_improved(self):
        # Wins every pair, but by less than the parent's own IQR.
        change = [v - 0.01 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "unchanged")

    def test_eight_wins_of_ten_is_not_improved(self):
        change = [v * 0.5 for v in self.parent]
        change[0] = self.parent[0] * 2
        change[1] = self.parent[1] * 2
        self.assertNotEqual(
            compare.verdict(self.parent, change, "lower", 0.5), "improved")

    def test_fewer_than_ten_pairs_never_improve(self):
        change = [v * 0.5 for v in self.parent]
        self.assertEqual(
            compare.verdict(self.parent[:9], change[:9], "lower", 0.1),
            "unchanged")

    def test_ties_count_for_neither_side(self):
        change = [v * 0.5 for v in self.parent]
        change[0] = self.parent[0]  # a tie: 9 wins of 10 pairs still count
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "improved")
        change[1] = self.parent[1]  # two ties: 8 of 10
        self.assertNotEqual(
            compare.verdict(self.parent, change, "lower", 0.1), "improved")

    def test_regression_beyond_bound_is_worse(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "worse")

    def test_regression_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "unchanged")

    def test_noisy_parent_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [v * 1.02 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1),
                         "unresolved")

    def test_noisy_but_every_change_run_better_is_not_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        change = [1.0] * 10
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1),
                         "improved")

    def test_per_layer_without_bound(self):
        change = [v * 1.5 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower"),
                         "worse")
        self.assertEqual(compare.verdict(self.parent, list(self.parent),
                                         "lower"), "unchanged")


class ReportTest(unittest.TestCase):
    def test_pairs_match_by_seed_and_count_worse_rows(self):
        def rec(seed, value, fp="a"):
            return {"workload": "w", "trace": 0, "seed": seed,
                    "fingerprint": fp,
                    "metrics": {"run_s": {"value": value, "unit": "s"}}}
        parent = [rec(s, 1.0 + 0.01 * s) for s in range(10)]
        change = [rec(s, 2.0 + 0.01 * s) for s in reversed(range(10))]
        specs = {"run_s": ("lower", 0.1)}
        out = open(os.devnull, "w")
        try:
            self.assertEqual(compare.report(parent, change, specs, out), 1)
            self.assertEqual(compare.report(parent, parent, specs, out), 0)
        finally:
            out.close()


if __name__ == "__main__":
    unittest.main()
