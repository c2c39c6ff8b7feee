#!/usr/bin/env python3
"""Tests of ci/bench_pairs.py's verdicts, on planted pair values.

    python3 ci/test_bench_pairs.py

No benchmark runs: each case feeds ``compare()`` the values of one metric
over a set of (parent, change) pairs and checks the verdict that CI's
``bench-pairs`` gate reads (``worse`` fails it).
"""

import contextlib
import io
import unittest

import bench_pairs


def judge(parent, change, better="lower", bound=0.25):
    """The verdict of one metric whose pairs read `parent` and `change`."""
    pairs = [({"values": {"m": p}}, {"values": {"m": c}}) for p, c in zip(parent, change)]
    with contextlib.redirect_stdout(io.StringIO()):
        rows = bench_pairs.compare("w", pairs, [("m", better, bound)])
    return rows["m"]["verdict"]


class VerdictTest(unittest.TestCase):
    def test_worse_past_the_bound_when_lower_is_better(self):
        self.assertEqual(judge([1.0] * 4, [1.3] * 4), "worse")
        self.assertEqual(judge([1.0] * 4, [1.2] * 4), "held")

    def test_worse_past_the_bound_when_higher_is_better(self):
        self.assertEqual(judge([0.9] * 4, [0.7] * 4, "higher", 0.2), "worse")
        self.assertEqual(judge([0.9] * 4, [0.75] * 4, "higher", 0.2), "held")

    def test_gain_needs_ten_pairs(self):
        parent = [1.0 + 0.01 * k for k in range(10)]
        change = [0.5 + 0.01 * k for k in range(10)]
        self.assertEqual(judge(parent, change), "gain")
        self.assertEqual(judge(parent[:8], change[:8]), "held")

    def test_gain_needs_nine_wins_in_ten(self):
        parent = [1.0 + 0.01 * k for k in range(10)]
        change = [0.5 + 0.01 * k for k in range(10)]
        change[0] = change[1] = 2.0
        self.assertEqual(judge(parent, change), "held")
        change[1] = 0.5
        self.assertEqual(judge(parent, change), "gain")

    def test_gain_needs_a_gap_wider_than_the_parents_quartiles(self):
        # Every pair wins, by less than the parent's Q1-Q3 width.
        parent = [1.0, 1.2] * 5
        change = [p - 0.05 for p in parent]
        self.assertEqual(judge(parent, change, bound=0.5), "held")
        change = [p - 0.25 for p in parent]
        self.assertEqual(judge(parent, change, bound=0.5), "gain")

    def test_unresolved_when_the_parent_spreads_past_the_bound(self):
        parent = [1.0, 2.0] * 2
        self.assertEqual(judge(parent, [1.4] * 4), "unresolved")
        # Unless every change run beats every parent run.
        self.assertEqual(judge(parent, [0.9] * 4), "held")

    def test_held_within_the_bound(self):
        self.assertEqual(judge([1.0, 1.02] * 2, [1.01, 1.03] * 2), "held")


class SummaryTest(unittest.TestCase):
    def test_a_single_value_is_its_own_median_and_quartiles(self):
        self.assertEqual(bench_pairs.summary([3.5]), {"median": 3.5, "q1": 3.5, "q3": 3.5})

    def test_no_values_summarize_to_none(self):
        self.assertIsNone(bench_pairs.summary([]))


if __name__ == "__main__":
    unittest.main()
