#!/usr/bin/env python3
"""Unit tests for compare.py on synthetic result files.

  python3 bench/e2e/test_compare.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "rounds_per_s", "unit": "rounds/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def records(workload, rates, setups=None, failed=0, attempted=10):
    setups = setups or [1.0] * len(rates)
    return [{"workload": workload, "attempted": attempted, "failed": failed,
             "metrics": {"rounds_per_s": {"value": rate, "unit": "rounds/s"},
                         "setup_s": {"value": setup, "unit": "s"}}}
            for rate, setup in zip(rates, setups)]


def steady(center, n=10, jitter=0.005):
    """n values within +-jitter (relative) of center, alternating."""
    return [center * (1 + jitter * (1 if i % 2 else -1) * (i % 3) / 2) for i in range(n)]


class ClassifyTest(unittest.TestCase):
    def label(self, parent, change, better="higher", bound=0.1):
        return compare.classify(parent, change, better, bound)[0]

    def test_clear_gain_is_improved(self):
        self.assertEqual(self.label(steady(100), steady(120)), "improved")

    def test_clear_loss_beyond_bound_is_worse(self):
        self.assertEqual(self.label(steady(100), steady(80)), "worse")

    def test_loss_within_bound_is_unchanged(self):
        self.assertEqual(self.label(steady(100), steady(95)), "unchanged")

    def test_same_distribution_is_unchanged(self):
        self.assertEqual(self.label(steady(100), steady(100)), "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(self.label(noisy, list(reversed(noisy))), "unresolved")

    def test_wide_spread_but_every_change_run_better_is_improved(self):
        parent = [60, 70, 80, 90, 100, 60, 70, 80, 90, 100]
        change = [200, 210, 220, 300, 250, 200, 210, 220, 300, 250]
        self.assertEqual(self.label(parent, change), "improved")

    def test_wide_spread_but_every_change_run_worse_is_worse(self):
        parent = [200, 210, 220, 300, 250, 200, 210, 220, 300, 250]
        change = [60, 70, 80, 90, 100, 60, 70, 80, 90, 100]
        self.assertEqual(self.label(parent, change), "worse")

    def test_claim_needs_nine_of_ten_pairs(self):
        parent = steady(100)
        change = [p * 1.08 for p in parent]
        change[0] = parent[0] * 0.99
        change[1] = parent[1] * 0.99
        self.assertEqual(self.label(parent, change), "unchanged")
        change[1] = parent[1] * 1.08
        self.assertEqual(self.label(parent, change), "improved")

    def test_claim_needs_gap_beyond_parent_iqr(self):
        parent = [100, 100.5, 101, 101.5, 102, 102.5, 103, 103.5, 104, 104.5]
        change = [p + 0.6 for p in parent]  # wins every pair, gap < IQR
        self.assertEqual(self.label(parent, change), "unchanged")

    def test_claim_needs_ten_pairs(self):
        self.assertEqual(self.label(steady(100, n=5), steady(120, n=5)), "unchanged")

    def test_lower_is_better(self):
        self.assertEqual(self.label(steady(1.0), steady(0.7), "lower", 0.25), "improved")
        self.assertEqual(self.label(steady(1.0), steady(1.4), "lower", 0.25), "worse")

    def test_too_few_runs_is_unresolved(self):
        self.assertEqual(self.label([100], [120]), "unresolved")


class CompareFilesTest(unittest.TestCase):
    def write(self, rows):
        handle = tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False)
        with handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        self.addCleanup(os.unlink, handle.name)
        return handle.name

    def run_main(self, parent, change):
        benchmark = self.write([])
        with open(benchmark, "w") as handle:
            json.dump(BENCHMARK, handle)
        with contextlib.redirect_stdout(io.StringIO()):
            return compare.main([benchmark, self.write(parent), self.write(change)])

    def test_rows_per_workload(self):
        parent = records("wide", steady(100)) + records("grid", steady(50))
        change = records("wide", steady(120)) + records("grid", steady(50))
        rows = compare.compare(BENCHMARK, parent, change)
        labels = {workload: [cell[1] for cell in cells] for workload, cells, _, _ in rows}
        self.assertEqual(labels, {"grid": ["unchanged", "unchanged"],
                                  "wide": ["improved", "unchanged"]})

    def test_exit_status(self):
        self.assertEqual(self.run_main(records("wide", steady(100)),
                                       records("wide", steady(120))), 0)
        self.assertEqual(self.run_main(records("wide", steady(100)),
                                       records("wide", steady(70))), 1)

    def test_failure_shares(self):
        parent = records("wide", steady(100))
        change = records("wide", steady(100), failed=1)
        rows = compare.compare(BENCHMARK, parent, change)
        self.assertEqual(rows[0][2], (0, 100))
        self.assertEqual(rows[0][3], (10, 100))
        self.assertEqual(self.run_main(parent, change), 1)


if __name__ == "__main__":
    unittest.main()
