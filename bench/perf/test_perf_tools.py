#!/usr/bin/env python3
"""Unit tests of the benchmark's statistics and comparison rules.

  python3 bench/perf/test_perf_tools.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(run.quartiles(range(1, 11)), (2.75, 5.5, 8.25))

    def test_odd_count_median_is_middle_value(self):
        self.assertEqual(run.quartiles([3, 1, 2])[1], 2)

    def test_single_sample(self):
        self.assertEqual(run.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.quartiles([])


class Bounds(unittest.TestCase):
    def test_relative_bound(self):
        self.assertAlmostEqual(compare.allowance(WALL, 2.0), 0.2)
        self.assertEqual(compare.bound_verdict(WALL, [2.0] * 5, [2.15] * 5)[0],
                         "ok")
        self.assertEqual(compare.bound_verdict(WALL, [2.0] * 5, [2.25] * 5)[0],
                         "REGRESSED")

    def test_setup_absolute_floor(self):
        # 0.2 ms -> 0.6 ms is +200%, but within the 0.5 ms floor.
        self.assertAlmostEqual(compare.allowance(SETUP, 0.0002),
                               compare.SETUP_FLOOR_S)
        self.assertEqual(compare.bound_verdict(SETUP, [0.0002] * 5,
                                               [0.0006] * 5)[0], "ok")
        self.assertEqual(compare.bound_verdict(SETUP, [0.0002] * 5,
                                               [0.0008] * 5)[0], "REGRESSED")
        # Above the floor the relative bound governs.
        self.assertAlmostEqual(compare.allowance(SETUP, 1.0), 0.25)

    def test_wide_parent_spread_is_unresolved(self):
        parent = [1.0, 1.5, 0.8, 1.3, 0.9, 1.4]
        self.assertEqual(compare.bound_verdict(WALL, parent, [1.2] * 4)[0],
                         "unresolved")

    def test_unresolved_unless_every_change_run_is_better(self):
        parent = [1.0, 1.5, 0.8, 1.3, 0.9, 1.4]
        self.assertEqual(compare.bound_verdict(WALL, parent, [0.5, 0.7])[0],
                         "better")

    def test_higher_is_better(self):
        eff = {"name": "eff", "better": "higher", "bound": 0.1}
        self.assertEqual(compare.bound_verdict(eff, [1.0] * 4, [0.85] * 4)[0],
                         "REGRESSED")


class GainRule(unittest.TestCase):
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]

    def verdict(self, change, parent=None, alternating=True):
        parent = parent or self.parent
        return compare.claim_verdict(WALL, parent, change, alternating)[0]

    def test_nine_of_ten_wins(self):
        change = [0.8] * 9 + [1.05]
        self.assertTrue(self.verdict(change))

    def test_eight_of_ten_is_not_enough(self):
        change = [0.8] * 8 + [1.05, 1.05]
        self.assertFalse(self.verdict(change))

    def test_ties_count_for_neither(self):
        change = [0.8] * 8 + self.parent[8:]
        self.assertFalse(self.verdict(change))

    def test_needs_ten_pairs(self):
        self.assertFalse(self.verdict([0.8] * 9, parent=self.parent[:9]))

    def test_needs_alternating_order(self):
        self.assertFalse(self.verdict([0.8] * 10, alternating=False))

    def test_gap_must_exceed_parent_spread(self):
        parent = [1.0, 1.3, 0.7, 1.2, 0.8, 1.25, 0.75, 1.1, 0.9, 1.0]
        change = [p - 0.01 for p in parent]
        self.assertFalse(self.verdict(change, parent=parent))


def result_set(started, walls, failed=0):
    reps = [{"ok": True, "wall_s": w, "why": ""} for w in walls]
    reps += [{"ok": False, "why": "exit code 1"}] * failed
    return {"manifest": {"started_unix": started},
            "workloads": {"storm_dense": {
                "summary": run.summarize(reps, [WALL])}}}


class SingleSetSpread(unittest.TestCase):
    spec = {"end_to_end": [WALL]}

    def cell(self, parent, change):
        rows, _, _ = compare.compare(parent, change, self.spec)
        return rows[0][1][0]

    def test_one_set_per_side_takes_the_rep_spread(self):
        parent = [result_set(1.0, [1.0, 1.5, 0.8, 1.3, 0.9])]
        change = [result_set(2.0, [1.2] * 5)]
        self.assertTrue(self.cell(parent, change).startswith(
            "wall_s unresolved"))

    def test_one_tight_set_per_side_is_checked_against_the_bound(self):
        parent = [result_set(1.0, [1.0, 1.01, 0.99, 1.0, 1.02])]
        self.assertTrue(self.cell(parent, [result_set(2.0, [1.05] * 5)])
                        .startswith("wall_s ok"))
        self.assertTrue(self.cell(parent, [result_set(2.0, [1.2] * 5)])
                        .startswith("wall_s REGRESSED"))

    def test_several_sets_take_the_spread_of_their_medians(self):
        # Wide reps, steady medians: the run-to-run spread is what counts.
        parent = [result_set(float(i), [0.5, 1.0, 1.5]) for i in (1, 4)]
        change = [result_set(float(i), [0.5, 1.3, 1.5]) for i in (2, 3)]
        self.assertTrue(self.cell(parent, change).startswith(
            "wall_s REGRESSED"))


class FailedFraction(unittest.TestCase):
    def test_digest_mismatch_counts_as_failure(self):
        reps = [run.check_digest({"ok": True, "digest": d, "wall_s": 1.0},
                                 "aaaa") for d in ("aaaa", "bbbb", "aaaa")]
        summary = run.summarize(reps, [WALL])
        self.assertEqual((summary["attempted"], summary["failed"]), (3, 1))
        self.assertAlmostEqual(summary["failed_frac"], 1 / 3)
        self.assertEqual(summary["metrics"]["wall_s"]["n"], 2)
        self.assertIn("digest bbbb", summary["failures"][0])

    def test_no_reference_accepts_any_digest(self):
        rep = run.check_digest({"ok": True, "digest": "bbbb"}, None)
        self.assertTrue(rep["ok"])

    def test_rising_failed_frac_fails_the_comparison(self):
        spec = {"end_to_end": [WALL]}
        parent = [result_set(1.0, [1.0, 1.0, 1.01])]
        same = [result_set(2.0, [1.0, 1.01, 1.0])]
        worse = [result_set(2.0, [1.0, 1.01, 1.0], failed=1)]
        self.assertTrue(compare.compare(parent, same, spec)[2])
        rows, _, ok = compare.compare(parent, worse, spec)
        self.assertFalse(ok)
        self.assertIn("failed_frac REGRESSED", rows[0][1][-1])


if __name__ == "__main__":
    unittest.main()
