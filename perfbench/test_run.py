"""Tests of the benchmark runner's statistics, verdicts and record checks.

Run with `python3 perfbench/run.py selftest` (or `python3 -m unittest
discover -s perfbench -p 'test_*.py'`).
"""

import statistics
import unittest

import run

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0, 100.0]


def record(workload, value, host="h", trace=0, **extra):
    r = {"workload": workload, "trace": trace, "host": host,
         "metrics": {"job_p50_ms": {"value": value, "unit": "ms"}}}
    r.update(extra)
    return r


BENCH = {"end_to_end": [{"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}


class Quartiles(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        q1, med, q3 = run.quartiles(PARENT)
        self.assertEqual([q1, med, q3], statistics.quantiles(PARENT, n=4))
        self.assertEqual(med, statistics.median(PARENT))
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_iqr_of_a_known_set(self):
        q1, med, q3 = run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        self.assertEqual((q1, med, q3), (2.25, 4.5, 6.75))


class Verdicts(unittest.TestCase):
    def test_a_clear_gain_is_improved(self):
        change = [p * 0.8 for p in PARENT]
        self.assertEqual(run.verdict(PARENT, change, "lower", 0.2)[0], "improved")
        self.assertEqual(run.verdict(PARENT, [p * 1.2 for p in PARENT], "higher", 0.2)[0],
                         "improved")

    def test_a_loss_beyond_the_bound_is_regressed(self):
        change = [p * 1.3 for p in PARENT]
        self.assertEqual(run.verdict(PARENT, change, "lower", 0.2)[0], "regressed")
        self.assertEqual(run.verdict(PARENT, [p * 0.7 for p in PARENT], "higher", 0.2)[0],
                         "regressed")

    def test_noise_within_the_bound_is_unchanged(self):
        change = [p + (1 if i % 2 else -1) for i, p in enumerate(PARENT)]
        self.assertEqual(run.verdict(PARENT, change, "lower", 0.2)[0], "unchanged")

    def test_a_gain_that_wins_too_few_pairs_is_not_improved(self):
        # Better median, but only 8 of 10 pairs won.
        change = [p * 0.9 for p in PARENT[:8]] + [p * 1.05 for p in PARENT[8:]]
        self.assertEqual(run.verdict(PARENT, change, "lower", 0.2)[0], "unchanged")

    def test_too_few_pairs_or_too_wide_a_spread_is_unresolved(self):
        self.assertEqual(run.verdict(PARENT[:5], PARENT[:5], "lower", 0.2)[0], "unresolved")
        wide = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
        self.assertEqual(run.verdict(wide, list(reversed(wide)), "lower", 0.2)[0],
                         "unresolved")


class Compare(unittest.TestCase):
    def test_one_row_per_workload(self):
        parent = [record(w, v) for w in ("sync", "keys") for v in PARENT]
        change = [record(w, v * (0.8 if w == "sync" else 1.0)) for w in ("sync", "keys")
                  for v in PARENT]
        rows = run.compare(parent, change, BENCH)
        self.assertEqual(sorted(rows), ["keys", "sync"])
        self.assertEqual(rows["sync"]["job_p50_ms"][0], "improved")
        self.assertEqual(rows["keys"]["job_p50_ms"][0], "unchanged")

    def test_traced_records_are_not_compared(self):
        parent = [record("sync", v) for v in PARENT]
        change = [record("sync", v * 0.5, trace=1) for v in PARENT]
        self.assertEqual(run.compare(parent, change, BENCH)["sync"]["job_p50_ms"][0],
                         "unresolved")

    def test_records_from_different_hosts_are_refused(self):
        parent = [record("sync", v, host="a") for v in PARENT]
        change = [record("sync", v, host="b") for v in PARENT]
        with self.assertRaises(ValueError):
            run.compare(parent, change, BENCH)


class CountDrift(unittest.TestCase):
    def test_a_count_that_differs_on_the_same_sources_and_seed_is_flagged(self):
        base = {"digest": "d", "workload": "sync", "seed": 1, "seconds": 25, "trace": 1}
        old = dict(base, exact_counts={"chase.rounds": 4, "core.block_count": 9})
        same = dict(base, exact_counts={"chase.rounds": 4, "core.block_count": 9})
        moved = dict(base, exact_counts={"chase.rounds": 5, "core.block_count": 9})
        other_seed = dict(old, seed=2)
        self.assertEqual(run.count_drift(same, [old]), [])
        self.assertEqual(run.count_drift(moved, [old]), ["chase.rounds"])
        self.assertEqual(run.count_drift(moved, [other_seed]), [])
        self.assertEqual(run.count_drift(moved, [dict(old, digest="e")]), [])


if __name__ == "__main__":
    unittest.main()
