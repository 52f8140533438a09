#!/usr/bin/env python3
"""Tests of the same-code agreement check (`agree.py`).

Run from the repository root: python3 e2ebench/test_agree.py
"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import agree  # noqa: E402

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def steady(center, wobble=0.01, n=10):
    return [center * (1 + wobble * ((i % 5) - 2) / 2) for i in range(n)]


class SpreadTest(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(agree.spread(values), (q3 - q1) / med)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(agree.spread([5.0] * 10), 0.0)


class WorseningTest(unittest.TestCase):
    def test_direction_follows_better(self):
        self.assertAlmostEqual(agree.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(agree.worsening(100, 90, "lower"), -0.10)
        self.assertAlmostEqual(agree.worsening(100, 90, "higher"), 0.10)
        self.assertAlmostEqual(agree.worsening(100, 110, "higher"), -0.10)


class JudgeTest(unittest.TestCase):
    def rounds(self, **shift):
        first = {m["name"]: steady(100.0) for m in METRICS}
        second = {m["name"]: steady(100.0 * shift.get(m["name"], 1.0)) for m in METRICS}
        return [first, second]

    def test_same_code_agrees(self):
        rows, ok = agree.judge(self.rounds(), METRICS)
        self.assertTrue(ok)
        self.assertTrue(all(not r[5] for r in rows))

    def test_median_worse_than_bound_fails(self):
        _, ok = agree.judge(self.rounds(latency_p50_us=1.2), METRICS)
        self.assertFalse(ok)
        # Better by the same amount is fine.
        _, ok = agree.judge(self.rounds(latency_p50_us=0.8), METRICS)
        self.assertTrue(ok)
        _, ok = agree.judge(self.rounds(throughput_per_s=0.8), METRICS)
        self.assertFalse(ok)

    def test_spread_above_bound_fails(self):
        noisy = [100.0, 60.0, 140.0, 80.0, 120.0, 100.0, 50.0, 150.0, 90.0, 110.0]
        self.assertGreater(agree.spread(noisy), 0.25)
        for name in ("setup_s", "latency_p50_us"):
            rounds = self.rounds()
            rounds[1][name] = noisy
            _, ok = agree.judge(rounds, METRICS)
            self.assertFalse(ok, name)

    def test_wide_spread_is_flagged_not_failed(self):
        wide = steady(100.0, wobble=0.05)
        self.assertGreater(agree.spread(wide), 0.1 / 3)
        self.assertLess(agree.spread(wide), 0.1)
        rounds = self.rounds()
        rounds[0]["latency_p50_us"] = wide
        rows, ok = agree.judge(rounds, METRICS)
        self.assertTrue(ok)
        row = next(r for r in rows if r[0] == "latency_p50_us")
        self.assertEqual(row[5], ["wide"])

    def test_last_json_reads_the_final_line(self):
        out = 'metric x = 1 us\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n'
        self.assertEqual(agree.last_json(out)["attempted"], 3)


if __name__ == "__main__":
    unittest.main()
