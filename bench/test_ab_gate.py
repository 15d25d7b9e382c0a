"""Unit tests for bench/ab_gate.py's decision function, on canned pairs.

    python3 bench/test_ab_gate.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_gate  # noqa: E402

RULES = {"rate": ("higher", 0.2), "wall": ("lower", 0.2)}


def pairs(metric, values):
    return [{metric: v} for v in values]


def verdict(base, head, metric):
    return {m: v for m, v, _ in ab_gate.decide(base, head, RULES.get)}[metric]


class Decide(unittest.TestCase):
    def test_majority_loss_past_bound_fails(self):
        base = pairs("rate", [100] * 5)
        head = pairs("rate", [70, 70, 70, 100, 100])
        self.assertEqual(verdict(base, head, "rate"), "FAIL")

    def test_minority_loss_passes(self):
        base = pairs("rate", [100] * 5)
        head = pairs("rate", [70, 70, 100, 100, 100])
        self.assertEqual(verdict(base, head, "rate"), "ok")

    def test_loss_within_bound_passes(self):
        base = pairs("rate", [100] * 5)
        head = pairs("rate", [81] * 5)
        self.assertEqual(verdict(base, head, "rate"), "ok")

    def test_lower_is_better(self):
        base = pairs("wall", [100] * 5)
        self.assertEqual(verdict(base, pairs("wall", [130] * 5), "wall"), "FAIL")
        self.assertEqual(verdict(base, pairs("wall", [70] * 5), "wall"), "ok")

    def test_higher_is_better(self):
        base = pairs("rate", [100] * 5)
        self.assertEqual(verdict(base, pairs("rate", [130] * 5), "rate"), "ok")
        self.assertEqual(verdict(base, pairs("rate", [70] * 5), "rate"), "FAIL")

    def test_metric_missing_from_head_fails(self):
        base = [{"rate": 100, "wall": 100}] * 5
        head = [{"wall": 100}] * 5
        self.assertEqual(verdict(base, head, "rate"), "FAIL")
        self.assertEqual(verdict(base, head, "wall"), "ok")

    def test_metric_new_in_head_passes(self):
        base = pairs("rate", [100] * 5)
        head = [{"rate": 100, "wall": 100}] * 5
        self.assertEqual(verdict(base, head, "wall"), "new")

    def test_throughput_rules(self):
        setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
        rule = ab_gate.rule_from({"end_to_end": [setup]})
        self.assertEqual(rule("poisson/setup_s"), ("lower", 0.25))
        self.assertEqual(rule("throughput/trace_overhead_n1"), ("lower", 0.05))
        self.assertEqual(rule("throughput/rpc_burst_seg8_n3"), ("higher", 0.30))


if __name__ == "__main__":
    unittest.main()
