#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_run.py          # from the root of a checkout

The statistics and metric-name tests take milliseconds. The seed-42 test
builds repbench and replays every workload once (about a minute), checking
the exact work counts against perfbench/ledger_seed42.json. A change that
moves a count on purpose rewrites that file with

    python3 perfbench/test_run.py --write-ledger
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_are_the_exclusive_method(self):
        xs = [float(x) for x in range(1, 11)]
        self.assertEqual(run.quartiles(xs), (2.75, 8.25))
        q = statistics.quantiles(xs, n=4)
        self.assertEqual(run.quartiles(xs), (q[0], q[2]))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0))

    def test_spread_is_iqr_over_median(self):
        xs = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q3 = run.quartiles(xs)
        self.assertAlmostEqual(run.spread(xs), (q3 - q1) / 100.0)
        self.assertEqual(run.spread([7.0] * 10), 0.0)

    def test_nearest_rank(self):
        xs = [float(x) for x in range(1, 101)]
        self.assertEqual(run.nearest_rank(xs, 0.99), 99.0)
        self.assertEqual(run.nearest_rank(xs, 0.5), 50.0)
        self.assertEqual(run.nearest_rank(xs, 1.0), 100.0)
        self.assertEqual(run.nearest_rank([1.0, 2.0, 3.0], 0.99), 3.0)
        self.assertEqual(run.nearest_rank([], 0.99), 0.0)


class Names(unittest.TestCase):
    spec = load("BENCHMARK.json")

    def metrics(self):
        return self.spec["end_to_end"] + self.spec["per_layer"]

    def test_names_are_valid_and_unique(self):
        names = [m["name"] for m in self.metrics()] + [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertTrue(run.valid_name(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_invalid_names_are_rejected(self):
        for bad in ["", "-lead", ".lead", "has space", "x" * 65, "p99%", "café"]:
            self.assertFalse(run.valid_name(bad), bad)
        for bad in ["", "u" * 17, "m s", "µs"]:
            self.assertFalse(run.valid_unit(bad), bad)

    def test_units_are_valid(self):
        for m in self.metrics():
            self.assertTrue(run.valid_unit(m["unit"]), m)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        for name, bound in bounds.items():
            self.assertTrue(0 < bound <= 0.25, name)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_workloads_are_the_ones_run_knows(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual(set(load("perfbench/ledger_seed42.json")), set(run.WORKLOADS))


class Seed42(unittest.TestCase):
    """The exact work counts of every workload at the default seed."""

    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        run.build()
        cls.ledger = load("perfbench/ledger_seed42.json")
        cls.runs = {}
        for w in run.WORKLOADS:
            gate, _ = run.child("gate", w, run.DEFAULT_SEED)
            timed, _ = run.child("timed", w, run.DEFAULT_SEED)
            traced, _ = run.child("traced", w, run.DEFAULT_SEED)
            cls.runs[w] = (gate, timed, traced)

    def test_counts_match_the_ledger(self):
        for w, (gate, timed, traced) in self.runs.items():
            with self.subTest(workload=w):
                self.assertEqual(run.exact_counts(gate, timed, traced), self.ledger[w]["counts"])

    def test_fingerprints_match_the_ledger(self):
        for w, (gate, timed, traced) in self.runs.items():
            with self.subTest(workload=w):
                self.assertEqual(gate["fingerprint"], self.ledger[w]["fingerprint"])
                self.assertEqual(timed["fingerprint"], gate["fingerprint"])
                self.assertEqual(traced["fingerprint"], gate["fingerprint"])

    def test_published_numbers(self):
        be = self.runs["paper-backedge-checked"][0]["fingerprint"]
        self.assertEqual((be["commits"], be["aborts"]), (24749, 2251))
        self.assertEqual(round(be["resp_p99_ms"], 1), 58.4)
        psl = self.runs["paper-psl"][0]["fingerprint"]
        self.assertEqual((psl["commits"], psl["aborts"], psl["messages"]), (25011, 1989, 184687))
        large = self.runs["large-dagwt"][0]["fingerprint"]
        self.assertEqual(
            (large["commits"], large["aborts"], large["messages"], large["propagations"]),
            (6000, 0, 188759, 12516),
        )

    def test_gate_passes(self):
        for w, (gate, _, _) in self.runs.items():
            with self.subTest(workload=w):
                run.check_gate(gate)


def write_ledger():
    """Rewrite ledger_seed42.json from fresh runs at the default seed."""
    os.chdir(ROOT)
    run.build()
    ledger = {}
    for w in run.WORKLOADS:
        gate, timed, traced = (run.child(m, w, run.DEFAULT_SEED)[0] for m in ("gate", "timed", "traced"))
        counts = run.exact_counts(gate, timed, traced)
        n = counts["attempted"]
        ledger[w] = {
            "fingerprint": gate["fingerprint"],
            "counts": counts,
            "per_attempted_txn": {k: v / n for k, v in counts.items() if k != "attempted"},
        }
    with open(os.path.join(HERE, "ledger_seed42.json"), "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-ledger"]:
        write_ledger()
    else:
        unittest.main()
