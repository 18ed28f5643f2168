#!/usr/bin/env python3
"""Checks BENCHMARK.json against the benchmark's own rules and layer map.

    python3 pfbench/test_benchmark_json.py

Every name matches [A-Za-z0-9_.-]+ and is used once, bounds are shares of at
most 0.25, setup_s is present, and layer_map.json names exactly the
per-layer metrics, each with the end-to-end metrics it should move and the
workloads it is measured on. serve_p99_ms is a per-layer (ungated) row.
"""
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load(os.path.join(HERE, "..", "BENCHMARK.json"))
        cls.map = load(os.path.join(HERE, "layer_map.json"))["metrics"]

    def test_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        self.assertEqual(self.bench["paths"], ["pfbench"])
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_names_and_units(self):
        seen = set()
        for key in ("workloads", "end_to_end", "per_layer"):
            for entry in self.bench[key]:
                self.assertRegex(entry["name"], NAME)
                self.assertNotIn(entry["name"], seen)
                seen.add(entry["name"])
                if key != "workloads":
                    self.assertRegex(entry["unit"], UNIT)
                    self.assertIn(entry["better"], ("higher", "lower"))

    def test_workloads(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, ["train-rn18", "train-dp4", "serve-fleet"])
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_bounds(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        for m in e2e.values():
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))

    def test_layer_map_covers_per_layer(self):
        per_layer = {m["name"] for m in self.bench["per_layer"]}
        self.assertEqual(per_layer, set(self.map))
        # A row moves a gated end-to-end metric or the ungated latency tail.
        targets = {m["name"] for m in self.bench["end_to_end"]} | {"serve_p99_ms"}
        workloads = {w["name"] for w in self.bench["workloads"]}
        for name, row in self.map.items():
            self.assertTrue(set(row["moves"]) <= targets, name)
            self.assertTrue(row["workloads"] and set(row["workloads"]) <= workloads, name)


if __name__ == "__main__":
    unittest.main()
