#!/usr/bin/env python3
"""Self-checks of the end-to-end benchmark.

    python3 perfbench/test_perfbench.py

Run from the repository root; the first run builds the binary. The checks
use the openwhisk_day workload (no profiling) with the shortest measuring
time, so each run takes a few seconds.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHORT = ["--seconds", "0"]


def run(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *SHORT],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class BenchmarkSpec(unittest.TestCase):
    def setUp(self) -> None:
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_and_units(self) -> None:
        names = [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_bounds(self) -> None:
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(self.spec["end_to_end"][0]["name"], "setup_s")
        for name, bound in bounds.items():
            self.assertGreater(bound, 0.0, name)
            self.assertLessEqual(bound, 0.25, name)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class BenchmarkRuns(unittest.TestCase):
    spec: dict

    @classmethod
    def setUpClass(cls) -> None:
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_report(self, result: dict, trace: int) -> None:
        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in self.spec[key]}
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME_RE)
            self.assertEqual(m["unit"], expected[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_prints_with_its_unit(self) -> None:
        for trace in (0, 1):
            lines, result = run("openwhisk_day", 7, trace)
            self.check_report(result, trace)
            for name, m in result["metrics"].items():
                self.assertTrue(
                    any(ln.strip().startswith(f"{name} = ") and
                        ln.strip().endswith(" " + m["unit"]) for ln in lines),
                    name)

    def test_seed_changes_trace_hash_not_metric_set(self) -> None:
        lines_a, a = run("openwhisk_day", 1, 0)
        lines_b, b = run("openwhisk_day", 2, 0)
        hash_a = [ln for ln in lines_a if ln.startswith("trace_hash:")]
        hash_b = [ln for ln in lines_b if ln.startswith("trace_hash:")]
        self.assertEqual(len(hash_a), 1)
        self.assertNotEqual(hash_a, hash_b)
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))
        self.assertNotEqual(a["metrics"]["core_hours"],
                            b["metrics"]["core_hours"])

    def test_same_seed_repeats_simulated_metrics(self) -> None:
        _, a = run("openwhisk_day", 5, 0)
        _, b = run("openwhisk_day", 5, 0)
        for name in ("core_hours", "memory_gb_hours", "p95_over_target",
                     "qos_miss_frac"):
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_profiling_threads_within_nproc(self) -> None:
        _, result = run("openwhisk_day", 3, 1)
        threads = result["metrics"]["profiling.threads"]["value"]
        self.assertGreaterEqual(threads, 1)
        self.assertLessEqual(threads, os.cpu_count() or 1)


if __name__ == "__main__":
    unittest.main()
