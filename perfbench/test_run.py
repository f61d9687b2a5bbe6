#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_run.py

Runs the short (--smoke) mode of every workload, untraced and traced, and
checks that each run prints every metric BENCHMARK.json names for its mode,
with the declared unit. Then checks that the benchmark refuses to run, with
a non-zero exit and no result, from a directory holding only
BENCHMARK.json and perfbench/ (no library sources to build).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(cwd, workload, trace, extra=()):
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "2", "--trace", str(trace)] + list(extra)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = load_spec()
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(ROOT, workload, trace, ["--smoke"])
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    for metric in spec[key]:
                        self.assertIn(metric["name"], metrics)
                        self.assertEqual(metrics[metric["name"]]["unit"], metric["unit"])
                        self.assertIsInstance(metrics[metric["name"]]["value"], (int, float))
                    self.assertEqual(set(metrics), {m["name"] for m in spec[key]})


class Refusal(unittest.TestCase):
    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(bare, "compile-fig8", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
