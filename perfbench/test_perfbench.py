#!/usr/bin/env python3
"""The benchmark's own tests, on tiny (--smoke) sizes of all four workloads.

    python3 perfbench/test_perfbench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the engine counts repeat exactly across two runs, that a corrupted
output is counted as a failed operation, and that the benchmark refuses to
run (non-zero exit, no result) without the library sources next to it.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build entry point)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = ("gepspark.tasks", "gepspark.stages", "gepspark.shuffle_mb",
          "gepspark.checkpoint_blocks")


def smoke(workload, trace=False, corrupt=False, seed=1, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", "1" if trace else "0",
           "--smoke"]
    if corrupt:
        cmd.append("--corrupt")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def assert_metrics(self, res, specs):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in specs))
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_every_metric_printed_with_its_unit(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                res = result(smoke(wl))
                self.assert_metrics(res, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_counts_repeat_exactly(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                first = result(smoke(wl, trace=True))
                second = result(smoke(wl, trace=True))
                self.assert_metrics(first, BENCH["per_layer"])
                for name in COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                self.assertGreater(first["metrics"]["gepspark.tasks"]["value"], 0)

    def test_corrupted_output_is_counted_as_failed(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                res = result(smoke(wl, corrupt=True))
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)

    def test_refuses_to_run_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = smoke(WORKLOADS[0], cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
