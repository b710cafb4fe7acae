#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py     (from the repository root)

Builds the benchmark through run.py, runs its C++ unit tests, then runs
every workload listed in BENCHMARK.json, and serve_small, for one second
and checks that
  - the metric names printed with --trace 0 / --trace 1 are exactly the
    end_to_end / per_layer names in BENCHMARK.json, with their units;
  - a run with one corrupted golden value fails (correct false, nonzero
    exit), so the output checks demonstrably fire;
  - run.py exits nonzero without a result when the library sources are
    missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every gated workload, and serve_small: it is not in BENCHMARK.json (its
# figures follow the host's load too closely, see README) but stays
# runnable, so its metric names and output checks are tested as well.
WORKLOADS = list(dict.fromkeys([w["name"] for w in SPEC["workloads"]] +
                               ["serve_small"]))


def perfbench(out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([str(out / "perfbench"), *args, "--out-dir", str(out)],
                          capture_output=True, text=True, timeout=170)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build()

    def test_unit_tests_pass(self):
        p = subprocess.run([str(self.out / "perfbench_tests")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stderr)

    def check_names(self, trace: int, section: str):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                p = perfbench(self.out, "--workload", name, "--seed", "3",
                              "--seconds", "1", "--trace", str(trace))
                self.assertEqual(p.returncode, 0, p.stderr)
                result = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)

    def test_end_to_end_names_match_benchmark_json(self):
        self.check_names(0, "end_to_end")

    def test_per_layer_names_match_benchmark_json(self):
        self.check_names(1, "per_layer")

    def test_corrupted_golden_fails_the_run(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                p = perfbench(self.out, "--workload", name, "--seed", "3",
                              "--seconds", "1", "--trace", "0",
                              "--corrupt-golden")
                self.assertNotEqual(p.returncode, 0)
                result = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_run_py_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=self.out) as tmp:
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            p = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", SPEC["workloads"][0]["name"],
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=tmp, capture_output=True, text=True,
                               timeout=60)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
