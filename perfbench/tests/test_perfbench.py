#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

The fast tests check BENCHMARK.json against run.py and the pure helpers;
the slow ones (about a minute each) run zoo-search end to end.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402


def bench_run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True,
        text=True, cwd=cwd, timeout=600)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_run_py(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         run.WORKLOADS)
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class HelperTest(unittest.TestCase):
    def test_schedule_is_seeded_and_balanced(self):
        a = run.serve_schedule(5, 20)
        self.assertEqual(a, run.serve_schedule(5, 20))
        self.assertNotEqual(a, run.serve_schedule(6, 20))
        self.assertEqual(len(a), 160)
        counts = {}
        for item in a:
            key = (item["cls"], item["request"]["stencil"])
            counts[key] = counts.get(key, 0) + 1
        self.assertEqual(set(counts.values()), {5})
        dues = [item["due"] for item in a]
        self.assertEqual(dues, sorted(dues))

    def test_landing_flags_a_class_boundary(self):
        times = [float(i) for i in range(40)]
        split = ["a"] * 20 + ["b"] * 20
        _, _, note = run.landing(times, split, 0.5)
        self.assertIn("on a class boundary", note)
        mixed = ["a"] * 10 + ["b"] * 20 + ["a"] * 10
        _, beyond, note = run.landing(times, mixed, 0.5)
        self.assertIn("inside a class", note)
        self.assertEqual(beyond, 20)

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0, 4.0], 0.5), (2.0, 1))
        self.assertEqual(run.percentile(list(range(100)), 0.9), (89, 89))


class EndToEndTest(unittest.TestCase):
    """Runs zoo-search (one pass, about 30 s) end to end."""

    @classmethod
    def setUpClass(cls):
        cls.first = bench_run("--workload", "zoo-search", "--seed", "3",
                              "--seconds", "1", "--trace", "0")

    def result(self, proc):
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def digest(self, proc):
        line = next(x for x in proc.stdout.splitlines()
                    if x.strip().startswith("digest:"))
        return line.split()[-1]

    def test_reports_every_end_to_end_metric(self):
        self.assertEqual(self.first.returncode, 0, self.first.stderr[-2000:])
        result = self.result(self.first)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))

    def test_digest_repeats_and_a_corrupt_digest_fails(self):
        digest = self.digest(self.first)
        again = bench_run("--workload", "zoo-search", "--seed", "3",
                          "--seconds", "1", "--trace", "0",
                          "--expect-digest", digest)
        self.assertEqual(again.returncode, 0, again.stdout[-2000:])
        self.assertEqual(self.result(again)["metrics"]["completed_share"],
                         self.result(self.first)["metrics"]["completed_share"])
        corrupt = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        bad = bench_run("--workload", "zoo-search", "--seed", "3",
                        "--seconds", "1", "--trace", "0",
                        "--expect-digest", corrupt)
        self.assertNotEqual(bad.returncode, 0)
        self.assertFalse(self.result(bad)["correct"])


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            proc = bench_run("--workload", "tune-suite", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
