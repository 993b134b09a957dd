#!/usr/bin/env python3
"""Tests for the benchmark itself.

    python3 perfbench/test_run.py        # from the repository root

The end-to-end cases build the benchmark on first use and run short
workloads (about a minute in total).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".bench_build", "test-tmp")
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done.stderr


class PercentileTest(unittest.TestCase):
    def test_median_and_p99_with_enough_samples(self):
        s = run.summarize(range(1, 1001))
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500)
        self.assertEqual(s["tail_pct"], 99.0)
        self.assertEqual(s["tail"], 990)  # exactly ten samples beyond it

    def test_tail_falls_back_until_ten_samples_lie_beyond(self):
        s = run.summarize(range(1, 101))
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["tail_pct"], 90.0)
        self.assertEqual(s["tail"], 90)

    def test_too_few_samples_have_no_tail(self):
        s = run.summarize([3.0, 1.0, 2.0])
        self.assertEqual((s["n"], s["p50"], s["tail_pct"], s["tail"]),
                         (3, 2.0, None, None))


class CommandTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(TMP, exist_ok=True)

    def check_metrics(self, result, units):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], float, name)

    def test_every_metric_is_printed_with_its_unit(self):
        end_to_end, per_layer = bench_names()
        for trace, units in (("0", end_to_end), ("1", per_layer)):
            code, result, err = run_bench("--workload", "svc-mixed", "--seconds",
                                          "4", "--trace", trace)
            self.assertEqual(code, 0, err)
            self.check_metrics(result, units)
            self.assertTrue(result["correct"])
            self.assertGreater(result["attempted"], 0)

    def test_corrupted_pinned_digest_fails_the_command(self):
        with open(run.DIGESTS) as f:
            digests = json.load(f)
        row = next(iter(digests["2012"]["window7"].values()))
        row["result"] = "0" * 16
        corrupt = os.path.join(TMP, "corrupt-digests.json")
        with open(corrupt, "w") as f:
            json.dump(digests, f)
        code, result, _ = run_bench("--workload", "window7", "--seed", "2012",
                                    "--seconds", "1", "--digests", corrupt)
        self.assertNotEqual(code, 0)
        self.check_metrics(result, bench_names()[0])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_fails_without_printing_where_no_sources_are(self):
        bare = os.path.join(TMP, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, _ = run_bench("--workload", "fairstart", "--seconds", "1",
                                    cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
