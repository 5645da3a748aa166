#!/usr/bin/env python3
"""Harness self-test for the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
the output checks pass and that every metric BENCHMARK.json names is emitted
with its unit; unit-tests the span self-time arithmetic on hand-built span
trees (perfbench --selftest); and checks that a failed output check fails
the run, and that the benchmark refuses to run without the library sources.
Temporary files go under .bench_build/selftest/.
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
import run as bench  # noqa: E402


def work_dir():
    path = os.path.join(os.path.dirname(bench.build_dir()), "selftest")
    os.makedirs(path, exist_ok=True)
    return path


def invoke(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_span_self_time_arithmetic(self):
        proc = subprocess.run([bench.binary(), "--selftest"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_every_workload_emits_every_metric_and_passes_its_checks(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], bench.WORKLOADS)
        for workload in bench.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = invoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    r = result_of(proc)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 2)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"] for name, m in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in r["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)

    def test_outcome_differing_from_the_reference_fails_every_episode(self):
        out = subprocess.run([bench.binary(), "--workload", "churn_faults", "--seed", "7",
                              "--size", "tiny", "--outcome-only"],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        outcome = json.loads(out)
        path = os.path.join(work_dir(), "reference.json")
        for clock_scale, correct in ((1.0, True), (1.0 + 1e-6, False)):
            with self.subTest(clock_scale=clock_scale):
                with open(path, "w") as f:
                    json.dump({"churn_faults": {"7": dict(outcome, clock=outcome["clock"] * clock_scale)}}, f)
                r = result_of(invoke("churn_faults", 0, "--reference", path))
                self.assertEqual(r["correct"], correct)
                self.assertEqual(r["failed"], 0 if correct else r["attempted"])

    def test_refuses_to_run_without_the_library_sources(self):
        bare = os.path.join(work_dir(), "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "zones_hot", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
