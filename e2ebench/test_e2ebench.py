#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, at smoke size.

    python3 e2ebench/test_e2ebench.py

Checks, for every workload: the result line's schema against
BENCHMARK.json (untraced and traced runs), that a planted corruption is
reported as failed operations with a non-zero exit, and that the benchmark
refuses to run where the runtime's sources are missing.
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
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--smoke", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600, check=False)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p


class Schema(unittest.TestCase):
    def check(self, trace, spec_key):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, r, p = run(w, "--trace", str(trace))
                self.assertEqual(rc, 0, p.stderr[-2000:])
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertIs(r["correct"], True)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in r["metrics"].items():
                    self.assertTrue(math.isfinite(v["value"]), k)
                    if trace == 0:
                        self.assertGreater(v["value"], 0, k)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class PlantedFailure(unittest.TestCase):
    def test_corruption_is_counted(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, r, _ = run(w, "--trace", "0", "--plant", "97")
                self.assertNotEqual(rc, 0)
                self.assertIs(r["correct"], False)
                self.assertGreater(r["failed"], 0)


class MissingSources(unittest.TestCase):
    def test_refuses_without_runtime(self):
        bare = os.path.join(ROOT, ".bench_build", "e2ebench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
            p = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=bare, env=env, capture_output=True,
                               text=True, timeout=180, check=False)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
