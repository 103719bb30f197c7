#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a seconds-long run of every
workload, traced and untraced, plus the failure paths. Checks the result
line against BENCHMARK.json and that every `phe serve` the runs started
has been stopped and reaped.

    python3 perfbench/test_smoke.py      # from the root of a checkout
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def server_pids(stderr):
    return [int(p) for p in re.findall(r"phe serve pid (\d+)", stderr)]


def alive(pid):
    return os.path.exists(f"/proc/{pid}")


class Smoke(unittest.TestCase):
    def run_benchmark(self, workload, trace, seconds=1):
        done = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "7",
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
        return done

    def test_every_workload_reports_every_metric(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = self.run_benchmark(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stdout[-2000:] + done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[key]})
                    for m in SPEC[key]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    pids = server_pids(done.stderr)
                    self.assertTrue(pids)
                    self.assertFalse([p for p in pids if alive(p)])

    def test_failed_run_stops_the_server_and_keeps_its_stderr(self):
        # A zero-second window completes no request: the run fails after
        # its server is up.
        done = self.run_benchmark("paths_paper", 0, seconds=0)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)
        pids = server_pids(done.stderr)
        self.assertTrue(pids)
        self.assertFalse([p for p in pids if alive(p)])
        kept = re.search(r"work directory kept: (\S+)\)", done.stderr)
        self.assertIsNotNone(kept, done.stderr)
        self.assertTrue(os.path.exists(os.path.join(kept.group(1), "serve.err")))
        shutil.rmtree(kept.group(1))

    def test_refuses_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_run", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paths_paper", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
