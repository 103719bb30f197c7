#!/usr/bin/env python3
"""Builds the program and the benchmark, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady [--runs 10] [--seconds S] [--workloads a,b]

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default .bench_build); a run's files go to .bench_run/ and are removed
unless its checks fail. The last line of a run's output is its JSON
result. --steady repeats every workload with seeds 1..runs, alternating
the workload order, and prints each metric's median, quartiles and
spread ((q3 - q1) / median).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["paths_paper", "exprs_wide", "churn_wide"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml", "--bin", "phe"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"run.py: {' '.join(cmd)} failed")
    return os.path.join(target, "release", "phe"), os.path.join(target, "release", "perfbench")


def run_once(binaries, workload, seed, seconds, trace, echo):
    phe, perfbench = binaries
    work = os.path.abspath(os.path.join(".bench_run", f"{workload}-{seed}-{os.getpid()}"))
    cmd = [perfbench, "--phe", phe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", work]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = []
    try:
        for line in child.stdout:
            lines.append(line)
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    return child.returncode, lines


def steady(binaries, args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            code, lines = run_once(binaries, w, r + 1, args.seconds, args.trace, echo=False)
            if code != 0 or not lines:
                sys.stdout.write("".join(lines[-20:]))
                sys.exit(f"run.py: {w} seed {r + 1} exited {code}")
            result = json.loads(lines[-1])
            results[w].append(result)
            steal = [l.split("host steal ")[1].split()[0] for l in lines if "host steal" in l]
            print(f"{w} seed {r + 1} (host steal {''.join(steal)}): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, failed share {shares}, correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {first['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    if not args.steady and not args.workload:
        parser.error("--workload is required unless --steady is given")
    binaries = build()
    if args.steady:
        steady(binaries, args)
        return 0
    code, _ = run_once(binaries, args.workload, args.seed, args.seconds, args.trace, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
