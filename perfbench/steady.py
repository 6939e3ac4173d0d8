#!/usr/bin/env python3
"""Steadiness command: repeat workloads and report the spread of every metric.

    python3 perfbench/steady.py --runs 10 --workloads serve-mixed,scale-1m

Each run uses another seed (first seed --seed, default 1). For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and that
spread as a share of the metric's bound in BENCHMARK.json, and the share of
failed operations. Run it from the root of a checkout; the bounds in
BENCHMARK.json are set from its figures.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    opts = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    status = 0
    for wl in opts.workloads.split(","):
        values = {name: [] for name in bounds}
        failed = []
        for i in range(opts.runs):
            seed = opts.seed + i
            cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(opts.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {done.returncode}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(lines[-1])
            failed.append(res["failed"] / res["attempted"])
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), file=sys.stderr)
        print(f"== {wl}: {opts.runs} runs, failed share {sorted(set(failed))}")
        print(f"  {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            b = bounds[name]["bound"]
            print(f"  {name:20} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b:6.3f} {spread / b:12.3f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
