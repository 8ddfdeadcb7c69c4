#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread.

Runs each named workload once per seed and prints, for every end-to-end
metric, the median and the interquartile distance as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's bound
from BENCHMARK.json. Run from the repository root:

    python3 _perfbench/spread.py --runs 10 [--seconds S] [workload ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in args.workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            try:
                res = json.loads(last)
            except ValueError:
                print(f"{w} seed {seed}: no result (exit {out.returncode})\n{out.stderr}", file=sys.stderr)
                return 1
            if not res["correct"]:
                ok = False
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            if name != "setup_s" and spread > bounds[name]:
                ok = False
            print(f"  {w:16s} {name:12s} median={med:.6g} spread={spread:.4f} bound/3={bounds[name] / 3:.4f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
