#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3 | --runs N]
                                [--seconds S] [--trace 0|1]

Run it from the repository root. For every workload it runs
`perfbench/run.py` once per seed, then prints for each metric the median,
the quartiles (Python's `statistics.quantiles(values, n=4)`) and the
quartile spread `(q3 - q1) / median`, next to the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged. The
exit code is 1 when any run failed or any spread (except `setup_s`'s)
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")] if a.seeds else list(range(1, a.runs + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in a.workloads.split(","):
        values = {}
        for seed in seeds:
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(a.seconds), "--trace", a.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                status = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- at or above a third of the bound"
            if bound is not None and spread > bound and name != "setup_s":
                flag = "  <-- EXCEEDS BOUND"
                status = 1
            print(f"  {workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
