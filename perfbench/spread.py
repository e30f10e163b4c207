#!/usr/bin/env python3
"""Run one workload over several seeds and print, per metric, the median
and the quartile spread (Q3 - Q1 as a share of the median), as
statistics.quantiles(values, n=4) gives them.

    python3 perfbench/spread.py --workload floor_serve --seeds 1-10 \
        [--seconds 45] [--trace 0]

Run from the root of a checkout. Exits 1 if any run fails or reports
correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    units = {}
    ok = True
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds,
               "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                         if not args.trace == "1")
        print(f"seed {seed}: correct={result['correct']} {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
        else:
            spread = 0.0
        print(f"{name:28s} median {med:14.6g} {units[name]:6s} spread {spread:7.3f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
