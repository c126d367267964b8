#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py [--workloads W,...] [--seeds 1,2,...] [--seconds S] [--trace 0|1]

For every workload and metric it prints the median of the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, plus the failed share of each run.  The
reference figures in README.md come from this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="scan_grid,finite_verify,model_jobs")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        for seed in args.seeds.split(","):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", seed,
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            shares.add(f"{res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.6f}")
            for name, metric in res["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: correct {res['correct']}, attempted {res['attempted']}, "
                  f"failed {res['failed']}", flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<45} median {med:12.6g} {units[name]:<6} q1 {q1:10.5g} q3 {q3:10.5g} "
                  f"spread {spread:.4f}")
        print(f"  failed shares: {sorted(shares)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
