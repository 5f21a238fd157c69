#!/usr/bin/env python3
"""Check that the benchmark is steady across seeds.

    python3 perfbench/steady.py --workload serve --seeds 10 [--first-seed 1] [--trace 0]

Runs the workload once per seed through run.py and prints, for every
metric, the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. With --trace 0 it also marks each end-to-end metric whose spread
is not below a third of its bound in BENCHMARK.json (setup_s excepted:
only its median is compared between sets of runs).
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
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            if name in bounds:
                line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} {' '.join(line)}", flush=True)

    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        mark = ""
        if name in bounds and name != "setup_s":
            ok = spread < bounds[name] / 3
            mark = f"bound {bounds[name]} {'ok' if ok else 'TOO WIDE'}"
            worst = max(worst, spread / bounds[name])
        print(f"{name:<44} median {med:<14.6g} spread {spread:.4f} {mark}")
    print(f"worst spread/bound: {worst:.3f} (must stay below 0.333)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
