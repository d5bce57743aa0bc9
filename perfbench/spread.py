#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload paper-fig1 --seeds 1-10 [--trace 0]

Runs BENCHMARK.json's command from the repository root with
`--seconds run_seconds`, one run per seed, and prints for every metric
the median, the quartiles (Python's statistics.quantiles, n=4) and the
spread (q3 - q1) / median. For end-to-end metrics it also prints a third
of the metric's bound, the figure the spread should stay below.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if run.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: exit {run.returncode}, result {result}\n{run.stderr}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            if n in bounds or args.trace == "1"), flush=True)
    print(f"{'metric':>32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        limit = f"{bounds[name] / 3:8.4f}" if name in bounds else ""
        print(f"{name:>32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {limit}")


if __name__ == "__main__":
    main()
