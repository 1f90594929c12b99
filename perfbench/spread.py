#!/usr/bin/env python3
"""Run one workload over several seeds and print each end-to-end
metric's median and quartile spread (IQR as a share of the median).

    python3 perfbench/spread.py --workload ycsb-a --seeds 1-10 --seconds 16

A metric is steady enough when its spread stays well inside the bound
BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - started
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        note = next(l for l in out.stdout.splitlines() if l.startswith("# "))
        steal = note.split("host_steal_frac=")[1].split()[0]
        print(f"seed {seed}: {wall:.1f}s wall, steal {steal}, attempted {result['attempted']}, "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        if name != "setup_s" and bound:
            worst = max(worst, spread / bound)
        print(f"{name:18s} median {med:12.6g}  spread {spread:6.3f}  bound {bound}{flag}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
