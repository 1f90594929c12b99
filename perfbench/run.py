#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The servers under test are started
from ``src/`` through the program's own command-line entry points; the
last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time, split between closed and open loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "server", "__main__.py")):
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    import bench

    try:
        return bench.execute(args, ROOT)
    except KeyboardInterrupt:
        print("perfbench: interrupted; servers stopped", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
