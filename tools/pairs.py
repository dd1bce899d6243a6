#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent checkout against a change checkout.

    python3 tools/pairs.py PARENT CHANGE --workload explore --seed 3 \\
        --seconds 5 --pairs 10

Runs ``perfbench/run.py`` (``--trace 0``) once in PARENT, then once in
CHANGE, and repeats that ``--pairs`` times, so both sides meet the same
swings of the host's speed.  Each run is a child process started in its
checkout, which imports the program from that checkout's ``src/``.  For
each end-to-end metric it prints the median of each side, the parent's
quartiles and the number of pairs the change won (ties count as lost).
Which way is better is read from the change's ``BENCHMARK.json``; a metric
it does not list counts lower as better.  It prints a table and bounds
nothing: the exit status is 0 unless a run fails or reports an output that
contradicts the benchmark's expected record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``checkout``: its last output line, parsed."""
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True:
        sys.exit(f"{checkout}: outputs do not match the expected record")
    return result


def directions(checkout: str) -> dict:
    """End-to-end metric -> "lower" or "higher", from ``BENCHMARK.json``."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return {m["name"]: m["better"] for m in json.load(f).get("end_to_end", [])}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", default="explore")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in sides:
            sides[side].append(run_once(getattr(args, side), args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    better = directions(args.change)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<16}{'parent':>12}{'change':>12}{'delta':>9}  {'parent quartiles':<24}won")
    for name in sides["parent"][0]["metrics"]:
        before = [r["metrics"][name]["value"] for r in sides["parent"]]
        after = [r["metrics"][name]["value"] for r in sides["change"]]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        won = sum(sign * a < sign * b for a, b in zip(after, before))
        mb, ma = statistics.median(before), statistics.median(after)
        delta = f"{(ma - mb) / mb:+.1%}" if mb else "-"
        lo, hi = quartiles(before)
        print(f"{name:<16}{mb:>12.5g}{ma:>12.5g}{delta:>9}  {f'{lo:.5g}-{hi:.5g}':<24}{won}/{args.pairs}")
    failed = {side: sum(r["failed"] for r in runs) for side, runs in sides.items()}
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
