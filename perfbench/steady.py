"""Steadiness check: run one workload k times and show each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload fuzz-farm --runs 5 [--first-seed 1] [--trace 0]

Run ``i`` uses seed ``first-seed + i``.  For every metric the tool prints
the median, the relative spread (distance between the first and third
quartile over the median, from ``statistics.quantiles(values, n=4)``) and,
for end-to-end metrics, the bound from ``BENCHMARK.json`` and whether the
spread stays under a third of it.  It exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> float:
    """Interquartile distance over the median (0 when the median is 0)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    series: dict = {}
    units: dict = {}
    failed = False
    for index in range(args.runs):
        seed = args.first_seed + index
        completed = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            failed = True
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stdout}{completed.stderr}")
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)

    print(f"\n{'metric':<30} {'median':>12} {'unit':<9} {'spread':>8} {'bound':>6}  steady")
    for name, values in series.items():
        relative = spread(values)
        bound = bounds.get(name)
        verdict = "" if bound is None else ("yes" if relative < bound / 3 else "NO")
        bound_text = "" if bound is None else f"{bound:.2f}"
        print(f"{name:<30} {statistics.median(values):>12.5g} {units[name]:<9} "
              f"{relative:>8.3f} {bound_text:>6}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
