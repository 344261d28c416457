#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py serve-steady 10 [first_seed] [trace]

Runs BENCHMARK.json's command from the repository root once per seed
and prints, per metric, the median and the interquartile range as a
share of the median (Python's statistics.quantiles, n=4), next to the
metric's bound.
"""

import json
import statistics
import subprocess
import sys
import time


def main():
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 100
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    walls = []
    for seed in range(first, first + runs):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", trace,
        ]
        start = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        walls.append(time.monotonic() - start)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correctness gate failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:40s} median {med:14.6g}  iqr/median {spread:8.4f}  bound {bound}{flag}")
        print("    " + " ".join(f"{v:.6g}" for v in vals))
    print(f"wall seconds per run: max {max(walls):.1f}, mean {statistics.mean(walls):.1f}")


if __name__ == "__main__":
    main()
