#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload fabric --runs 10 [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed+1, ...) and prints,
for every end-to-end metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the quartile distance as
a share of the median next to the metric's bound from BENCHMARK.json.
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: %d of %d operations failed" %
                  (seed, result["failed"], result["attempted"]), file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-18s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "iqr/med",
                                                "bound", "runs"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" %
              (m["name"], med, q1, q3, (q3 - q1) / med, m["bound"],
               " ".join("%.4g" % x for x in v)))


if __name__ == "__main__":
    main()
