#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--seconds S]

Runs `perfbench/run.py` once per seed (untraced) from the repository root
and prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), next to a third of the metric's bound.
A metric whose spread exceeds a third of its bound is flagged. The same
figures for the uncalibrated timings (measured.*, from each run's full
result) follow for comparison. Exits 1 if any run failed or was
incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def median_and_spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    measured = {}
    results = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"), "results")
    ok = True
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: run failed\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        with open(os.path.join(results, f"{args.workload}-seed{seed}"
                               "-trace0.json")) as f:
            for name, metric in json.load(f)["end_to_end"].items():
                if name.startswith("measured."):
                    measured.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {len(values[spec['end_to_end'][0]['name']])} runs")
    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        if len(runs) < 2:
            continue
        median, spread = median_and_spread(runs)
        limit = metric["bound"] / 3
        flag = "" if spread <= limit else "  WIDE"
        print(f"  {metric['name']:<29} median {median:12.6g}  "
              f"iqr/median {spread:7.4f}  bound/3 {limit:.4f}{flag}")
    for name, runs in sorted(measured.items()):
        if len(runs) >= 2:
            median, spread = median_and_spread(runs)
            print(f"  {name:<29} median {median:12.6g}  "
                  f"iqr/median {spread:7.4f}  (uncalibrated)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
