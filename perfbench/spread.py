#!/usr/bin/env python3
"""Run perfbench over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train_abilene --seeds 1-10

For every end-to-end metric it prints the median and the interquartile
range as a share of the median, from Python's
statistics.quantiles(values, n=4) over the runs, next to the metric's
bound in BENCHMARK.json.  Run from the root of the source tree; the
seconds per run default to BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    failed = False
    for workload in args.workload:
        values = {}
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}")
                failed = True
                continue
            result = json.loads(lines[-1])
            failed = failed or not result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2 or med == 0:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"  {workload:14s} {name:12s} median {med:.6g} "
                  f"spread {spread:.3f} (bound {bounds.get(name)})")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
