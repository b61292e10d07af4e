#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload and metric: the median over the runs and the
distance between the first and third quartile as a share of the median
(Python's ``statistics.quantiles(values, n=4)``), next to the metric's
regression bound from BENCHMARK.json. A spread at or above the bound
means the metric cannot resolve a regression of that size.

Run from the repository root:

    python3 e2ebench/spread.py --seeds 1-10 [--workloads a,b] [--out results.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = opts.workloads.split(",") if opts.workloads else [
        w["name"] for w in bench["workloads"]]
    seeds = seed_list(opts.seeds)

    raw = {}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(bench["command"], workload, seed,
                              bench["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        raw[workload] = runs
        print(f"-- {workload} ({len(runs)} runs) --")
        print(f"  {'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread >= bound else "near")
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {name:<28} {med:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(raw, f, indent=1)
    print(f"worst spread / bound (excluding setup_s): {worst:.3f}")


if __name__ == "__main__":
    main()
