#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of the same code
must agree within each end-to-end metric's bound.

    python3 perfbench/steady.py

Each of the two sets runs every workload in BENCHMARK.json once per seed
(seeds 1..10, the same list in both sets).  For each workload and
end-to-end metric it prints both sets' medians and quartiles, the spread
(interquartile range over the median) against the metric's bound from
BENCHMARK.json, and the change from the first set's median to the
second's, also against the bound in either direction.  Exits 1 if any
check fails; raw results go to .bench_out/steady.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(command, workload, seed, seconds):
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, completed.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: incorrect result %s" %
                           (workload, seed, lines[-1]))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def worse_by(first, second, better):
    """Fraction by which `second` is worse than `first` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, RUNS + 1))

    # values[workload][metric][set] -> one value per seed
    values = {w: {} for w in workloads}
    for set_index in range(SETS):
        for seed in seeds:
            for workload in workloads:
                metrics = run_once(bench["command"], workload, seed,
                                   bench["run_seconds"])
                shown = " ".join("%s=%.4g" % item
                                 for item in sorted(metrics.items()))
                print("set %d seed %d %s: %s"
                      % (set_index + 1, seed, workload, shown), flush=True)
                for metric, value in metrics.items():
                    per_set = values[workload].setdefault(
                        metric, [[] for _ in range(SETS)])
                    per_set[set_index].append(value)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as handle:
        json.dump(values, handle, indent=1)

    ok = True
    print("\n%-13s %-14s %5s  %-34s %7s %7s %6s" % (
        "workload", "metric", "set", "median [q1, q3]", "spread", "worse",
        "bound"))
    for workload in workloads:
        for spec in bench["end_to_end"]:
            sets = values[workload][spec["name"]]
            medians = [statistics.median(s) for s in sets]
            worse = worse_by(medians[0], medians[1], spec["better"])
            for set_index, samples in enumerate(sets):
                q1, _, q3 = statistics.quantiles(samples, n=4)
                spread = (q3 - q1) / medians[set_index]
                spread_ok = spread <= spec["bound"]
                second = set_index == 1
                worse_ok = not second or abs(worse) <= spec["bound"]
                ok = ok and spread_ok and worse_ok
                print("%-13s %-14s %5d  %-34s %6.1f%%%s %7s %5.0f%%" % (
                    workload, spec["name"], set_index + 1,
                    "%.5g [%.5g, %.5g]" % (medians[set_index], q1, q3),
                    100 * spread, " " if spread_ok else "!",
                    ("%+.1f%%%s" % (100 * worse, " " if worse_ok else "!"))
                    if second else "",
                    100 * spec["bound"]))
    print("\nSTEADY" if ok else "\nNOT STEADY (! marks a failed check)")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as error:
        print("steady: error: %s" % error, file=sys.stderr)
        sys.exit(1)
