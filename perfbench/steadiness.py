#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics repeat.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1]

Run from the checkout root. For each workload in BENCHMARK.json, runs its
command `--runs` times per set with seeds 1, 2, ..., and prints for every
end-to-end metric its median and its spread: the distance between the
first and third quartile (`statistics.quantiles(n=4)`) as a share of the
median. A spread above the metric's bound is flagged OVER, one above a
third of the bound is flagged tight. With `--sets 2` the runs are repeated
with the same seeds, and a second median worse than the first by more than
the bound is flagged WORSE. Exits non-zero when anything is flagged OVER or
WORSE or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(config, workload, seed):
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    metrics = config["end_to_end"]
    seeds = range(1, args.runs + 1)

    flagged = False
    for workload in (w["name"] for w in config["workloads"]):
        sets = []
        for s in range(args.sets):
            results = []
            for seed in seeds:
                r = run_once(config, workload, seed)
                if not r["correct"] or r["failed"]:
                    print(f"{workload} seed {seed}: FAILED {r['failed']}/{r['attempted']}")
                    flagged = True
                results.append(r)
                print(f"  {workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.6g}" for m in metrics),
                    file=sys.stderr, flush=True)
            sets.append(results)
        print(f"{workload}:")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                sp = spread(values)
                medians.append(statistics.median(values))
                flag = ""
                if sp > bound:
                    flag, flagged = "OVER", True
                elif sp > bound / 3:
                    flag = "tight"
                print(f"  {name:14} set {s + 1}: median {medians[-1]:<12.6g} {m['unit']:8}"
                      f" spread {sp:7.2%}  bound {bound:.0%}  {flag}")
            if len(medians) == 2:
                w = worse_by(medians[0], medians[1], m["better"])
                flag = "WORSE" if w > bound else ""
                flagged = flagged or bool(flag)
                print(f"  {name:14} second set worse by {w:7.2%}  {flag}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
