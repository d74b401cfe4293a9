#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and the drift between sets.

Run from the repository root:

    python3 edgebench/spread.py                       # noise floor: seed 1, 10 runs
    python3 edgebench/spread.py --seeds 1-10 --sets 2 # the acceptance check

A set is ten runs (or --runs) of each workload, the workloads taking
turns run by run so that a slow period of the host hits all of them.
With --seed (default 1) every run uses that seed: the spread is the
benchmark's own noise floor, which a claimed change must beat. With
--seeds A-B run i uses seed A+i: the spread then also holds the
variation between the seeds' inputs, which is how a benchmark is
accepted (each end-to-end spread within its bound in BENCHMARK.json,
setup_s excepted, and each later set's median no worse than the first
set's by more than the bound).

For every workload and metric it prints the median of the runs and the
spread: the distance between the first and third quartile as a share of
the median (statistics.quantiles, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("%s seed %d: exit code %d" % (workload, seed, out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: incorrect result" % (workload, seed))
    print("%s seed %d: %s" % (workload, seed, " ".join(
        "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
        flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=1)
    group.add_argument("--seeds", type=seed_range)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    group = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in
              bench["end_to_end"] + bench["per_layer"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = (args.seeds[:args.runs] if args.seeds
             else [args.seed] * args.runs)

    # sets[s][workload] = list of {metric: value}, one per run
    sets = []
    for _ in range(args.sets):
        runs = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                runs[w].append(run_once(w, seed, seconds, args.trace))
        sets.append(runs)

    bad = []
    for w in workloads:
        print("\n%s\n%-28s %14s %8s %8s" % (w, "metric", "median", "spread",
                                           "bound"))
        first = {}
        for s, runs in enumerate(sets):
            for name in runs[w][0]:
                med, sp = spread([r[name] for r in runs[w]])
                bound = group.get(name, {}).get("bound")
                note = ""
                if bound is not None and name != "setup_s" and sp > bound:
                    note = "  OVER ITS BOUND"
                    bad.append("%s %s spread %.3f" % (w, name, sp))
                elif bound is not None and sp > bound / 3:
                    note = "  over a third of its bound"
                if s == 0:
                    first[name] = med
                elif bound is not None and first[name]:
                    worse = (med - first[name]) / first[name]
                    if better[name] == "higher":
                        worse = -worse
                    note += "  vs set 1: %+.3f worse" % worse
                    if worse > bound:
                        bad.append("%s %s median %+.3f worse" % (
                            w, name, worse))
                print("%-28s %14.6g %8.4f %8s%s" % (
                    "%s%s" % ("" if s == 0 else "set%d " % (s + 1), name),
                    med, sp, "-" if bound is None else bound, note))
    print("\n" + ("\n".join("FAIL: " + b for b in bad) if bad
                  else "every spread and median within its bound"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
