#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 edgebench/selftest.py

For every workload in BENCHMARK.json, runs one timed (--trace 0) and one
traced (--trace 1) tiny run and checks that the last output line is the
result object, that every cell was correct, and that it reports exactly
the metrics BENCHMARK.json names, each with its unit. Also checks that
every name uses only [A-Za-z0-9_.-], that each workload's simulated
results at seed 1 still have the digest recorded in digests.txt, and
that the benchmark fails without printing a result when the simulator
sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "edgebench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)


def check_result(workload, trace, expected, out, errors):
    where = "%s --trace %d" % (workload, trace)
    if out.returncode != 0:
        errors.append("%s: exit code %d" % (where, out.returncode))
        return
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
        return
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        errors.append("%s: missing %s, unexpected %s, wrong unit %s" % (
            where, missing, extra, units))


def check_digests(workloads, errors):
    """digests.txt must hold what the code simulates now, at seed 1."""
    sys.path.insert(0, HERE)
    import run
    with open(os.path.join(HERE, "digests.txt")) as f:
        recorded = set(line.strip() for line in f)
    for name in workloads:
        out = subprocess.run(
            [run.BINARY, "--workload", name, "--seed", "1", "--digest-only",
             "--out-dir", os.path.join(run.BUILD, "edgebench-run")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        if out.returncode != 0 or out.stdout.strip() not in recorded:
            errors.append("%s: digest %r is not the recorded one" % (
                name, out.stdout.strip()))


def check_bare_tree(errors):
    """A tree with only BENCHMARK.json and edgebench/ must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "edgebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = run(bare, "dsre-waves", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        errors.append("bare tree: exit code %d, output %r" % (
            out.returncode, out.stdout[-200:]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    names = [w["name"] for w in bench["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in bench[group]]
    errors += ["bad name %r" % n for n in names if not NAME.match(n)]
    if len(names) != len(set(names)):
        errors.append("duplicate names")

    expected = {
        trace: {m["name"]: m["unit"] for m in bench[group]}
        for trace, group in ((0, "end_to_end"), (1, "per_layer"))}
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, expected[trace],
                         run(ROOT, w["name"], trace), errors)
            print("checked %s --trace %d" % (w["name"], trace), flush=True)
    check_digests([w["name"] for w in bench["workloads"]], errors)
    check_bare_tree(errors)

    for e in errors:
        print("FAIL: " + e)
    print("selftest: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
