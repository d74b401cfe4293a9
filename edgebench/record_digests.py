#!/usr/bin/env python3
"""Record the digests of the simulated results the benchmark checks.

Run from the repository root:

    python3 edgebench/record_digests.py

Sets every workload up once per seed (1-64 and the held-out 101) and
writes edgebench/digests.txt, one "<workload> <seed> 0x<digest>" line
each. A timed or traced run whose simulated results differ from the
recorded digest for its workload and seed reports every cell as failed,
so only a change that is meant to alter the simulated results (a model
change, never a speed or simplicity change) should re-record them.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 65)) + [101]


def main():
    sys.path.insert(0, HERE)
    import run
    run.build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    lines = []
    for name in workloads:
        for seed in SEEDS:
            out = subprocess.run(
                [run.BINARY, "--workload", name, "--seed", str(seed),
                 "--digest-only", "--out-dir",
                 os.path.join(run.BUILD, "edgebench-run")],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines.append(out.stdout.strip())
        print("recorded %s" % name, flush=True)
    with open(os.path.join(HERE, "digests.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
