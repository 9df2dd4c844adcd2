#!/usr/bin/env python3
"""Seed check: every workload at two seeds gives no failure and the same split.

    python3 perfbench/seed_check.py --seeds 1 2

Runs perfbench/run.py --trace 1 for BENCHMARK.json's run_seconds once
per workload and seed, then compares the layer self-time split of
cli.main between the seeds.  It
exits 1 when a run reports a failure or a layer's share moves by more
than POINTS (10) percentage points.  Every run's result is kept in
.perfbench_work/seed_check.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import SPEC, WORK, WORKLOADS  # noqa: E402
from traced import LAYERS  # noqa: E402

POINTS = 10.0  # largest allowed move of a layer's share, in percentage points


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    split = {layer: 100.0 * m[layer + ".self_s"] / m["trace.main_s"]
             for layer in LAYERS}
    return result, split


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = parser.parse_args(argv)
    with open(SPEC) as fh:
        seconds = json.load(fh)["run_seconds"]

    ok = True
    results = {}
    for workload in WORKLOADS:
        runs = [traced_run(workload, seed, seconds) for seed in args.seeds]
        results[workload] = {str(seed): result["metrics"]
                             for seed, (result, _) in zip(args.seeds, runs)}
        for seed, (result, split) in zip(args.seeds, runs):
            ok &= result["correct"] and result["failed"] == 0
            print("%-20s seed %-6d failed %d of %d  split %s" % (
                workload, seed, result["failed"], result["attempted"],
                " ".join("%s %.1f%%" % kv for kv in split.items())))
        moved = max(abs(runs[0][1][layer] - runs[1][1][layer])
                    for layer in LAYERS)
        ok &= moved <= POINTS
        print("%-20s largest split change %.1f points" % (workload, moved))
    with open(os.path.join(WORK, "seed_check.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    print("seed check: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
