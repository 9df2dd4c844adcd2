#!/usr/bin/env python3
"""Run the whole experiment battery from the bundled configs.

Each config carries its own out_dir (relative to the invocation
directory, so run this from the repository root).  Extra arguments are
passed through to every subcommand; add --assert to turn the report
into a gate.  Exit code is the first nonzero subcommand result.

    python3 scripts/run_all.py
    VF_THREADS=4 python3 scripts/run_all.py --assert
"""
import pathlib
import sys
import time

from volfluct.cli import main

HERE = pathlib.Path(__file__).resolve().parent

JOBS = [
    ("limit", "limit_fbm.json"),
    ("kernel-check", "kernel_check.json"),
    ("rate-scan", "rate_scan_trig.json"),
    ("rate-scan", "rate_scan_multiplicative.json"),
    ("thm2", "thm2_trig.json"),
    ("thm2", "thm2_multiplicative.json"),
    ("thm2", "thm2_fbm_trig.json"),
]


def run(extra):
    worst = 0
    for command, name in JOBS:
        cfg = HERE / "configs" / name
        t0 = time.time()
        rc = main([command, "--config", str(cfg)] + extra)
        print("%-13s %-30s exit %d  (%.1fs)"
              % (command, name, rc, time.time() - t0))
        if rc != 0 and worst == 0:
            worst = rc
    return worst


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
