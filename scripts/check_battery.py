#!/usr/bin/env python3
"""Rerun the experiment battery into a temporary directory and compare
every CSV with the committed ``out/``.

Each job of ``run_all.JOBS`` runs with ``--out`` pointed at a fresh
directory, so the committed artifacts are never touched.  Each CSV prints
``identical`` when its bytes equal the committed file, else the largest
difference of its numeric cells relative to the committed value
(absolute where that value is 0); a CSV that a job writes but ``out/``
does not hold prints ``not in out/``.  The exit code is 0 when every job
exits 0, produces exactly the committed CSVs and keeps every cell within
the golden tolerance of the acceptance tests (relative 1e-9 plus
absolute 1e-12, text cells equal), and 1 otherwise.  Config file names as
arguments check only those jobs; an unknown name exits 2.  Run it from
the repository root:

    PYTHONPATH=src python3 scripts/check_battery.py
    VF_THREADS=2 PYTHONPATH=src python3 scripts/check_battery.py
    PYTHONPATH=src python3 scripts/check_battery.py thm2_multiplicative.json
"""
import argparse
import csv
import json
import math
import pathlib
import sys
import tempfile

from run_all import HERE, JOBS
from volfluct.cli import main

RTOL, ATOL = 1e-9, 1e-12


def compare(got, want):
    """(largest relative difference, every cell within tolerance)."""
    with open(got, newline="") as fg, open(want, newline="") as fw:
        rows_g, rows_w = list(csv.reader(fg)), list(csv.reader(fw))
    if [len(r) for r in rows_g] != [len(r) for r in rows_w]:
        return math.inf, False
    worst, ok = 0.0, True
    for row_g, row_w in zip(rows_g, rows_w):
        for a, b in zip(row_g, row_w):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                ok = ok and a == b
                continue
            if fa == fb or (math.isnan(fa) and math.isnan(fb)):
                continue
            diff = abs(fa - fb)
            rel = diff / abs(fb) if fb else diff
            worst = max(worst, math.inf if math.isnan(rel) else rel)  # nan: one side nan
            ok = ok and diff <= ATOL + RTOL * abs(fb)
    return worst, ok


def check(tmp, names=()):
    good = True
    for command, name in JOBS:
        if names and name not in names:
            continue
        cfg = HERE / "configs" / name
        committed = HERE.parent / json.loads(cfg.read_text())["out_dir"]
        fresh = tmp / committed.name
        rc = main([command, "--config", str(cfg), "--out", str(fresh)])
        print("%-13s %-30s exit %d" % (command, name, rc))
        good = good and rc == 0
        wanted = sorted(committed.glob("*.csv"))
        for want in wanted:
            got = fresh / want.name
            if not got.exists():
                print("  %-14s missing" % want.name)
                good = False
            elif got.read_bytes() == want.read_bytes():
                print("  %-14s identical" % want.name)
            else:
                worst, ok = compare(got, want)
                print("  %-14s max rel diff %.3g%s"
                      % (want.name, worst, "" if ok else "  OUTSIDE TOLERANCE"))
                good = good and ok
        for extra in sorted({p.name for p in fresh.glob("*.csv")} - {p.name for p in wanted}):
            print("  %-14s not in out/" % extra)
            good = False
    return good


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rerun battery jobs and compare "
                                                 "their CSVs with the committed out/.")
    parser.add_argument("configs", nargs="*", metavar="CONFIG",
                        help="config file names of the jobs to check (default: all)")
    names = parser.parse_args().configs
    unknown = sorted(set(names) - {name for _, name in JOBS})
    if unknown:
        parser.error("unknown config %s; known: %s"
                     % (", ".join(unknown), ", ".join(name for _, name in JOBS)))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(0 if check(pathlib.Path(tmp), set(names)) else 1)
