#!/usr/bin/env python3
"""Pretty-print the CSV artifacts under one or more output directories.

    python3 scripts/summarize.py out/rate-scan-trig out/thm2-trig
"""
import csv
import pathlib
import sys

INTERESTING = {
    "ratefit.csv": ("metric", "t", "slope", "status"),
    "strong.csv": ("epsilon", "rms_x_gap", "rms_xt_y", "rms_second"),
    "thm2.csv": ("epsilon", "phi", "lhs", "rhs", "gap_over_se", "status"),
    "kernel.csv": ("kind", "H", "t", "s", "value", "target", "z"),
    "variance.csv": ("t", "var_y"),
}


def show(path):
    cols = INTERESTING[path.name]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if path.name == "variance.csv":
        rows = rows[-1:]  # terminal node only
    print("== %s" % path)
    widths = [max([len(c)] + [len(_fmt(r[c])) for r in rows]) for c in cols]
    print("  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        print("  " + "  ".join(_fmt(r[c]).ljust(w)
                               for c, w in zip(cols, widths)))


def _fmt(v):
    try:
        return "%.4g" % float(v)
    except ValueError:
        return v


def run(args):
    if not args:
        print(__doc__.strip())
        return 2
    for base in args:
        for name in INTERESTING:
            path = pathlib.Path(base) / name
            if path.exists():
                show(path)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
