#!/usr/bin/env python3
"""Pretty-print the CSV artifacts under one or more output directories.

    python3 scripts/summarize.py out/rate-scan-trig out/thm2-trig

An argument that is not a directory holding at least one of the CSVs below
gets one line on stderr, after the others are printed, and exit code 2.
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
    missing = []
    for base in args:
        paths = [pathlib.Path(base) / name for name in INTERESTING]
        paths = [p for p in paths if p.exists()]
        for path in paths:
            show(path)
        if not paths:
            missing.append(base)
    for base in missing:
        print("summarize: %s: no directory holding any of %s"
              % (base, ", ".join(INTERESTING)), file=sys.stderr)
    return 2 if missing else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
