#!/usr/bin/env python3
"""Measure how far the artifacts move between CPU builds, on one machine.

numpy's ``NPY_DISABLE_CPU_FEATURES`` and OpenBLAS's ``OPENBLAS_CORETYPE``
act only on the process that reads them, so one machine can stand in for
CPUs without AVX-512, CPUs at numpy's baseline dispatch and older BLAS
kernels.  Four small battery configs run in child processes, natively
and then under each setting alone:

- numpy dispatch: the enabled targets above X86_V3 disabled (no
  AVX-512), then X86_V3 as well (the X86_V2 baseline);
- OpenBLAS core type: Haswell, then Sandybridge.

Each CSV prints its largest relative change against the native run
(``check_battery.compare``: absolute where the native cell is 0), and the
exit code is 1 when a change exceeds that file's bound, a text cell or
the row shape differs, or a child fails.  The variables are set only in
the children's environment, each child runs with one BLAS thread, and
the children write only under a temporary directory.  Run it from the
repository root:

    PYTHONPATH=src python3 scripts/check_builds.py
"""
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from check_battery import compare
from run_all import HERE

# (name, command, battery config, overrides): the battery's own configs at
# a size that runs in about a second each
CONFIGS = [
    ("thm2-trig", "thm2", "thm2_trig.json", {"N": 64, "M": 2048}),
    ("thm2-fbm-trig", "thm2", "thm2_fbm_trig.json", {"N": 64, "M": 2048}),
    ("limit-fbm", "limit", "limit_fbm.json", {"N": 128}),
    ("rate-scan-trig", "rate-scan", "rate_scan_trig.json", {"N": 64, "M": 2048}),
]

# Each bound is the largest change of its file over the four settings,
# rounded up to two digits, measured twice with equal results on a 2-core
# Xeon with AVX-512 (numpy 2.4.6 dispatching X86_V3, X86_V4, AVX512_ICL
# and AVX512_SPR; scipy 1.17.1; OpenBLAS 0.3.31, SkylakeX kernels
# natively).  The runs, in the order no AVX-512 / baseline dispatch /
# Haswell / Sandybridge, with the column that moved most:
#   thm2-trig/thm2.csv       0, 0, 3.8e-16 (gap_over_se), 1.14e-15 (gap_over_se)
#   thm2-fbm-trig/thm2.csv   lhs 2.01e-13, 2.03e-13, 3.01e-13, 1.08e-12
#   limit-fbm/limit.csv      0, 0, 0, 0
#   limit-fbm/variance.csv   2.37e-16, 2.37e-16, 0, 0
#   rate-scan-trig/distances.csv, strong.csv   0, 0, 0, 0
#   rate-scan-trig/ratefit.csv   0, 0, 1.13e-13, 1.13e-13 (residual;
#                                slope and intercept in the last digits)
# Sources: np.power and np.exp without AVX-512 (the fBm prefactor
# (t - s) ** (H - 0.5), so the K_H matrix itself differs), the BLAS
# kernels behind the dzdy gemv and the kernel mat-vec, which differ by
# core type, and, for ratefit.csv, np.polyfit's least-squares solve,
# whose LAPACK call runs on the same core-type-dependent BLAS.
BOUNDS = {
    "thm2-trig/thm2.csv": 1.2e-15,
    "thm2-fbm-trig/thm2.csv": 1.1e-12,
    "limit-fbm/limit.csv": 0.0,
    "limit-fbm/variance.csv": 2.4e-16,
    "rate-scan-trig/distances.csv": 0.0,
    "rate-scan-trig/strong.csv": 0.0,
    "rate-scan-trig/ratefit.csv": 1.2e-13,
}
VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def settings():
    """(label, environment) of each emulated build, one variable each."""
    enabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    above_v3 = [f for f in reversed(enabled) if f != "X86_V3"]
    return [
        ("no AVX-512 dispatch",
         {"NPY_DISABLE_CPU_FEATURES": " ".join(above_v3)}),
        ("baseline dispatch",
         {"NPY_DISABLE_CPU_FEATURES": " ".join(above_v3 + ["X86_V3"])}),
        ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
        ("OPENBLAS_CORETYPE=Sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}),
    ]


def run_configs(tmp, label, extra):
    """Run every config in children under one setting; False if one fails."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(extra, OPENBLAS_NUM_THREADS="1")
    good = True
    for name, command, config, overrides in CONFIGS:
        doc = dict(json.loads((HERE / "configs" / config).read_text()),
                   **overrides)
        cfg = tmp / ("%s.json" % name)
        cfg.write_text(json.dumps(doc))
        out = tmp / label / name
        proc = subprocess.run(
            [sys.executable, "-m", "volfluct.cli", command, "--config",
             str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print("%s %s: exit %d\n%s" % (label, name, proc.returncode,
                                          proc.stderr.strip()))
            good = False
    return good


def check(tmp):
    good = run_configs(tmp, "native", {})
    for label, extra in settings():
        print("%s (%s)" % (label, " ".join("%s=%r" % kv for kv in extra.items())))
        good = run_configs(tmp, label, extra) and good
        for path, bound in BOUNDS.items():
            got, want = tmp / label / path, tmp / "native" / path
            if not (got.exists() and want.exists()):
                print("  %-24s missing" % path)
                good = False
                continue
            # every bound is far inside compare's 1e-9 tolerance, so
            # `within` fails only on a text cell or the row shape
            worst, within = compare(got, want)
            ok = within and worst <= bound
            print("  %-24s %.3g (bound %.2g)%s"
                  % (path, worst, bound, "" if ok else "  EXCEEDS BOUND"))
            good = good and ok
    return good


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(0 if check(pathlib.Path(tmp)) else 1)
