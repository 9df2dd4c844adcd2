"""Child-process probes for the volfluct benchmark.

    python3 perfbench/probes.py setup  CONFIG   # deterministic set-up
    python3 perfbench/probes.py chunks CONFIG   # one-chunk engine timings
    python3 perfbench/probes.py env             # numerical environment

``setup`` is timed from outside as a whole process: a fresh interpreter
through import, ``load_config`` and the CLI's own deterministic set-up
(``volfluct.cli._prepare``) of the workload.
``chunks`` times one 2048-row chunk of each engine through the public
whole-batch API at the workload's preset and N and, for an fBm preset,
one call each of the kernel-check path's ``fbm_kernel_matrix`` and
``kernel_l2_mass`` at the workload's H.  Every mode prints one JSON line.
"""

import json
import os
import platform
import sys
import time

CHUNK_ROWS = 2048


def setup(config_path):
    from volfluct.cli import _prepare, load_config

    var = _prepare(load_config(config_path))[-1]
    return {"var_T": float(var.values[-1])}


def chunks(config_path):
    from volfluct.cli import _prepare, load_config
    from volfluct.kernels import (fbm_kernel_matrix, fbm_kernel_params,
                                  kernel_l2_mass)
    from volfluct.simulate import (sample_brownian, simulate_DZ_terminal,
                                   simulate_X, simulate_Y_euler, simulate_Z)

    cfg = load_config(config_path)
    coeff, grid, x, D, _ = _prepare(cfg)
    eps = cfg.epsilons[-1]
    sample_brownian(CHUNK_ROWS, grid, cfg.seed)  # first-call warm-up

    def timed(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0

    batch, rng_s = timed(sample_brownian, CHUNK_ROWS, grid, cfg.seed)
    _, x_s = timed(simulate_X, coeff, grid, cfg.x0, eps, batch)
    Y, y_s = timed(simulate_Y_euler, coeff, grid, x, batch)
    _, z_s = timed(simulate_Z, coeff, grid, x, Y, batch)
    _, dz_s = timed(simulate_DZ_terminal, coeff, grid, x, Y, D, batch)
    matrix_s = l2_mass_s = 0.0
    if cfg.H is not None:
        p = fbm_kernel_params(cfg.H)
        _, matrix_s = timed(fbm_kernel_matrix, p, grid)
        _, l2_mass_s = timed(kernel_l2_mass, p, cfg.T)
    return {"simulate.rng_chunk_s": rng_s, "simulate.x_chunk_s": x_s,
            "simulate.y_chunk_s": y_s, "simulate.z_chunk_s": z_s,
            "simulate.dz_chunk_s": dz_s, "kernels.kernel_matrix_s": matrix_s,
            "kernels.l2_mass_s": l2_mass_s}


def env():
    import numpy as np
    import scipy
    import volfluct
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "numpy_cpu_dispatch": [f for f in __cpu_dispatch__
                               if __cpu_features__.get(f)],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "volfluct_path": os.path.dirname(os.path.abspath(volfluct.__file__)),
    }


def main(argv):
    mode = argv[0]
    if mode == "setup":
        doc = setup(argv[1])
    elif mode == "chunks":
        doc = chunks(argv[1])
    elif mode == "env":
        doc = env()
    else:
        raise SystemExit("unknown probe %r" % mode)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
