"""Monte Carlo draws and drivers for the small-noise Volterra system.

Brownian increments come from a counter-based generator (Philox): the
increment of path m at step i is a pure function of (seed, m, i), so
growing the batch or re-chunking the work never changes existing paths.
``_draw`` alone turns the generator into increments, for the driver,
kernel-check and ``sample_brownian`` alike: it draws row blocks of about
512 KiB, applies the offset, the normal quantile and the sqrt(delta)
scale in place, and copies each block straight into a time-major array.
The normal quantile ``scipy.special.ndtri`` is imported at the first
draw and ``concurrent.futures`` only when the driver runs more than one
thread, so importing this module loads neither.

``coupled_terminal_samples`` is the simulation driver.  It takes the
run's deterministic limit x and derivative field (the resolvent R and
per-cell sigma, kick and seed), streams M paths in fixed 2048-row
chunks over the whole eps sweep, and returns X, the fluctuation
X-tilde = (X_eps - x) / eps, the Gaussian limit Y, the second-order
correction Z and the terminal Malliavin pairing of DZ, at the requested
nodes only.  Each chunk is drawn once, into a buffer that every engine
reads.  The engine keeps only the nodes the driver reads: X at each
eps writes its observed nodes into the output columns, and Y and Z run
as one call of two processes, Z's step reading Y_i from the shared
state, so no Y row outlives its step.  The pairing of DZ is one gemv
per chunk, l @ dB, with the vector l of ``deterministic._pairing`` read
off the field once per call; the driver runs no engine outside its
chunks, and the (M, N) DZ rows are never formed.  Each worker thread
keeps one workspace across its chunks, the (N, rows) increment block,
with or without the pairing; on the kernel branch the Y and Z run adds
one (N, rows) cell history per process.  Chunks run in parallel without
affecting any number.

The whole-batch calls run the same engines on one increment batch:
``sample_brownian`` (the M x N increment table, the transpose of one
time-major draw), ``simulate_X`` (X_eps by an explicit Euler rule),
``simulate_Y_euler`` (Y by the linearized Euler rule), ``simulate_Z``
(the second-order correction, with Y run again beside it) and
``simulate_DZ_terminal`` (the terminal Malliavin rows D_theta Z_T, from a
closed form); each keeps every node.

This module draws and drives: X, Y and Z run on the time-major engine
and the steps of ``deterministic``, which holds the equations, the terms
each step leaves out and the first-bad-row rule; each driver stage
reports the engine's (node, path) as it is.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

# the solve_* names are not called here; perfbench/traced.py patches them
# on this module, so they stay importable until that tracer is re-pointed
from .deterministic import (DerivativeField, DivergenceError, LimitPath,  # noqa: F401
                            TimeGrid, _dz_weights, _pairing, _volterra, _x, _y, _z,
                            solve_derivative_field, solve_deterministic_limit)
from .kernels import CoefficientSet

_CHUNK_ROWS = 2048
# the driver draws each chunk in row blocks of about 512 KiB (256 rows at
# N = 256) and copies each straight to time-major
_RNG_BLOCK_BYTES = 2 ** 19
_U64 = 2 ** 64
# uniforms are u = k 2^-53; the half-ulp shift makes them symmetric in (0, 1),
# so the normal quantile never sees 0 and the population mean is exactly 0
_UNIFORM_OFFSET = 2.0 ** -54
# the scheme of _increment_rows, as manifest.json records it
_RNG_SCHEME = ("Philox keyed by the seed; increment (m, i) is ndtri(u + 2^-54) "
              "* sqrt(delta), u = k 2^-53 from draw m*N + i")


@dataclass(frozen=True)
class BrownianBatch:
    """M x N table of Normal(0, delta) increments, counter-addressed."""

    M: int
    grid: TimeGrid
    seed: int
    increments: np.ndarray


@dataclass(frozen=True)
class PathEnsemble:
    """M paths of one process at the N+1 grid nodes, driven by the batch
    of ``seed``."""

    values: np.ndarray
    grid: TimeGrid
    seed: int


def _increment_rows(seed: int, grid: TimeGrid, m0: int, m1: int) -> np.ndarray:
    """Rows m0:m1 of the increment table; (m, i) <- draw number m*N + i.

    Philox emits 4 uint64 words per counter block and Generator.random
    consumes exactly one word per double, so a counter started at block
    m0*N // 4 addresses draw m0*N after at most 3 skipped words.
    """
    from scipy.special import ndtri

    N = grid.N
    g0 = m0 * N
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[g0 // 4, 0, 0, 0])
    # offset, normal quantile and scale in place: one allocation per call
    z = np.random.Generator(bitgen).random(m1 * N - g0 // 4 * 4)[g0 % 4:]
    z += _UNIFORM_OFFSET
    ndtri(z, out=z)
    z *= math.sqrt(grid.delta)
    return z.reshape(m1 - m0, N)


def _chunks(M: int) -> List[Tuple[int, int]]:
    """Row ranges (m0, m1) of the fixed chunk grid; never depends on threads."""
    return [(m0, min(m0 + _CHUNK_ROWS, M)) for m0 in range(0, M, _CHUNK_ROWS)]


def _row_blocks(N: int, m0: int, m1: int) -> List[Tuple[int, int]]:
    """Row ranges of the RNG calls that draw chunk rows m0:m1."""
    rows = max(1, _RNG_BLOCK_BYTES // (8 * N))
    return [(r, min(r + rows, m1)) for r in range(m0, m1, rows)]


def _draw(seed: int, grid: TimeGrid, m0: int, m1: int, out: np.ndarray) -> np.ndarray:
    """Increment rows m0:m1, time-major, into the (N, m1 - m0) array ``out``:
    one ``_increment_rows`` call per row block, each copied straight in.
    Every Monte Carlo consumer draws through here."""
    for r0, r1 in _row_blocks(grid.N, m0, m1):
        out[:, r0 - m0:r1 - m0] = _increment_rows(seed, grid, r0, r1).T
    return out


def sample_brownian(M: int, grid: TimeGrid, seed: int) -> BrownianBatch:
    """Draw an M-path increment batch addressed purely by (seed, m, i)."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if not 0 <= seed < _U64:
        raise ValueError("seed must fit in 64 bits")
    return BrownianBatch(M=M, grid=grid, seed=seed,
                         increments=_draw(seed, grid, 0, M, np.empty((grid.N, M))).T)


def _diverged(what: str, node: int, path: int) -> DivergenceError:
    return DivergenceError("%s diverged at path %d, node %d" % (what, path, node),
                           node=node, path=path)


def _paths(what: str, K, base: float, dBt: np.ndarray, steps: list) -> np.ndarray:
    """The (M, N+1) paths of ``what``, the last of the coupled processes
    ``steps`` run on the kernel ``K`` and the increments ``dBt``; a
    non-finite value raises at its first node, then its first path."""
    N, M = dBt.shape
    V = np.empty((N + 1, M))
    bad = _volterra(K, base, dBt, steps, [{}] * (len(steps) - 1) + [dict(enumerate(V))])[-1]
    if bad:
        raise _diverged(what, *bad)
    return V.T


def simulate_X(c: CoefficientSet, grid: TimeGrid, x0: float, eps: float,
               batch: BrownianBatch) -> PathEnsemble:
    """Euler paths of
    X_{t_j} = x0 + sum_{i<j} b(t_j, s_i*, X_i) delta
                 + eps sum_{i<j} sigma(t_j, s_i*, X_i) dB_i.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if batch.grid != grid:
        raise ValueError("batch grid mismatch")
    dBt = np.ascontiguousarray(batch.increments.T)
    values = _paths("X", c.on_grid(grid), float(x0), dBt, [_x(c, grid, float(eps))])
    return PathEnsemble(values=values, grid=grid, seed=batch.seed)


def simulate_Y_euler(c: CoefficientSet, grid: TimeGrid, x: LimitPath,
                     batch: BrownianBatch) -> PathEnsemble:
    """Euler paths of the linearized equation
    Y_{t_j} = sum_{i<j} b'(t_j, s_i*, x_i) Y_i delta
                + sum_{i<j} sigma(t_j, s_i*, x_i) dB_i.
    """
    if batch.grid != grid or x.grid != grid:
        raise ValueError("grid mismatch")
    dBt = np.ascontiguousarray(batch.increments.T)
    values = _paths("Y", c.on_grid(grid), 0.0, dBt, [_y(c, grid, x.values)])
    return PathEnsemble(values=values, grid=grid, seed=batch.seed)


def _require_coupled(Y: PathEnsemble, batch: BrownianBatch):
    if Y.grid != batch.grid:
        raise ValueError("grid mismatch")
    if Y.seed != batch.seed or Y.values.shape[0] != batch.M:
        raise ValueError("Y must be simulated from the same batch (coupling)")


def simulate_Z(c: CoefficientSet, grid: TimeGrid, x: LimitPath, Y: PathEnsemble,
               batch: BrownianBatch) -> PathEnsemble:
    """Euler paths of the correction process
    Z_{t_j} = sum_{i<j} [b'(t_j, s_i*, x_i) Z_i + b''(t_j, s_i*, x_i) Y_i^2] delta
                + 2 sum_{i<j} sigma'(t_j, s_i*, x_i) Y_i dB_i,
    coupled pathwise to Y through the shared batch: Y runs again beside Z
    on that batch, so for a Y that ``simulate_Y_euler`` made from the same
    coefficients and x, Z's step reads the given Y bit for bit.
    """
    if x.grid != grid:
        raise ValueError("grid mismatch")
    _require_coupled(Y, batch)
    dBt = np.ascontiguousarray(batch.increments.T)
    values = _paths("Z", c.on_grid(grid), 0.0, dBt, [_y(c, grid, x.values), _z(c, grid, x.values)])
    return PathEnsemble(values=values, grid=grid, seed=batch.seed)


def simulate_DZ_terminal(c: CoefficientSet, grid: TimeGrid, x: LimitPath,
                         Y: PathEnsemble, D: DerivativeField,
                         batch: BrownianBatch) -> np.ndarray:
    """Terminal Malliavin rows DZ[m, i] of the correction process:
    D_theta Z_T = 2 sigma'(T, theta*, x_theta) Y_theta
                  + int_theta^T b' D_theta Z_s ds
                  + int_theta^T 2 b'' Y_s D_theta Y_s ds
                  + 2 int_theta^T sigma' D_theta Y_s dB_s,
    with the deterministic field D_theta Y_s supplied by ``D``; an (M, N)
    array, row m for path m, column i for theta_i*.
    """
    if x.grid != grid or D.grid != grid:
        raise ValueError("grid mismatch")
    _require_coupled(Y, batch)
    a, b = _dz_weights(c, grid, x.values, D, np.eye(grid.N))  # the closed form at V = I
    with np.errstate(over="ignore", invalid="ignore"):
        DZ = Y.values[:, :grid.N] @ a.T
        DZ += batch.increments @ b.T
    if not np.all(np.isfinite(DZ)):
        raise _diverged("DZ", grid.N, int(np.argmax((~np.isfinite(DZ)).any(axis=1))))
    return DZ


# ---------------------------------------------------------------------------
# Chunked coupled driver
# ---------------------------------------------------------------------------


def coupled_terminal_samples(c: CoefficientSet, x: LimitPath, D: DerivativeField,
                             epsilons: Sequence[float], M: int, seed: int,
                             observe: Sequence[int] = (),
                             with_dzdy: bool = False,
                             threads: int = 1) -> Dict[str, dict]:
    """Stream M coupled paths of ``c`` in fixed chunks over the whole eps sweep.

    ``x`` and ``D`` are the run's limit path and derivative field of ``c``
    (the resolvent R and the per-cell sigma, kick and seed); the grid and
    x0 are read off ``x``.  Each chunk draws its increments straight into
    time-major, solves X once per eps and Y and Z once, keeping only the
    observed nodes; Y and Z are one engine run of two processes, Z's step
    reading Y from the shared state.  Returns "X" and
    "Xt" = (X - x) / eps keyed by eps then node, "Y" and "Z" by node, and
    "dzdy" (sum_i DZ[m, i] D[i, T] delta, terminal node only), the
    per-path product l @ dB[m] with the pairing vector l of ``_pairing``,
    read off the field once per call: one gemv per chunk, so the driver
    runs no derivative solve and forms neither the (M, N) DZ nor a chunk's
    Y rows.  Each worker's workspace is its (N, rows) increment block, plus
    one (N, rows) cell history each for Y and Z on the kernel branch.  The
    terminal node is always observed.  Every number is independent of
    ``threads``: the chunk grid is fixed and each chunk fills its own
    rows.  All chunks run before a divergence is raised as the
    whole-batch calls meet it: first by stage (X at the first eps, Y, Z,
    DZ, X at each later eps), then node, path.  Each engine stage reports
    its first bad node and path itself, so locating a divergence forms no
    whole-path array.
    """
    grid = x.grid
    if D.grid != grid:
        raise ValueError("derivative field and limit path live on different grids")
    if M < 1:
        raise ValueError("M must be at least 1")
    if not epsilons or not all(0.0 < e < 1.0 for e in epsilons):
        raise ValueError("epsilons must be non-empty and lie in (0, 1)")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    observe = sorted(set(int(j) for j in observe) | {grid.N})
    if observe[0] < 1 or observe[-1] > grid.N:
        raise ValueError("observation nodes must lie in [1, N]")
    N = grid.N

    def columns():
        return {j: np.empty(M) for j in observe}

    out: Dict[str, dict] = {"X": {e: columns() for e in epsilons},
                            "Xt": {e: columns() for e in epsilons},
                            "Y": columns(), "Z": columns()}
    if with_dzdy:
        out["dzdy"] = {N: np.empty(M)}
        ell = _pairing(c, grid, x.values, D)

    width = min(M, _CHUNK_ROWS)
    local = threading.local()
    K = c.on_grid(grid)
    yz = [_y(c, grid, x.values), _z(c, grid, x.values)]

    def kept(process: dict, m0: int, m1: int) -> Dict[int, np.ndarray]:
        return {j: process[j][m0:m1] for j in observe}

    def stages(m0: int, m1: int, dBt: np.ndarray):
        """(name, bad) per stage of rows m0:m1, in the order the whole-batch
        calls meet them, ``bad`` the engine's chunk-relative (node, path)
        or None; a stage's outputs are filled as its successor is asked for."""
        for k, eps in enumerate(epsilons):
            Xk = kept(out["X"][eps], m0, m1)
            yield "X", _volterra(K, x.x0, dBt, [_x(c, grid, float(eps))], [Xk])[0]
            for j, Xj in Xk.items():
                Xt = out["Xt"][eps][j][m0:m1]
                np.subtract(Xj, x.values[j], out=Xt)
                Xt /= eps
            if k == 0:
                # one run of the pair: Z's step i reads Y_i from the state
                y_bad, z_bad = _volterra(K, 0.0, dBt, yz, [kept(out["Y"], m0, m1),
                                                           kept(out["Z"], m0, m1)])
                yield "Y", y_bad
                yield "Z", z_bad
                if with_dzdy:
                    with np.errstate(over="ignore", invalid="ignore"):
                        dzdy = (ell @ dBt) * grid.delta
                    ok = np.isfinite(dzdy)
                    yield "DZ", None if ok.all() else (N, int(np.argmin(ok)))
                    out["dzdy"][N][m0:m1] = dzdy

    def run_chunk(rows: Tuple[int, int]):
        """Fill rows m0:m1; return the chunk's first divergence as
        (stage, node, path, name), or None."""
        m0, m1 = rows
        if not hasattr(local, "dBt"):  # this worker's workspace, kept across chunks
            local.dBt = np.empty((N, width))
        # one time-major draw per chunk, shared by every engine and the pairing
        dBt = _draw(seed, grid, m0, m1, local.dBt[:, :m1 - m0])
        for stage, (name, bad) in enumerate(stages(m0, m1, dBt)):
            if bad:
                return stage, bad[0], m0 + bad[1], name
        return None

    if threads == 1:
        failures = [run_chunk(rows) for rows in _chunks(M)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            failures = list(pool.map(run_chunk, _chunks(M)))
    if any(failures):
        _, node, path, what = min(f for f in failures if f)
        raise _diverged(what, node, path)
    return out
