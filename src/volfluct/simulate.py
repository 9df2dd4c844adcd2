"""Monte Carlo engines for the small-noise Volterra system.

Brownian increments come from a counter-based generator (Philox): the
increment of path m at step i is a pure function of (seed, m, i), so
growing the batch or re-chunking the work never changes existing paths.

``coupled_terminal_samples`` is the simulation driver.  It takes the
run's deterministic limit x and derivative field D, streams M paths in
fixed 2048-row chunks over the whole eps sweep, and returns X, the
fluctuation X-tilde = (X_eps - x) / eps, the Gaussian limit Y, the
second-order correction Z and the terminal Malliavin pairing of DZ, at
the requested nodes only.  Each chunk's increments are transposed once
to time-major and shared by every engine.  The pairing is one number per
path, so the driver contracts the DZ closed form with D[:, N] into two
weight vectors once per call and never forms the (M, N) DZ rows.  Chunks
run in parallel without affecting any number.

The whole-batch calls run the same engines on one increment batch:

* ``sample_brownian``: the M x N increment table,
* ``simulate_X``: the noisy path X_eps by an explicit Euler rule,
* ``simulate_Y_euler``: Y by the linearized Euler rule,
* ``simulate_Z``: the second-order correction process,
* ``simulate_DZ_terminal``: the terminal Malliavin rows D_theta Z_T.

Every entry point runs one engine per process, time-major: g is
evaluated once per path and step, and the Volterra convolution is
resummed as one mat-vec against a column of the kernel matrix
K[i, j] = k(t_j, s_i*) of a separable preset k(t, s) g(x).  State-only
presets (coefficients that ignore (t, s), k = 1) have no kernel matrix,
and the same engine telescopes the sum into an O(N) recursion.  The
engines read time-major (N, M) increments; each whole-batch call
transposes its batch once.  DZ follows from a closed form.  Each
finished array is scanned once for non-finite values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import special

# the solve_* names are not called here; perfbench/traced.py patches them
# on this module, so they stay importable until that tracer is re-pointed
from .deterministic import (DerivativeField, DivergenceError, LimitPath,  # noqa: F401
                            TimeGrid, _on_path, solve_derivative_field,
                            solve_deterministic_limit)
from .kernels import CoefficientSet

_CHUNK_ROWS = 2048
_U64 = 2 ** 64
# uniforms are u = k 2^-53; the half-ulp shift makes them symmetric in (0, 1),
# so the normal quantile never sees 0 and the population mean is exactly 0
_UNIFORM_OFFSET = 2.0 ** -54


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


def _uniform_block(seed: int, g0: int, count: int) -> np.ndarray:
    """Uniforms for global draw indices [g0, g0 + count), g0 divisible by 4.

    Philox emits 4 uint64 words per counter block and Generator.random
    consumes exactly one word per double, so starting the counter at
    g0 // 4 addresses draw g0 directly.
    """
    if g0 % 4:
        raise ValueError("draw index %d is not a multiple of 4" % g0)
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[g0 // 4, 0, 0, 0])
    return np.random.Generator(bitgen).random(count)


def _increment_rows(seed: int, grid: TimeGrid, m0: int, m1: int) -> np.ndarray:
    """Rows m0:m1 of the increment table; (m, i) <- draw number m*N + i."""
    N = grid.N
    g0 = m0 * N
    g1 = m1 * N
    lo = (g0 // 4) * 4
    u = _uniform_block(seed, lo, g1 - lo)[g0 - lo:]
    z = special.ndtri(u + _UNIFORM_OFFSET)
    return (z * math.sqrt(grid.delta)).reshape(m1 - m0, N)


def _chunks(M: int) -> List[Tuple[int, int]]:
    """Row ranges (m0, m1) of the fixed chunk grid; never depends on threads."""
    return [(m0, min(m0 + _CHUNK_ROWS, M)) for m0 in range(0, M, _CHUNK_ROWS)]


def increment_chunks(seed: int, grid: TimeGrid, M: int) -> Iterator[np.ndarray]:
    """The rows of the M-path increment table, one chunk at a time."""
    for m0, m1 in _chunks(M):
        yield _increment_rows(seed, grid, m0, m1)


def sample_brownian(M: int, grid: TimeGrid, seed: int) -> BrownianBatch:
    """Draw an M-path increment batch addressed purely by (seed, m, i)."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if not 0 <= seed < _U64:
        raise ValueError("seed must fit in 64 bits")
    return BrownianBatch(M=M, grid=grid, seed=seed,
                         increments=_increment_rows(seed, grid, 0, M))


def _volterra(K: Optional[np.ndarray], base: float, dBt: np.ndarray,
              step) -> np.ndarray:
    """V_j = base + sum_{i<j} K[i, j] (drift_i + noise_i), built time-major.

    ``dBt`` is the (N, M) time-major increment block, row i the step-i
    increments of every path.  ``step(i, V_i, dB_i)`` returns the (M,)
    drift and noise of cell i.  Without a kernel (K is None, k = 1) the
    sum telescopes, V_j = V_{j-1} + drift + noise; with one, each node is
    one mat-vec of a contiguous kernel row against the cell increments so
    far.  Returns the (M, N+1) path-major view.
    """
    N, M = dBt.shape
    V = np.empty((N + 1, M))
    V[0] = base
    if K is None:
        for j in range(1, N + 1):
            drift, noise = step(j - 1, V[j - 1], dBt[j - 1])
            np.add(V[j - 1], drift, out=V[j])
            V[j] += noise
        return V.T
    Kt = np.ascontiguousarray(K.T)
    F = np.empty((N, M))
    for j in range(1, N + 1):
        drift, noise = step(j - 1, V[j - 1], dBt[j - 1])
        np.add(drift, noise, out=F[j - 1])
        np.dot(Kt[j, :j], F[:j], out=V[j])
        if base:
            V[j] += base
    return V.T


def _x(c, grid, x0, eps, dBt):
    K, g = c.on_grid(grid)
    t, s, d = grid.nodes, grid.midpoints, grid.delta
    return _volterra(K, x0, dBt, lambda i, Xi, dBi: (g.b(t[i + 1], s[i], Xi) * d,
                                                     eps * g.sigma(t[i + 1], s[i], Xi) * dBi))


def _y(c, grid, xv, dBt):
    K, g = c.on_grid(grid)
    d = grid.delta
    bp = _on_path(g.db, grid, xv)
    sg = _on_path(g.sigma, grid, xv)
    return _volterra(K, 0.0, dBt, lambda i, Yi, dBi: (bp[i] * Yi * d, sg[i] * dBi))


def _z(c, grid, xv, Yv, dBt):
    K, g = c.on_grid(grid)
    d = grid.delta
    bp = _on_path(g.db, grid, xv)
    bpp = _on_path(g.d2b, grid, xv)
    sp2 = 2.0 * _on_path(g.dsigma, grid, xv)
    Yt = np.ascontiguousarray(Yv.T)
    return _volterra(K, 0.0, dBt, lambda i, Zi, dBi: ((bp[i] * Zi + bpp[i] * Yt[i] ** 2) * d,
                                                      sp2[i] * Yt[i] * dBi))


def _diverged(what: str, node: int, path: int) -> DivergenceError:
    return DivergenceError("%s diverged at path %d, node %d" % (what, path, node),
                           node=node, path=path)


def _dz_operator(c, grid, xv, Dmat):
    """The path-free part of the DZ closed form (see ``_dz_terminal``):
    sigma'_k, b''_k, the S-weight ``lead``, the resolvent weight w and the
    upper triangle of D[:, :N] (diagonal seed included)."""
    N, d = grid.N, grid.delta
    K, g = c.on_grid(grid)
    bp = _on_path(g.db, grid, xv)
    if K is None:
        G = np.empty(N + 1)
        G[N] = 1.0
        for k in range(N - 1, -1, -1):
            G[k] = G[k + 1] * (1.0 + d * bp[k])
        lead, w = G[:N], G[1:]
    else:
        r = np.empty(N + 1)
        r[N] = 1.0
        w = np.empty(N)
        for k in range(N - 1, -1, -1):
            w[k] = K[k, k + 1:] @ r[k + 1:]
            r[k] = d * bp[k] * w[k]
        lead = r[:N] * np.diagonal(K, 1) + w
    return (_on_path(g.dsigma, grid, xv), _on_path(g.d2b, grid, xv), lead, w,
            np.triu(Dmat[:, :N]))


def _dz_terminal(c, grid, xv, Yv, Dmat, dBt):
    """Closed form of the terminal Malliavin row D_{theta_i} Z_T.

    Row i solves the linear Volterra equation
      DZ[i, j] = K[i, j] S_i + sum_{i<=k<j} K[k, j] (delta b'_k DZ[i, k]
                 + D[i, k] (2 b''_k Y_k delta + 2 sigma'_k dB_k)),
    seeded DZ[i, i] = K[i, i+1] S_i with S_i = 2 sigma'_i Y_i (primes are
    the state functions g at x_k).  Its b' operator is deterministic: with
    the last resolvent row r_N = 1, r_k = delta b'_k w_k and
    w_k = sum_{m>k} K[k, m] r_m,
      DZ[i, N] = S_i (r_i K[i, i+1] + w_i)
                 + sum_{k>=i} D[i, k] (2 b''_k Y_k delta + 2 sigma'_k dB_k) w_k,
    the k-sum being one matmul against the upper triangle of D (diagonal
    seed included).  Without a kernel w_k = G_{k+1} and the S-weight is
    G_k, with G_k = prod_{l=k}^{N-1} (1 + delta b'_l).  ``dBt`` is the
    time-major (N, M) increment block.
    """
    d = grid.delta
    sp, bpp, lead, w, upper = _dz_operator(c, grid, xv, Dmat)
    # time-major, as the engines return Y; mixing layouts costs a strided pass
    Yt = Yv.T[:grid.N]
    S = 2.0 * sp[:, None] * Yt
    C = (2.0 * d * bpp[:, None] * Yt + 2.0 * sp[:, None] * dBt) * w[:, None]
    DZ = C.T @ upper.T
    DZ += S.T * lead
    if not np.all(np.isfinite(DZ)):
        raise _diverged("DZ", grid.N, int(np.argmax((~np.isfinite(DZ)).any(axis=1))))
    return DZ


def _dzdy_weights(c, grid, xv, Dmat):
    """Weights (a, b) with sum_i DZ[m, i] D[i, N] = Y[m, :N] @ a + dB[m] @ b.

    The closed form of ``_dz_terminal`` contracted with v = D[:, N] before
    any path enters: with u = triu(D[:, :N])^T v,
    a = 2 sigma' lead v + 2 delta b'' w u and b = 2 sigma' w u, so the
    pairing costs two O(M N) gemvs and no (M, N) DZ is formed.
    """
    sp, bpp, lead, w, upper = _dz_operator(c, grid, xv, Dmat)
    v = Dmat[:, grid.N]
    wu = w * (v @ upper)
    return 2.0 * sp * lead * v + 2.0 * grid.delta * bpp * wu, 2.0 * sp * wu


_ENGINES = {"X": _x, "Y": _y, "Z": _z}


def _run(what: str, c: CoefficientSet, *args) -> np.ndarray:
    """Run the one engine of process ``what`` (it telescopes when ``c`` has
    no kernel), then scan the finished (M, N+1) array once: the first
    non-finite node j >= 1, then its first bad path."""
    with np.errstate(over="ignore", invalid="ignore"):
        V = _ENGINES[what](c, *args)
    bad = ~np.isfinite(V[:, 1:])
    if bad.any():
        j = int(np.argmax(bad.any(axis=0))) + 1
        m = int(np.argmax(bad[:, j - 1]))
        raise _diverged(what, j, m)
    return V


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
    values = _run("X", c, grid, float(x0), float(eps),
                  np.ascontiguousarray(batch.increments.T))
    return PathEnsemble(values=values, grid=grid, seed=batch.seed)


def simulate_Y_euler(c: CoefficientSet, grid: TimeGrid, x: LimitPath,
                     batch: BrownianBatch) -> PathEnsemble:
    """Euler paths of the linearized equation
    Y_{t_j} = sum_{i<j} b'(t_j, s_i*, x_i) Y_i delta
                + sum_{i<j} sigma(t_j, s_i*, x_i) dB_i.
    """
    if batch.grid != grid or x.grid != grid:
        raise ValueError("grid mismatch")
    values = _run("Y", c, grid, x.values, np.ascontiguousarray(batch.increments.T))
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
    coupled pathwise to Y through the shared batch.
    """
    if x.grid != grid:
        raise ValueError("grid mismatch")
    _require_coupled(Y, batch)
    values = _run("Z", c, grid, x.values, Y.values,
                  np.ascontiguousarray(batch.increments.T))
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
    return _dz_terminal(c, grid, x.values, Y.values, D.D,
                        np.ascontiguousarray(batch.increments.T))


# ---------------------------------------------------------------------------
# Chunked coupled driver
# ---------------------------------------------------------------------------


def coupled_terminal_samples(c: CoefficientSet, x: LimitPath, D: DerivativeField,
                             epsilons: Sequence[float], M: int, seed: int,
                             observe: Sequence[int] = (),
                             with_dzdy: bool = False,
                             threads: int = 1) -> Dict[str, dict]:
    """Stream M coupled paths of ``c`` in fixed chunks over the whole eps sweep.

    ``x`` and ``D`` are the run's limit path and derivative field of ``c``;
    the grid and x0 are read off ``x``.  Each chunk draws its increments,
    transposes them once to time-major, and solves Y and Z once, X once
    per eps.  Returns "X" and "Xt" = (X - x) / eps keyed by eps then node,
    "Y" and "Z" by node, and "dzdy" (sum_i DZ[m, i] D[i, T] delta, terminal
    node only), a per-path contraction Y[m, :N] @ a + dB[m] @ b against
    weights built once per call, so no (M, N) DZ is formed.  The terminal
    node is always observed.  Every number is independent of ``threads``:
    the chunk grid is fixed and each chunk fills its own rows.  All chunks run
    before a divergence is raised as the whole-batch calls meet it: first
    by stage (X at the first eps, Y, Z, DZ, X at each later eps), then
    node, path.
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
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = _dzdy_weights(c, grid, x.values, D.D)

    def run_chunk(rows: Tuple[int, int]):
        """Fill rows m0:m1; on divergence return (stage, node, path, name)."""
        m0, m1 = rows
        # one transpose per chunk, shared by every engine and the dB gemv
        dBt = np.ascontiguousarray(_increment_rows(seed, grid, m0, m1).T)
        started = []  # stage names, in the order the whole-batch calls meet them
        try:
            for k, eps in enumerate(epsilons):
                started.append("X")
                Xv = _run("X", c, grid, x.x0, float(eps), dBt)
                for j in observe:
                    out["X"][eps][j][m0:m1] = Xv[:, j]
                    out["Xt"][eps][j][m0:m1] = (Xv[:, j] - x.values[j]) / eps
                del Xv
                if k == 0:
                    started.append("Y")
                    Yv = _run("Y", c, grid, x.values, dBt)
                    started.append("Z")
                    Zv = _run("Z", c, grid, x.values, Yv, dBt)
                    for j in observe:
                        out["Y"][j][m0:m1] = Yv[:, j]
                        out["Z"][j][m0:m1] = Zv[:, j]
                    if with_dzdy:
                        started.append("DZ")
                        with np.errstate(over="ignore", invalid="ignore"):
                            dzdy = (a @ Yv.T[:N] + b @ dBt) * grid.delta
                        bad = ~np.isfinite(dzdy)
                        if bad.any():
                            raise _diverged("DZ", N, int(np.argmax(bad)))
                        out["dzdy"][N][m0:m1] = dzdy
        except DivergenceError as exc:
            return len(started), exc.node, m0 + exc.path, started[-1]

    if threads == 1:
        failures = [run_chunk(rows) for rows in _chunks(M)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            failures = list(pool.map(run_chunk, _chunks(M)))
    if any(failures):
        _, node, path, what = min(f for f in failures if f)
        raise _diverged(what, node, path)
    return out
