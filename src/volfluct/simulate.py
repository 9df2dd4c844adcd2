"""Monte Carlo engines for the small-noise Volterra system.

Brownian increments come from a counter-based generator (Philox): the
increment of path m at step i is a pure function of (seed, m, i), so
growing the batch or re-chunking the work never changes existing paths.

Simulated processes, all coupled through one increment batch:

* ``simulate_X``: the noisy path X_eps by an explicit Euler rule,
* ``fluctuation``: X-tilde = (X_eps - x) / eps,
* ``simulate_Y_euler``: the Gaussian limit Y by the linearized Euler rule,
* ``simulate_Y_exact``: Y synthesized exactly from the derivative field
  (Y_t = sum_i D[i, t] dB_i, Gaussian on the grid by construction),
* ``simulate_Z``: the second-order correction process,
* ``simulate_DZ_terminal``: the terminal Malliavin row D_theta Z_T.

Two engine families share every entry point.  State-only presets
(coefficients that ignore (t, s)) run O(N) telescoped recursions per
path.  Separable presets k(t, s) g(x) evaluate g once per path and step
and resum the Volterra convolution as one mat-vec against a column of
the kernel matrix K[i, j] = k(t_j, s_i*), in a time-major layout; DZ
follows from a closed form in both families.  Each finished array is
scanned once for non-finite values.

``coupled_terminal_samples`` is the chunked driver used for large M: one
pass covers the whole eps sweep, keeps only the requested observation
columns, and parallelizes across chunks without affecting results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np
from scipy import special

from .deterministic import (DerivativeField, DivergenceError, LimitPath,
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
    """M paths of one process at the N+1 grid nodes."""

    values: np.ndarray
    grid: TimeGrid
    kind: str  # "X", "Xt", "Y", "Z"
    preset: str
    seed: int
    eps: Optional[float] = None


@dataclass(frozen=True)
class DerivativeRowEnsemble:
    """DZ[m, i] ~ D_{theta_i*} Z_T per path."""

    DZ: np.ndarray
    grid: TimeGrid
    preset: str
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


def sample_brownian(M: int, grid: TimeGrid, seed: int) -> BrownianBatch:
    """Draw an M-path increment batch addressed purely by (seed, m, i)."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if not 0 <= seed < _U64:
        raise ValueError("seed must fit in 64 bits")
    return BrownianBatch(M=M, grid=grid, seed=seed,
                         increments=_increment_rows(seed, grid, 0, M))


def _x_state_only(c, grid, x0, eps, dB):
    M, N = dB.shape
    nodes = grid.nodes
    mids = grid.midpoints
    d = grid.delta
    X = np.empty((M, N + 1))
    X[:, 0] = x0
    cur = np.full(M, float(x0))
    for i in range(N):
        bv = np.asarray(c.b(nodes[i + 1], mids[i], cur), dtype=float)
        sv = np.asarray(c.sigma(nodes[i + 1], mids[i], cur), dtype=float)
        cur = cur + bv * d + eps * sv * dB[:, i]
        X[:, i + 1] = cur
    return X


def _y_state_only(c, grid, xv, dB):
    M, N = dB.shape
    d = grid.delta
    bp = _on_path(c.db, grid, xv)
    sg = _on_path(c.sigma, grid, xv)
    Y = np.empty((M, N + 1))
    Y[:, 0] = 0.0
    cur = np.zeros(M)
    for i in range(N):
        cur = cur + bp[i] * cur * d + sg[i] * dB[:, i]
        Y[:, i + 1] = cur
    return Y


def _z_state_only(c, grid, xv, Yv, dB):
    M, N = dB.shape
    d = grid.delta
    bp = _on_path(c.db, grid, xv)
    bpp = _on_path(c.d2b, grid, xv)
    sp = _on_path(c.dsigma, grid, xv)
    Z = np.empty((M, N + 1))
    Z[:, 0] = 0.0
    cur = np.zeros(M)
    for i in range(N):
        cur = cur + (bp[i] * cur + bpp[i] * Yv[:, i] ** 2) * d \
            + 2.0 * sp[i] * Yv[:, i] * dB[:, i]
        Z[:, i + 1] = cur
    return Z


def _volterra(K: np.ndarray, base: float, dB: np.ndarray, step) -> np.ndarray:
    """V_j = base + sum_{i<j} K[i, j] step(i, V_i, dB_i), built time-major.

    ``step`` returns the (M,) increment of cell i; each node is one
    mat-vec of a contiguous kernel row against the increments so far.
    Returns the (M, N+1) path-major view.
    """
    M, N = dB.shape
    Kt = np.ascontiguousarray(K.T)
    dBt = np.ascontiguousarray(dB.T)
    V = np.empty((N + 1, M))
    F = np.empty((N, M))
    V[0] = base
    for j in range(1, N + 1):
        F[j - 1] = step(j - 1, V[j - 1], dBt[j - 1])
        np.dot(Kt[j, :j], F[:j], out=V[j])
        if base:
            V[j] += base
    return V.T


def _x_kernel(c, grid, x0, eps, dB):
    K, g = c.on_grid(grid)
    t, s, d = grid.nodes, grid.midpoints, grid.delta
    return _volterra(K, x0, dB, lambda i, Xi, dBi: g.b(t[i + 1], s[i], Xi) * d
                     + eps * g.sigma(t[i + 1], s[i], Xi) * dBi)


def _y_kernel(c, grid, xv, dB):
    K, g = c.on_grid(grid)
    bpd = _on_path(g.db, grid, xv) * grid.delta
    sg = _on_path(g.sigma, grid, xv)
    return _volterra(K, 0.0, dB, lambda i, Yi, dBi: bpd[i] * Yi + sg[i] * dBi)


def _z_kernel(c, grid, xv, Yv, dB):
    K, g = c.on_grid(grid)
    d = grid.delta
    bp = _on_path(g.db, grid, xv)
    bpp = _on_path(g.d2b, grid, xv)
    sp2 = 2.0 * _on_path(g.dsigma, grid, xv)
    Yt = np.ascontiguousarray(Yv.T)
    return _volterra(K, 0.0, dB, lambda i, Zi, dBi: (bp[i] * Zi + bpp[i] * Yt[i] ** 2) * d
                     + sp2[i] * Yt[i] * dBi)


def _diverged(what: str, node: int, path: int) -> DivergenceError:
    return DivergenceError("%s diverged at path %d, node %d" % (what, path, node),
                           node=node, path=path)


def _dz_terminal(c, grid, xv, Yv, Dmat, dB):
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
    G_k, with G_k = prod_{l=k}^{N-1} (1 + delta b'_l).
    """
    M, N = dB.shape
    d = grid.delta
    K, g = c.on_grid(grid)
    bp = _on_path(g.db, grid, xv)
    bpp = _on_path(g.d2b, grid, xv)
    sp = _on_path(g.dsigma, grid, xv)
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
    upper = np.triu(Dmat[:, :N])  # D[i, k], k >= i, diagonal seed included
    S = 2.0 * sp[None, :] * Yv[:, :N]
    C = (2.0 * d * bpp[None, :] * Yv[:, :N] + 2.0 * sp[None, :] * dB) * w[None, :]
    DZ = S * lead[None, :] + C @ upper.T
    if not np.all(np.isfinite(DZ)):
        raise _diverged("DZ", N, int(np.argmax((~np.isfinite(DZ)).any(axis=1))))
    return DZ


_ENGINES = {"X": (_x_state_only, _x_kernel), "Y": (_y_state_only, _y_kernel),
            "Z": (_z_state_only, _z_kernel)}


def _run(what: str, c: CoefficientSet, *args) -> np.ndarray:
    """Run the engine family of ``c``, then scan the finished (M, N+1)
    array once: the first non-finite node j >= 1, then its first bad path."""
    with np.errstate(over="ignore", invalid="ignore"):
        V = _ENGINES[what][c.time_dependent](c, *args)
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
    values = _run("X", c, grid, float(x0), float(eps), batch.increments)
    return PathEnsemble(values=values, grid=grid, kind="X", preset=c.name,
                        seed=batch.seed, eps=eps)


def fluctuation(X: PathEnsemble, x: LimitPath, eps: float) -> PathEnsemble:
    """X-tilde = (X - x) / eps, pathwise on the common grid."""
    if eps == 0.0:
        raise ValueError("eps must be nonzero")
    if X.grid != x.grid:
        raise ValueError("grid mismatch between ensemble and limit path")
    values = (X.values - x.values[None, :]) / eps
    return PathEnsemble(values=values, grid=X.grid, kind="Xt", preset=X.preset,
                        seed=X.seed, eps=eps)


def simulate_Y_exact(D: DerivativeField, batch: BrownianBatch) -> PathEnsemble:
    """Clark-Ocone synthesis Y_{t_j} = sum_{i<j} D[i, j] dB_i.

    Exactly Gaussian on the grid with variance sum_{i<j} D[i, j]^2 delta.
    """
    if D.grid != batch.grid:
        raise ValueError("derivative field and batch live on different grids")
    values = batch.increments @ np.triu(D.D, 1)
    return PathEnsemble(values=values, grid=D.grid, kind="Y", preset=D.preset,
                        seed=batch.seed)


def simulate_Y_euler(c: CoefficientSet, grid: TimeGrid, x: LimitPath,
                     batch: BrownianBatch) -> PathEnsemble:
    """Euler paths of the linearized equation
    Y_{t_j} = sum_{i<j} b'(t_j, s_i*, x_i) Y_i delta
                + sum_{i<j} sigma(t_j, s_i*, x_i) dB_i.
    """
    if batch.grid != grid or x.grid != grid:
        raise ValueError("grid mismatch")
    values = _run("Y", c, grid, x.values, batch.increments)
    return PathEnsemble(values=values, grid=grid, kind="Y", preset=c.name,
                        seed=batch.seed)


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
    values = _run("Z", c, grid, x.values, Y.values, batch.increments)
    return PathEnsemble(values=values, grid=grid, kind="Z", preset=c.name,
                        seed=batch.seed)


def simulate_DZ_terminal(c: CoefficientSet, grid: TimeGrid, x: LimitPath,
                         Y: PathEnsemble, D: DerivativeField,
                         batch: BrownianBatch) -> DerivativeRowEnsemble:
    """Terminal Malliavin row of the correction process:
    D_theta Z_T = 2 sigma'(T, theta*, x_theta) Y_theta
                  + int_theta^T b' D_theta Z_s ds
                  + int_theta^T 2 b'' Y_s D_theta Y_s ds
                  + 2 int_theta^T sigma' D_theta Y_s dB_s,
    with the deterministic field D_theta Y_s supplied by ``D``.
    """
    if x.grid != grid or D.grid != grid:
        raise ValueError("grid mismatch")
    _require_coupled(Y, batch)
    DZ = _dz_terminal(c, grid, x.values, Y.values, D.D, batch.increments)
    return DerivativeRowEnsemble(DZ=DZ, grid=grid, preset=c.name, seed=batch.seed)


# ---------------------------------------------------------------------------
# Chunked coupled driver
# ---------------------------------------------------------------------------


def coupled_terminal_samples(c: CoefficientSet, grid: TimeGrid, x0: float,
                             epsilons: Sequence[float], M: int, seed: int,
                             observe: Sequence[int] = (),
                             with_dzdy: bool = False,
                             threads: int = 1) -> Dict[str, dict]:
    """Stream M coupled paths in fixed chunks over the whole eps sweep.

    Each chunk draws its increments and solves Y, Z and DZ once, X once
    per eps.  Returns "X" and "Xt" keyed by eps then node, "Y" and "Z" by
    node, and "dzdy" (sum_i DZ[m, i] D[i, T] delta, terminal node only).
    Every number is independent of ``threads``: chunk boundaries are
    fixed and each chunk fills its own rows.  All chunks run before a
    divergence is raised as the whole-batch calls meet it: first by stage
    (X at the first eps, Y, Z, DZ, X at each later eps), then node, path.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    if not epsilons or not all(0.0 < e < 1.0 for e in epsilons):
        raise ValueError("epsilons must be non-empty and lie in (0, 1)")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    observe = sorted(set(int(j) for j in observe) | {grid.N})
    if observe[0] < 1:
        raise ValueError("observation nodes must be >= 1")
    N = grid.N

    x = solve_deterministic_limit(c, grid, x0)
    D = solve_derivative_field(c, grid, x)

    def columns():
        return {j: np.empty(M) for j in observe}

    out: Dict[str, dict] = {"X": {e: columns() for e in epsilons},
                            "Xt": {e: columns() for e in epsilons},
                            "Y": columns(), "Z": columns()}
    if with_dzdy:
        out["dzdy"] = {N: np.empty(M)}

    def run_chunk(m0: int):
        """Fill rows m0:m1; on divergence return (stage, node, path, name)."""
        m1 = min(m0 + _CHUNK_ROWS, M)
        dB = _increment_rows(seed, grid, m0, m1)
        started = []  # stage names, in the order the whole-batch calls meet them
        try:
            for k, eps in enumerate(epsilons):
                started.append("X")
                Xv = _run("X", c, grid, float(x0), float(eps), dB)
                for j in observe:
                    out["X"][eps][j][m0:m1] = Xv[:, j]
                    out["Xt"][eps][j][m0:m1] = (Xv[:, j] - x.values[j]) / eps
                del Xv
                if k == 0:
                    started.append("Y")
                    Yv = _run("Y", c, grid, x.values, dB)
                    started.append("Z")
                    Zv = _run("Z", c, grid, x.values, Yv, dB)
                    for j in observe:
                        out["Y"][j][m0:m1] = Yv[:, j]
                        out["Z"][j][m0:m1] = Zv[:, j]
                    if with_dzdy:
                        started.append("DZ")
                        out["dzdy"][N][m0:m1] = (_dz_terminal(
                            c, grid, x.values, Yv, D.D, dB) @ D.D[:, N]) * grid.delta
        except DivergenceError as exc:
            return len(started), exc.node, m0 + exc.path, started[-1]

    starts = list(range(0, M, _CHUNK_ROWS))
    if threads == 1:
        failures = [run_chunk(m0) for m0 in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            failures = list(pool.map(run_chunk, starts))
    if any(failures):
        _, node, path, what = min(f for f in failures if f)
        raise _diverged(what, node, path)
    return out
