"""Deterministic Volterra solvers and the Volterra engine.

Computes the zero-noise limit path x_t, the derivative field
D_theta Y_t of the Gaussian fluctuation limit as its resolvent R and
per-cell vectors, and the variance profile Var(Y_t) obtained as the
squared L2 norm of a derivative row.

x, R and the processes X, Y and Z of ``simulate`` all run on the one
Volterra engine ``_volterra`` defined here: x as one noiseless path, R as
the Y step with unit noise on unit increments, one path per theta-cell.
R gives D (cell i scaled by its forcing sigma_i kick_i, the seed on the
diagonal), the Euler tangent of Y and the DZ weight that ``simulate``
pairs with, so no dense D is formed.  The first non-finite node j >= 1,
then the first path in it, names where a run blew up; ``_Kept`` is the
one place that finds it, reading the engine's rows (or D's node rows) as
it copies the nodes its caller keeps.

All solvers share one discretization: explicit (left-point) rule in the
state argument, kernel arguments evaluated at cell midpoints
s_k* = s_k + delta/2, which keeps fractional kernels away from their
s = t singularity.  No interpolation happens between nodes; downstream
consumers operate on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .kernels import CoefficientSet

_MAX_STEPS = 4096


class DivergenceError(RuntimeError):
    """A solve produced a non-finite value.

    ``node`` is the first bad grid index; ``path`` the first bad Monte
    Carlo path where applicable.
    """

    def __init__(self, message: str, node: int = -1, path: int = -1):
        super().__init__(message)
        self.node = node
        self.path = path


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * delta, j = 0..N, with delta = T / N."""

    T: float
    N: int

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.N > _MAX_STEPS:
            # the derivative field keeps one dense (N+1) x N array, R
            raise ValueError("N is capped at %d" % _MAX_STEPS)

    @property
    def delta(self) -> float:
        return self.T / self.N

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)

    @cached_property
    def midpoints(self) -> np.ndarray:
        return self.nodes[:-1] + 0.5 * self.delta


@dataclass(frozen=True)
class LimitPath:
    """x_{t_j} at the N+1 grid nodes."""

    values: np.ndarray
    grid: TimeGrid

    @property
    def x0(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True)
class DerivativeField:
    """D[i, j] ~ D_{theta_i*} Y_{t_j}, held as the resolvent R and three
    per-cell vectors; no dense D is stored.

    R[j, i], an (N+1, N) array, is the response of the b'-linearized
    engine at node j to a unit forcing in cell i (zero for j <= i).  Above
    the diagonal D[i, j] = R[j, i] sigma_i kick_i, with sigma on the limit
    path and the k = i term kick = 1 + delta b' K[i, i+1] (K = 1 without a
    kernel); D[i, i] is the seed sigma K[i, i+1], and D is zero below it.
    The Euler tangent of Y is C = R diag(sigma); R[N] is the DZ weight w.
    """

    grid: TimeGrid
    R: np.ndarray
    sigma: np.ndarray
    kick: np.ndarray
    seed: np.ndarray


@dataclass(frozen=True)
class VariancePath:
    """Var(Y_{t_j}) at the N+1 grid nodes."""

    values: np.ndarray
    grid: TimeGrid


def _on_path(f, grid: TimeGrid, xv: np.ndarray) -> np.ndarray:
    """State function f at x_k, k = 0..N-1 (its (t, s) arguments are ignored)."""
    return np.broadcast_to(np.asarray(f(grid.nodes[1:], grid.midpoints, xv[:-1]),
                                      dtype=float), (grid.N,))


def _volterra(K: Optional[np.ndarray], base: float, dBt: np.ndarray,
              step) -> Iterator[np.ndarray]:
    """Yield V_j = base + sum_{i<j} K[i, j] (drift_i + noise_i), j = 0..N,
    one (M,) time-major row per node.

    ``dBt`` is the (N, M) time-major increment block, row i the step-i
    increments of every path.  ``step(i, V_i, dB_i)`` returns the (M,)
    drift and noise of cell i.  Without a kernel (K is None, k = 1) the
    sum telescopes, V_j = V_{j-1} + drift + noise, in one row updated in
    place, so a non-finite value persists to V_N; with one, each node is
    one mat-vec of a contiguous kernel row against the cell increments so
    far, and a non-finite V_j need not reach later nodes.  Each yielded row
    is overwritten by the next, so a caller copies the nodes it keeps.
    """
    N, M = dBt.shape
    V = np.empty(M)
    V[...] = base
    yield V
    if K is None:
        for i in range(N):
            drift, noise = step(i, V, dBt[i])
            V += drift
            V += noise
            yield V
        return
    Kt = np.ascontiguousarray(K.T)
    F = np.empty((N, M))
    for i in range(N):
        drift, noise = step(i, V, dBt[i])
        np.add(drift, noise, out=F[i])
        np.dot(Kt[i + 1, :i + 1], F[:i + 1], out=V)
        if base:
            V += base
        yield V


class _Kept:
    """The one reader of an engine run's node rows: it keeps some of them
    and checks them for non-finite values.

    Row j is copied into ``sinks[j]``, when the run keeps it, before it is
    passed on; a row that is neither kept nor checked passes straight on.
    ``bad`` is (node, path) of the first non-finite entry of
    the first non-finite checked row j >= 1, or None: the checked rows are
    the kept ones, which include the terminal node, where a non-finite
    value of the telescoping recursion always arrives, or every row when
    ``every`` (the kernel branch, where it need not).
    """

    def __init__(self, rows: Iterator[np.ndarray], sinks: Dict[int, np.ndarray],
                 every: bool):
        self._rows = enumerate(rows)
        self._sinks = sinks
        self._every = every
        self.bad: Optional[Tuple[int, int]] = None

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        j, V = next(self._rows)
        dst = self._sinks.get(j)
        if dst is not None:
            dst[...] = V
        elif not self._every:
            return V  # neither kept nor checked
        if self.bad is None and j:
            ok = np.isfinite(V)
            if not ok.all():
                self.bad = j, int(np.argmin(ok))
        return V

    def drain(self) -> Optional[Tuple[int, int]]:
        """Run to the last node and return ``bad``.  Overflow in the engine
        is expected on a diverging run and reported through ``bad``."""
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in self:
                pass
        return self.bad


def _paths(rows: Iterator[np.ndarray], shape: Tuple[int, int]):
    """Every node of an engine run on (N, M) increments, checking each:
    the (M, N+1) path-major view of a C-contiguous (N+1, M) array, and the
    first bad (node, path) or None."""
    N, M = shape
    V = np.empty((N + 1, M))
    bad = _Kept(rows, dict(enumerate(V)), True).drain()
    return V.T, bad


def _node_diverged(what: str, grid: TimeGrid, bad: Tuple[int, int]) -> DivergenceError:
    """A deterministic solve's divergence, named by its first bad node."""
    j = bad[0]
    return DivergenceError("%s diverged at node %d (t=%.6g)" % (what, j, grid.nodes[j]),
                           node=j)


def solve_deterministic_limit(c: CoefficientSet, grid: TimeGrid, x0: float) -> LimitPath:
    """Solve x_t = x0 + int_0^t b(t, s, x_s) ds at first order:

    x_{t_j} = x0 + sum_{i<j} b(t_j, s_i*, x_{t_i}) delta,

    as one noiseless path of the engine that runs X.  Without a kernel the
    sum telescopes with X's update order, so a zero-diffusion simulation
    reproduces this path bit for bit.  A non-finite value raises at its
    first node.
    """
    K = c.on_grid(grid)
    t, s, d = grid.nodes, grid.midpoints, grid.delta
    V, bad = _paths(_volterra(K, float(x0), np.zeros((grid.N, 1)),
                              lambda i, xi, _: (c.b(t[i + 1], s[i], xi) * d, 0.0)),
                    (grid.N, 1))
    if bad:
        raise _node_diverged("limit path", grid, bad)
    return LimitPath(values=V[0], grid=grid)


def solve_derivative_field(c: CoefficientSet, grid: TimeGrid, x: LimitPath) -> DerivativeField:
    """Solve
    D[i, j] = sigma(t_j, theta_i*, x_i) + sum_{i<=k<j} b'(t_j, s_k*, x_k) D[i, k] delta
    through the resolvent R: one run of the Y engine with unit noise on
    unit increments, step (b'_k V_k delta, dB_k), one path per cell, so
    R[j, i] is the response at node j to a unit forcing in cell i.  D's
    row i is linear in its cell-i forcing sigma_i kick_i, with the k = i
    term kick_i = 1 + delta b'_i K[i, i+1] (K = 1 without a kernel), so
    D[i, j] = R[j, i] sigma_i kick_i for j > i; the diagonal is the seed
    sigma(t_{i+1}, theta_i*, x_i) K[i, i+1], which for time-independent
    sigma is the defining sigma(t_i, theta_i*, x_i) and keeps fractional
    kernel arguments inside their s < t domain.  Only here are kick and
    seed set.  A non-finite D[i, j], j > i, raises at its first node j.
    """
    if x.grid != grid:
        raise ValueError("limit path was solved on a different grid")
    N, d = grid.N, grid.delta
    K = c.on_grid(grid)
    K1 = 1.0 if K is None else np.diagonal(K, 1)
    R = np.empty((N + 1, N))
    with np.errstate(over="ignore", invalid="ignore"):
        bp = _on_path(c.db, grid, x.values)
        sg = _on_path(c.sigma, grid, x.values)
        for j, V in enumerate(_volterra(K, 0.0, np.eye(N),
                                        lambda i, Vi, dBi: (bp[i] * Vi * d, dBi))):
            R[j] = V
        kick, seed = 1.0 + d * bp * K1, sg * K1
        f = sg * kick
    bad = _Kept((R[j, :j] * f[:j] for j in range(N + 1)), {}, True).drain()
    if bad:
        raise _node_diverged("derivative field", grid, bad)
    return DerivativeField(grid=grid, R=R, sigma=sg, kick=kick, seed=seed)


def variance_of_Y(D: DerivativeField, grid: TimeGrid) -> VariancePath:
    """Var(Y_{t_j}) = sum_{i<j} D[i, j]^2 delta, D[i, j] = R[j, i] sigma_i kick_i.

    Strictly sub-diagonal rows only, matching the Ito sum
    Y_j = sum_{i<j} D[i, j] dB_i; the diagonal seed is excluded.
    """
    if D.grid != grid:
        raise ValueError("derivative field lives on a different grid")
    with np.errstate(over="ignore"):
        DT = D.R * (D.sigma * D.kick)  # DT[j, i] = D[i, j] off the diagonal
        values = grid.delta * np.square(DT, out=DT).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        j = int(bad[0])
        raise DivergenceError(
            "variance overflowed at node %d (t=%.6g)" % (j, grid.nodes[j]),
            node=j)
    return VariancePath(values=values, grid=grid)
