"""Deterministic Volterra solvers.

Computes the zero-noise limit path x_t, the derivative field
D_theta Y_t of the Gaussian fluctuation limit, and the variance profile
Var(Y_t) obtained as the squared L2 norm of a derivative row.

All solvers share one discretization: explicit (left-point) rule in the
state argument, kernel arguments evaluated at cell midpoints
s_k* = s_k + delta/2, which keeps fractional kernels away from their
s = t singularity.  No interpolation happens between nodes; downstream
consumers operate on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
            # the dense derivative field is O(N^2) memory
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
    preset: str

    @property
    def x0(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True)
class DerivativeField:
    """D[i, j] ~ D_{theta_i*} Y_{t_j} on grid pairs theta_i* < t_j.

    Rows i = 0..N-1 are the theta-cells (evaluated at midpoints), columns
    j = 0..N the grid nodes; entries with i > j are zero.  The diagonal
    D[i, i] holds the recursion seed sigma(t_{i+1}, theta_i*, x_i).
    """

    D: np.ndarray
    grid: TimeGrid
    preset: str


@dataclass(frozen=True)
class VariancePath:
    """Var(Y_{t_j}) at the N+1 grid nodes."""

    values: np.ndarray
    grid: TimeGrid


def _on_path(f, grid: TimeGrid, xv: np.ndarray) -> np.ndarray:
    """State function f at x_k, k = 0..N-1 (its (t, s) arguments are ignored)."""
    return np.broadcast_to(np.asarray(f(grid.nodes[1:], grid.midpoints, xv[:-1]),
                                      dtype=float), (grid.N,))


def solve_deterministic_limit(c: CoefficientSet, grid: TimeGrid, x0: float) -> LimitPath:
    """Solve x_t = x0 + int_0^t b(t, s, x_s) ds at first order:

    x_{t_j} = x0 + sum_{i<j} b(t_j, s_i*, x_{t_i}) delta.

    When b does not depend on its first argument the sum telescopes and
    the solve is incremental; the update order then matches the noisy
    Euler scheme exactly, so a zero-diffusion simulation reproduces this
    path bit for bit.  A separable b = K g(x) evaluates g once per node
    and resums one kernel column per node.
    """
    nodes = grid.nodes
    mids = grid.midpoints
    d = grid.delta
    K, g = c.on_grid(grid)
    x = np.empty(grid.N + 1)
    x[0] = float(x0)
    gb = np.empty(grid.N)
    for j in range(1, grid.N + 1):
        if K is None:
            x[j] = x[j - 1] + float(np.asarray(
                c.b(nodes[j], mids[j - 1], x[j - 1]))) * d
        else:
            gb[j - 1] = float(np.asarray(g.b(nodes[j], mids[j - 1], x[j - 1])))
            x[j] = x0 + float(K[:j, j] @ gb[:j]) * d
        if not np.isfinite(x[j]):
            raise DivergenceError(
                "limit path diverged at node %d (t=%.6g)" % (j, nodes[j]), node=j)
    return LimitPath(values=x, grid=grid, preset=c.name)


def solve_derivative_field(c: CoefficientSet, grid: TimeGrid, x: LimitPath) -> DerivativeField:
    """Forward column solve of
    D[i, j] = sigma(t_j, theta_i*, x_i) + sum_{i<=k<j} b'(t_j, s_k*, x_k) D[i, k] delta.

    b'(t_j, s_k*, x_k) = K[k, j] g'(x_k) is cached as a matrix once per
    call (O(N^2) memory, K = 1 without a kernel) so each column costs one
    triangular mat-vec; total work is O(N^3).  The diagonal seed
    D[i, i] = sigma(t_{i+1}, theta_i*, x_i) supplies the k = i term; for
    time-independent sigma it equals the defining sigma(t_i, theta_i*, x_i),
    and it keeps fractional kernel arguments inside their s < t domain.
    """
    if x.grid != grid:
        raise ValueError("limit path was solved on a different grid")
    N = grid.N
    d = grid.delta
    nodes = grid.nodes
    K, g = c.on_grid(grid)
    if K is None:
        K = np.triu(np.ones((N, N + 1)), 1)
    # row j holds the column-j coefficients over k < j
    bp = np.ascontiguousarray((K * _on_path(g.db, grid, x.values)[:, None]).T)
    sig = np.ascontiguousarray((K * _on_path(g.sigma, grid, x.values)[:, None]).T)

    D = np.zeros((N, N + 1))
    for j in range(1, N + 1):
        D[j - 1, j - 1] = sig[j, j - 1]
        col = sig[j, :j] + d * (D[:j, :j] @ bp[j, :j])
        if not np.all(np.isfinite(col)):
            raise DivergenceError(
                "derivative field diverged at node %d (t=%.6g)" % (j, nodes[j]), node=j)
        D[:j, j] = col
    return DerivativeField(D=D, grid=grid, preset=c.name)


def variance_of_Y(D: DerivativeField, grid: TimeGrid) -> VariancePath:
    """Var(Y_{t_j}) = sum_{i<j} D[i, j]^2 delta.

    Strictly sub-diagonal rows only, matching the Ito sum
    Y_j = sum_{i<j} D[i, j] dB_i; the diagonal seed is excluded.
    """
    if D.grid != grid:
        raise ValueError("derivative field lives on a different grid")
    N = grid.N
    mask = np.triu(np.ones((N, N + 1), dtype=bool), 1)
    with np.errstate(over="ignore"):
        sq = np.where(mask, D.D, 0.0) ** 2
        values = grid.delta * sq.sum(axis=0)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        j = int(bad[0])
        raise DivergenceError(
            "variance overflowed at node %d (t=%.6g)" % (j, grid.nodes[j]),
            node=j)
    return VariancePath(values=values, grid=grid)
