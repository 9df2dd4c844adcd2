"""Deterministic Volterra solvers and the Volterra engine.

Computes the zero-noise limit path x_t, the derivative field
D_theta Y_t of the Gaussian fluctuation limit as its resolvent R and
per-cell vectors, and the variance profile Var(Y_t) obtained as the
squared L2 norm of a derivative row.

This module knows the equations: the engine, the steps of X, Y and Z
(``_x``, ``_y``, ``_z``) and the readers of the field; ``simulate`` draws
increments and drives chunks through them.  x, R, X, Y and Z all run on
the one Volterra engine ``_volterra``, one call per run: x as one
noiseless path of X's step at eps = 0, R as Y's step with unit sigma on
unit increments, one path per theta-cell, kept straight into R.  A call
can run several coupled processes on one state, each step reading its
own row and those of earlier processes, which is how Z reads Y.  With a
kernel each node is one mat-vec of K[i, j] = k(t_j, s_i*) against the
cell rows; state-only presets (k = 1) telescope to an O(N) recursion.
R gives D (cell i scaled by its forcing sigma_i kick_i, the seed on the
diagonal), which only this module's readers unpack: ``variance_of_Y``
and the DZ closed form ``_dz_weights``, so no dense D is formed.  DZ_T
is linear in (Y, dB) and Euler Y in dB, so DZ's pairing with D[:, N] is
one vector l, sum_i DZ[m, i] D[i, N] = l @ dB[m] (``_pairing``: the
closed form along D[:, N] = R[N] sigma kick, its Y term pulled through
the Euler tangent C = R diag(sigma)); the driver reads l once per call.
The first non-finite node j >= 1, then the first path in it, names where
a run blew up; the engine finds it for each process, whichever rows it
keeps (``_volterra`` says how).

Each step builder decides once, when it builds the step, which of its
terms are identically zero, and the step returns None for them: the
engine adds only the terms it receives.  A coefficient on the limit path
(b', b'', sigma', sigma) is zero by value, when no entry is nonzero; the
drift b of x and X is zero by identity, when it is the presets' declared
zero function ``kernels._zero_coeff`` (any other callable keeps its
term), and X's noise at eps = 0, which is how x has none.  This touches
additive-unit, multiplicative, linear-growth and fbm-additive; trig and
fbm-trig keep every term.  As V + 0.0 == V for every finite V, no
finite number moves.  Only a diverging run can differ: a dropped term no
longer turns 0 * inf into NaN.

All solvers share one discretization: explicit (left-point) rule in the
state argument, kernel arguments evaluated at cell midpoints
s_k* = s_k + delta/2, which keeps fractional kernels away from their
s = t singularity.  No interpolation happens between nodes; downstream
consumers operate on the same grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import CoefficientSet, _unit_coeff, _zero_coeff

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


def _unless_zero(v: np.ndarray) -> Optional[np.ndarray]:
    """``v``, or None when every entry is zero, so a step drops its term."""
    return v if v.any() else None


def _volterra(K: Optional[np.ndarray], base: float, dBt: np.ndarray,
              steps: Sequence, keep: Sequence[Dict[int, np.ndarray]]
              ) -> List[Optional[Tuple[int, int]]]:
    """Run P = len(steps) coupled processes on one (P, M) state,
    V_j = base + sum_{i<j} K[i, j] (drift_i + noise_i), j = 0..N.

    ``dBt`` is the (N, M) time-major increment block, row i the step-i
    increments of every path.  ``steps[p](i, V, dB_i)`` returns process
    p's (M,) drift and noise of cell i from the state's rows V, V[q] being
    process q; it may read its own row and those of earlier processes,
    which still hold node i (later processes move first).  A step returns
    None for a term its builder found identically zero, and the engine
    adds only the terms it receives.  Without a kernel (K is None, k = 1)
    the sum telescopes, V_j = (V_{j-1} + drift) + noise, in place, so a
    non-finite value persists to V_N; with one, the cell row is the sum of
    the terms received (zero for none), each node is one mat-vec per
    process of a contiguous kernel row against its cell rows so far, and
    a non-finite V_j need not reach later nodes.  Row j of process p is
    copied into ``keep[p][j]`` when that key exists.

    Returns, per process, (node, path) of the first non-finite entry of
    the first non-finite row j >= 1, or None, whatever ``keep`` names.
    The kernel branch checks every row in its one pass.  The telescoping
    branch checks V_N alone, finite only if every row is (inf or NaN plus
    anything stays non-finite); only when some process's V_N is not are
    the same steps run again on the same increments, keeping nothing and
    checking every node.  Overflow is expected on a diverging run and
    reported this way.
    """
    N, M = dBt.shape
    P = len(steps)
    if K is not None:
        Kt = np.ascontiguousarray(K.T)
        F = np.empty((P, N, M))  # each process's cell history
    with np.errstate(over="ignore", invalid="ignore"):
        for again in (False, True):
            every = again or K is not None  # check every node, not node N only
            V = np.full((P, M), base, dtype=float)
            rows = list(V)  # one view per process, updated in place
            procs = list(enumerate(zip(steps, rows, [{}] * P if again else keep)))[::-1]
            bad: List[Optional[Tuple[int, int]]] = [None] * P
            for j in range(N + 1):
                for p, (step, Vp, _) in procs if j else ():
                    drift, noise = step(j - 1, rows, dBt[j - 1])
                    if K is None:
                        if drift is not None:
                            Vp += drift
                        if noise is not None:
                            Vp += noise
                        continue
                    Fj = F[p, j - 1]
                    if drift is None:
                        Fj[...] = 0.0 if noise is None else noise
                    elif noise is None:
                        Fj[...] = drift
                    else:
                        np.add(drift, noise, out=Fj)
                    np.dot(Kt[j, :j], F[p, :j], out=Vp)
                    if base:
                        Vp += base
                for p, (_, Vp, kept) in procs:
                    dst = kept.get(j)
                    if dst is not None:
                        dst[...] = Vp
                    if j and bad[p] is None and (every or j == N):
                        ok = np.isfinite(Vp)
                        if not ok.all():
                            bad[p] = j, int(np.argmin(ok))
            if every or not any(bad):
                return bad


def _x(c: CoefficientSet, grid: TimeGrid, eps: float):
    """X's step at eps, run as process 0; it has no drift term when b is
    the declared zero function ``kernels._zero_coeff``, and no noise term
    at eps = 0, where it steps the limit path x."""
    t, s, d = grid.nodes, grid.midpoints, grid.delta
    b = None if c.b is _zero_coeff else c.b
    sigma = c.sigma if eps else None

    def step(i, V, dBi):
        drift = None if b is None else b(t[i + 1], s[i], V[0]) * d
        if sigma is None:
            return drift, None
        noise = eps * sigma(t[i + 1], s[i], V[0])
        noise *= dBi
        return drift, noise
    return step


def _y(c, grid, xv):
    """Y's step along the limit path ``xv``, run as process 0, without the
    terms whose b' or sigma is zero on the whole path."""
    d = grid.delta
    bp = _unless_zero(_on_path(c.db, grid, xv))
    sg = _unless_zero(_on_path(c.sigma, grid, xv))
    return lambda i, V, dBi: (None if bp is None else bp[i] * V[0] * d,
                              None if sg is None else sg[i] * dBi)


def _z(c, grid, xv):
    """Z's step, run as process 1 beside Y as process 0, whose row Y_i it
    reads at node i; without the terms whose b', b'' or sigma' is zero on
    the whole path."""
    d = grid.delta
    bp = _unless_zero(_on_path(c.db, grid, xv))
    bpp = _unless_zero(_on_path(c.d2b, grid, xv))
    sp2 = _unless_zero(2.0 * _on_path(c.dsigma, grid, xv))

    def step(i, V, dBi):
        if bpp is None:
            drift = None if bp is None else bp[i] * V[1] * d
        elif bp is None:
            drift = bpp[i] * V[0] ** 2 * d
        else:
            drift = (bp[i] * V[1] + bpp[i] * V[0] ** 2) * d
        if sp2 is None:
            return drift, None
        noise = sp2[i] * V[0]
        noise *= dBi
        return drift, noise
    return step


def _node_diverged(what: str, grid: TimeGrid, j: int) -> DivergenceError:
    """A deterministic solve's divergence, named by its first bad node."""
    return DivergenceError("%s diverged at node %d (t=%.6g)" % (what, j, grid.nodes[j]),
                           node=j)


def solve_deterministic_limit(c: CoefficientSet, grid: TimeGrid, x0: float) -> LimitPath:
    """Solve x_t = x0 + int_0^t b(t, s, x_s) ds at first order:

    x_{t_j} = x0 + sum_{i<j} b(t_j, s_i*, x_{t_i}) delta,

    as one noiseless path of the engine: X's own step at eps = 0.  Without
    a kernel the sum telescopes with X's update order, so a zero-diffusion
    simulation reproduces this path bit for bit.  A preset whose b is the
    declared zero function ``kernels._zero_coeff`` has no drift term, and
    the path stays at x0.  A non-finite value raises at its first node.
    """
    x = np.empty(grid.N + 1)
    bad, = _volterra(c.on_grid(grid), float(x0), np.zeros((grid.N, 1)),
                     [_x(c, grid, 0.0)], [dict(enumerate(x[:, None]))])
    if bad:
        raise _node_diverged("limit path", grid, bad[0])
    return LimitPath(values=x, grid=grid)


def solve_derivative_field(c: CoefficientSet, grid: TimeGrid, x: LimitPath) -> DerivativeField:
    """Solve
    D[i, j] = sigma(t_j, theta_i*, x_i) + sum_{i<=k<j} b'(t_j, s_k*, x_k) D[i, k] delta
    through the resolvent R: one run of Y's own step ``_y`` with unit
    sigma on unit increments, one path per cell, so R[j, i] is the
    response at node j to a unit forcing in cell i.  D's row i is linear
    in its cell-i forcing sigma_i kick_i, with the k = i term
    kick_i = 1 + delta b'_i K[i, i+1] (K = 1 without a kernel), so
    D[i, j] = R[j, i] sigma_i kick_i for j > i; the diagonal is the seed
    sigma(t_{i+1}, theta_i*, x_i) K[i, i+1], which for time-independent
    sigma is the defining sigma(t_i, theta_i*, x_i) and keeps fractional
    kernel arguments inside their s < t domain.  Only here are kick and
    seed set.  Where b' is zero on the whole path (additive-unit,
    multiplicative, fbm-additive) Y's step has no drift term.  A
    non-finite D[i, j], j > i, raises at its first node j.
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
        kick, seed = 1.0 + d * bp * K1, sg * K1
        f = sg * kick
        y_unit = _y(dataclasses.replace(c, sigma=_unit_coeff), grid, x.values)
        _volterra(K, 0.0, np.eye(N), [y_unit], [dict(enumerate(R))])
        # |R[j, i] f[i]| <= max|R| max|f|, so a finite bound proves every
        # product finite; only otherwise are the rows scanned
        if not np.isfinite(np.maximum(R.max(), -R.min()) * np.abs(f).max()):
            for j in range(1, N + 1):
                if not np.isfinite(R[j, :j] * f[:j]).all():
                    raise _node_diverged("derivative field", grid, j)
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


def _dz_weights(c, grid, xv, D, V):
    """Weights (a, b) of the DZ closed form paired with the direction V:
    sum_i V[i] DZ[m, i] = Y[m, :N] @ a + dB[m] @ b, for V of shape (N,) or
    a stack (P, N) of directions, giving (P, N) weights.  ``D`` is the
    run's derivative field: its resolvent R, forcing sigma kick and seed.

    Row i of DZ solves the linear Volterra equation
      DZ[i, j] = K[i, j] S_i + sum_{i<=k<j} K[k, j] (delta b'_k DZ[i, k]
                 + D[i, k] (2 b''_k Y_k delta + 2 sigma'_k dB_k)),
    seeded DZ[i, i] = K[i, i+1] S_i with S_i = 2 sigma'_i Y_i (primes are
    the state functions g at x_k; K = 1 without a kernel).  Its b' operator
    is the resolvent's: with w = R[N], the response of node N to a unit
    forcing in cell k,
      DZ[i, N] = S_i lead_i
                 + sum_{k>=i} D[i, k] (2 b''_k Y_k delta + 2 sigma'_k dB_k) w_k,
    lead_i = w_i kick_i, the k = i term of the field.  Without a kernel
    w_k = G_{k+1} and lead_k = G_k, with G_k = prod_{l=k}^{N-1} (1 + delta b'_l).
    With u = V triu(D[:, :N]) = (V sigma kick) R[:N]^T + V seed (diagonal
    seed included), a = 2 sigma' lead V + 2 delta b'' w u and
    b = 2 sigma' w u.  An overflow leaves non-finite weights without a
    numpy warning; the caller reports it as a divergence.
    """
    N = grid.N
    w = D.R[N]
    with np.errstate(over="ignore", invalid="ignore"):
        sp = _on_path(c.dsigma, grid, xv)
        wu = w * ((V * (D.sigma * D.kick)) @ D.R[:N].T + V * D.seed)
        return (2.0 * sp * w * D.kick * V + 2.0 * grid.delta * _on_path(c.d2b, grid, xv) * wu,
                2.0 * sp * wu)


def _pairing(c, grid, xv, D):
    """The vector l with sum_i DZ[m, i] D[i, N] = l @ dB[m]: the DZ
    weights (a, b) along V = D[:, N] = R[N] sigma kick, with a's Y term
    pulled through the Euler tangent C = R diag(sigma), since Euler Y is
    linear in the increments, Y_j = C[j] @ dB."""
    N = grid.N
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _dz_weights(c, grid, xv, D, D.R[N] * (D.sigma * D.kick))
        return (a @ D.R[:N]) * D.sigma + b
