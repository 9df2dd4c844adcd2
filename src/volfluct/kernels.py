"""Coefficient presets and the fractional Brownian motion Volterra kernel.

The processes studied here are driven by two-time coefficient kernels
b(t, s, x) and sigma(t, s, x) together with their partial derivatives in
the state x.  This module supplies

* ``hyp2f1``: the Gauss hypergeometric series on the non-positive real
  axis, the special-function backbone of the fractional kernel,
* ``FbmKernelParams`` / ``eval_fbm_kernel``: the kernel K_H mapping a
  standard Brownian motion to fractional Brownian motion with Hurst
  index H, plus quadrature helpers built on it,
* ``CoefficientSet`` presets spanning trivial, closed-form and fractional
  test equations; the fractional ones are separable, K_H(t, s) g(x), and
  evaluate K_H once per grid into a memoized kernel matrix, and
* ``check_assumptions``: advisory spot checks of the linear-growth and
  derivative bounds required by the limit theory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate, special

_H_BROWNIAN_TOL = 1e-6
_SERIES_TOL = 1e-16
_SERIES_MAX_TERMS = 100_000
_NEAR_INT_TOL = 1e-5
_POLE_TOL = 1e-12

_KNOWN_PRESETS = (
    "additive-unit",
    "multiplicative",
    "linear-growth",
    "trig",
    "fbm-additive",
    "fbm-trig",
)


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its accuracy target."""


# ---------------------------------------------------------------------------
# Gauss hypergeometric function on z <= 0
# ---------------------------------------------------------------------------


def _near_integer(x: float, tol: float = _NEAR_INT_TOL) -> bool:
    return abs(x - round(x)) < tol


def _near_nonpositive_integer(x: float, tol: float = _NEAR_INT_TOL) -> bool:
    return x < 0.5 and _near_integer(x, tol)


def _gamma_sign(x: float) -> float:
    if x > 0.0:
        return 1.0
    # Gamma alternates sign between consecutive negative integers
    return -1.0 if math.floor(-x) % 2 == 0 else 1.0


def _gamma_quotient(nums: Sequence[float], dens: Sequence[float]) -> float:
    """prod Gamma(nums) / prod Gamma(dens); 0 when a denominator hits a pole.

    The pole cutoff must be essentially exact: a denominator at distance
    eta from a pole makes the quotient O(eta), small but still
    significant relative to answers that are themselves 1 + O(eta).
    """
    for x in dens:
        if _near_nonpositive_integer(x, tol=_POLE_TOL):
            return 0.0
    log_mag = 0.0
    sign = 1.0
    for x in nums:
        log_mag += math.lgamma(x)
        sign *= _gamma_sign(x)
    for x in dens:
        log_mag -= math.lgamma(x)
        sign *= _gamma_sign(x)
    return sign * math.exp(log_mag)


def _gauss_series(A: float, B: float, C: float, w: np.ndarray, ctx: tuple) -> np.ndarray:
    """Maclaurin series of 2F1(A, B; C; w) for w in [0, 1), vectorized in w."""
    total = np.ones_like(w)
    term = np.ones_like(w)
    live = np.ones(w.shape, dtype=bool)
    for k in range(_SERIES_MAX_TERMS):
        term = term * ((A + k) * (B + k) / ((C + k) * (1.0 + k))) * w
        total = np.where(live, total + term, total)
        live = live & (np.abs(term) > _SERIES_TOL * np.abs(total))
        if not live.any():
            return total
    raise ConvergenceError(
        "2F1 series exceeded %d terms for (a, b, c, z)=%r" % (_SERIES_MAX_TERMS, ctx)
    )


def _linear_connection(A: float, B: float, C: float, v: np.ndarray, ctx: tuple) -> np.ndarray:
    """2F1(A, B; C; 1 - v) for small v via the w -> 1 - w connection formula."""
    d = C - A - B
    if _near_integer(d):
        # logarithmic case; the direct series at w = 1 - v still converges
        return _gauss_series(A, B, C, 1.0 - v, ctx)
    c1 = _gamma_quotient((C, d), (C - A, C - B))
    c2 = _gamma_quotient((C, -d), (A, B))
    f1 = _gauss_series(A, B, 1.0 - d, v, ctx) if c1 != 0.0 else 0.0
    f2 = _gauss_series(C - A, C - B, 1.0 + d, v, ctx) if c2 != 0.0 else 0.0
    return c1 * f1 + c2 * np.power(v, d) * f2


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for z <= 0.

    Parameters
    ----------
    a, b, c : float
        Series parameters; c must not be a non-positive integer.
    z : float or array_like
        Argument(s), all <= 0.  This is the only regime the fractional
        kernel needs (z = 1 - t/s <= 0 for s <= t).

    Returns
    -------
    float or ndarray
        Function values, relative accuracy about 1e-10.

    Notes
    -----
    The Pfaff transformation
    2F1(a, b; c; z) = (1 - z)^(-a) 2F1(a, c - b; c; z/(z - 1))
    maps z <= 0 to a series argument w in [0, 1).  For w <= 1/2 the
    Maclaurin series converges geometrically; for w > 1/2 (s << t) the
    value is assembled from series at 1 - w = 1/(1 - z) through the
    linear connection formula, keeping every series argument in [0, 1/2].
    """
    if _near_nonpositive_integer(c, 1e-12):
        raise ValueError("c=%r is a non-positive integer" % (c,))
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr > 0.0):
        raise ValueError("hyp2f1 is restricted to z <= 0")
    with np.errstate(invalid="ignore"):
        w = z_arr / (z_arr - 1.0)
    if not np.all((w >= 0.0) & (w < 1.0)):
        raise ValueError("hyp2f1 needs finite z; the Pfaff argument escaped [0, 1)")
    A, B, C = a, c - b, c
    out = np.empty_like(w)
    near = w <= 0.5
    if near.any():
        out[near] = _gauss_series(A, B, C, w[near], (a, b, c, z))
    far = ~near
    if far.any():
        v = 1.0 / (1.0 - z_arr[far])  # equals 1 - w without cancellation
        out[far] = _linear_connection(A, B, C, v, (a, b, c, z))
    out = out * (1.0 - z_arr) ** (-a)
    if np.ndim(z) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Fractional Brownian motion kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FbmKernelParams:
    """Hurst index H with the normalization constants V_H and c_H.

    ``cH`` is only defined for H > 1/2 (NaN otherwise); ``brownian``
    flags |H - 1/2| <= 1e-6, where the kernel degenerates to K = 1.
    """

    H: float
    cH: float
    VH: float
    brownian: bool


def fbm_kernel_params(H: float) -> FbmKernelParams:
    """Build kernel constants for a Hurst index H in (0, 1)."""
    if not 0.0 < H < 1.0:
        raise ValueError("H must lie in (0, 1), got %r" % (H,))
    if abs(H - 0.5) <= _H_BROWNIAN_TOL:
        return FbmKernelParams(H=H, cH=float("nan"), VH=1.0, brownian=True)
    VH = math.gamma(2.0 - 2.0 * H) * math.cos(math.pi * H) / (math.pi * H * (1.0 - 2.0 * H))
    if H > 0.5:
        cH = math.sqrt(H * (2.0 * H - 1.0) / special.beta(2.0 - 2.0 * H, H - 0.5))
    else:
        cH = float("nan")
    return FbmKernelParams(H=H, cH=cH, VH=VH, brownian=False)


def eval_fbm_kernel(p: FbmKernelParams, t: float, s):
    """Evaluate K_H(t, s) for 0 < s < t; ``s`` may be an array.

    K_H(t, s) = (t - s)^(H - 1/2) / (Gamma(H + 1/2) sqrt(V_H))
                * 2F1(H - 1/2, 1/2 - H; H + 1/2; 1 - t/s).

    Gamma(H + 1/2) is the normalization under which the H -> 1/2 limit
    collapses to K = 1 and the squared kernel integrates to t^(2H).
    """
    s_arr = np.asarray(s, dtype=float)
    if not t > 0.0:
        raise ValueError("t must be positive")
    if np.any(s_arr <= 0.0) or np.any(s_arr >= t):
        raise ValueError("kernel requires 0 < s < t")
    if p.brownian:
        out = np.ones_like(s_arr)
    else:
        H = p.H
        z = 1.0 - t / s_arr
        f = np.asarray(hyp2f1(H - 0.5, 0.5 - H, H + 0.5, z))
        pref = (t - s_arr) ** (H - 0.5) / (math.gamma(H + 0.5) * math.sqrt(p.VH))
        out = pref * f
    if np.ndim(s) == 0:
        return float(out)
    return out


def eval_fbm_kernel_integral(p: FbmKernelParams, t: float, s: float) -> float:
    """Dual route for H > 1/2: K_H(t, s) = c_H s^(1/2-H) int_s^t (u-s)^(H-3/2) u^(H-1/2) du.

    Used as an oracle against the hypergeometric route.  The endpoint
    singularity (u - s)^(H - 3/2) is removed exactly by the substitution
    u = s + v^(1/(H - 1/2)), which turns the integrand into
    u(v)^(H - 1/2) / (H - 1/2), smooth on [0, (t - s)^(H - 1/2)].
    """
    H = p.H
    if not H > 0.5 + _H_BROWNIAN_TOL:
        raise ValueError("integral representation requires H > 1/2")
    if not 0.0 < s < t:
        raise ValueError("kernel requires 0 < s < t")
    q = H - 0.5

    def integrand(v):
        return (s + v ** (1.0 / q)) ** (H - 0.5) / q

    v_hi = (t - s) ** q
    res = integrate.quad(integrand, 0.0, v_hi, limit=200, epsabs=1e-14, epsrel=1e-12,
                         full_output=1)
    val, err = res[0], res[1]
    if not np.isfinite(val) or err > 1e-8 * max(abs(val), 1e-12):
        raise ConvergenceError("kernel integral route failed at H=%g t=%g s=%g" % (H, t, s))
    return p.cH * s ** (0.5 - H) * val


def kernel_l2_mass(p: FbmKernelParams, t: float) -> float:
    """int_0^t K_H(t, s)^2 ds by singularity-aware quadrature (equals t^(2H)).

    Near s = 0 the integrand behaves like s^(a0 - 1) with
    a0 = 1 - |2H - 1|, near s = t like (t - s)^(2H - 1); power
    substitutions flatten both endpoints before quadrature.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    if p.brownian:
        return float(t)
    H = p.H

    def ksq(s):
        return eval_fbm_kernel(p, t, float(s)) ** 2

    a0 = 1.0 - abs(2.0 * H - 1.0)
    at = 2.0 * H
    half = 0.5 * t

    def left(u):  # s = u^(1/a0) on (0, t/2)
        return ksq(u ** (1.0 / a0)) * u ** (1.0 / a0 - 1.0) / a0

    def right(v):  # t - s = v^(1/at) on (t/2, t)
        return ksq(t - v ** (1.0 / at)) * v ** (1.0 / at - 1.0) / at

    total = 0.0
    for f, hi in ((left, half ** a0), (right, half ** at)):
        res = integrate.quad(f, 0.0, hi, limit=200, epsabs=1e-12, epsrel=1e-10,
                             full_output=1)
        val, err = res[0], res[1]
        if not np.isfinite(val) or err > 1e-6 * max(abs(val), 1e-12):
            raise ConvergenceError("kernel L2 quadrature failed at H=%g, t=%g" % (H, t))
        total += val
    return float(total)


def fbm_covariance(H: float, t: float, s: float) -> float:
    """R_H(t, s) = (t^(2H) + s^(2H) - |t - s|^(2H)) / 2."""
    if t < 0.0 or s < 0.0:
        raise ValueError("times must be non-negative")
    e = 2.0 * H
    return 0.5 * (t ** e + s ** e - abs(t - s) ** e)


def variance_lower_bound_const(p: FbmKernelParams, sigma0: float) -> float:
    """c_H* = sigma0^2 c_H^2 / (H (2H - 1)^2), defined for H > 1/2."""
    if not p.H > 0.5 + _H_BROWNIAN_TOL:
        raise ValueError("the lower-bound constant requires H > 1/2")
    return sigma0 ** 2 * p.cH ** 2 / (p.H * (2.0 * p.H - 1.0) ** 2)


def fbm_kernel_matrix(p: FbmKernelParams, grid) -> np.ndarray:
    """K_H(t_j, theta_i*) over cell midpoints theta_i* and nodes t_j.

    Returns an (N, N+1) matrix, zero where theta_i* >= t_j (i >= j on a
    uniform grid).
    """
    mids = grid.midpoints
    nodes = grid.nodes
    K = np.zeros((grid.N, grid.N + 1))
    for j in range(1, grid.N + 1):
        K[:j, j] = eval_fbm_kernel(p, nodes[j], mids[:j])
    return K


@functools.lru_cache(maxsize=8)
def _fbm_matrix(H: float, grid) -> np.ndarray:
    """``fbm_kernel_matrix`` memoized per (H, grid); read-only, shared by callers."""
    K = fbm_kernel_matrix(fbm_kernel_params(H), grid)
    K.setflags(write=False)
    return K


# ---------------------------------------------------------------------------
# Coefficient sets
# ---------------------------------------------------------------------------

_COEFF_FIELDS = ("b", "sigma", "db", "dsigma", "d2b", "d2sigma")


@dataclass(frozen=True)
class CoefficientSet:
    """Drift/diffusion kernels b(t, s, x), sigma(t, s, x) and x-derivatives.

    All callables broadcast over numpy inputs and serve pointwise use.  A
    separable preset k(t, s) g(x) also carries ``kernel``, mapping a grid
    to the matrix K[i, j] = k(t_j, theta_i*) (zero for i >= j), and
    ``state``, the preset of its state functions g (``None``: the set's
    own callables).  On a grid the solvers and engines evaluate K times g;
    presets without a kernel ignore (t, s) and run telescoped recursions.
    """

    name: str
    b: Callable
    sigma: Callable
    db: Callable
    dsigma: Callable
    d2b: Callable
    d2sigma: Callable
    params: Dict[str, float] = field(default_factory=dict)
    kernel: Optional[Callable] = None
    state: Optional["CoefficientSet"] = None

    @property
    def time_dependent(self) -> bool:
        return self.kernel is not None

    def on_grid(self, grid):
        """(K, g): the kernel matrix on ``grid`` (None when k = 1) and the
        set whose callables are the state functions g."""
        if self.kernel is None:
            return None, self
        return self.kernel(grid), (self if self.state is None else self.state)


def _zero_coeff(t, s, x):
    return np.zeros(np.shape(x))


def _unit_coeff(t, s, x):
    return np.ones(np.shape(x))


def _fbm_separable(name: str, g: CoefficientSet, H: float, params) -> CoefficientSet:
    """K_H(t, s) g(x): pointwise products plus the memoized grid matrix."""
    p = fbm_kernel_params(H)

    def times_kernel(f):
        return lambda t, s, x: eval_fbm_kernel(p, t, s) * np.asarray(f(t, s, x), dtype=float)

    return CoefficientSet(name, *(times_kernel(getattr(g, f)) for f in _COEFF_FIELDS),
                          params=params, kernel=functools.partial(_fbm_matrix, H),
                          state=g)


def make_preset(name: str, **params) -> CoefficientSet:
    """Build a built-in coefficient preset by name.

    Presets
    -------
    additive-unit        b = 0, sigma = 1
    multiplicative       b = 0, sigma = x
    linear-growth        b = a x, sigma = 1          (param a, default 1)
    trig                 b = kappa sin x, sigma = kappa cos x  (param kappa)
    fbm-additive         K_H(t, s) times (b = 0, sigma = sigma0)  (params H, sigma0)
    fbm-trig             K_H(t, s) times trig                     (params H, kappa)
    """
    if name not in _KNOWN_PRESETS:
        raise ValueError("unknown preset %r; known: %s" % (name, ", ".join(_KNOWN_PRESETS)))

    def take(key, default):
        return float(params.pop(key, default))

    if name == "additive-unit":
        cs = CoefficientSet(name, _zero_coeff, _unit_coeff, _zero_coeff,
                            _zero_coeff, _zero_coeff, _zero_coeff, params={})
    elif name == "multiplicative":
        cs = CoefficientSet(
            name,
            b=_zero_coeff,
            sigma=lambda t, s, x: np.asarray(x, dtype=float),
            db=_zero_coeff,
            dsigma=_unit_coeff,
            d2b=_zero_coeff,
            d2sigma=_zero_coeff,
            params={},
        )
    elif name == "linear-growth":
        a = take("a", 1.0)
        cs = CoefficientSet(
            name,
            b=lambda t, s, x: a * np.asarray(x, dtype=float),
            sigma=_unit_coeff,
            db=lambda t, s, x: np.full(np.shape(x), a),
            dsigma=_zero_coeff,
            d2b=_zero_coeff,
            d2sigma=_zero_coeff,
            params={"a": a},
        )
    elif name == "trig":
        kappa = take("kappa", 1.0)
        cs = CoefficientSet(
            name,
            b=lambda t, s, x: kappa * np.sin(x),
            sigma=lambda t, s, x: kappa * np.cos(x),
            db=lambda t, s, x: kappa * np.cos(x),
            dsigma=lambda t, s, x: -kappa * np.sin(x),
            d2b=lambda t, s, x: -kappa * np.sin(x),
            d2sigma=lambda t, s, x: -kappa * np.cos(x),
            params={"kappa": kappa},
        )
    else:  # fbm-additive, fbm-trig
        if "H" not in params:
            raise ValueError("preset %r requires H" % name)
        H = take("H", None)
        if name == "fbm-additive":
            sigma0 = take("sigma0", 1.0)
            g = CoefficientSet("additive", _zero_coeff,
                               lambda t, s, x: np.full(np.shape(x), sigma0),
                               _zero_coeff, _zero_coeff, _zero_coeff, _zero_coeff,
                               params={"sigma0": sigma0})
        else:
            g = make_preset("trig", kappa=take("kappa", 1.0))
        cs = _fbm_separable(name, g, H, dict(g.params, H=H))
    if params:
        raise ValueError("unknown parameters for preset %r: %s" % (name, sorted(params)))
    return cs


# ---------------------------------------------------------------------------
# Assumption bounds and the advisory checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionBounds:
    """Envelopes k1, k2, k3 >= 0 with exponents alpha, beta, gamma > 1 and
    budget L > 0 such that, along the grid,

        sup_t int_0^t (k1^(2 alpha) + k2^(2 beta)) ds <= L,
        sup_t int_0^t k3^(2 gamma) ds <= L.
    """

    k1: Callable
    k2: Callable
    k3: Callable
    alpha: float
    beta: float
    gamma: float
    L: float


def _const_envelope(value: float) -> Callable:
    def k(t, s):
        return np.full(np.shape(s), value)

    return k


def _fbm_exponent(H: float) -> float:
    # K_H^(2 alpha) stays integrable iff alpha < 1 / |2H - 1|
    gap = abs(2.0 * H - 1.0)
    if gap <= 2.0 * _H_BROWNIAN_TOL:
        return 1.5
    amax = 1.0 / gap
    return 1.5 if amax >= 2.0 else 0.5 * (1.0 + amax)


@dataclass(frozen=True)
class _KernelEnvelope:
    """scale K_H(t, s): pointwise off the grid, the memoized matrix on it."""

    scale: float
    H: float

    def __call__(self, t, s):
        return self.scale * np.asarray(eval_fbm_kernel(fbm_kernel_params(self.H), t, s),
                                       dtype=float)


def _envelope_on_grid(k: Callable, grid) -> np.ndarray:
    """E[i, j] = k(t_j, theta_i*) for i < j, zero elsewhere."""
    if isinstance(k, _KernelEnvelope):
        return k.scale * _fbm_matrix(k.H, grid)
    E = np.zeros((grid.N, grid.N + 1))
    for j in range(1, grid.N + 1):
        E[:j, j] = k(grid.nodes[j], grid.midpoints[:j])
    return E


def _budget_sup(envelopes, exponents, grid) -> float:
    """max(sup_t int (k1^(2 alpha) + k2^(2 beta)), sup_t int k3^(2 gamma))."""
    sups = [float(np.max(np.sum(E ** (2.0 * a), axis=0)) * grid.delta)
            for E, a in zip(envelopes, exponents)]
    return max(sups[0] + sups[1], sups[2])


def bounds_for(c: CoefficientSet, grid) -> AssumptionBounds:
    """Declared envelopes for a built-in preset, with L fitted on the grid."""
    name = c.name
    if name == "additive-unit":
        k1, k2, k3 = _const_envelope(1.0), _const_envelope(0.0), _const_envelope(0.0)
        alpha = beta = gamma = 1.5
    elif name == "multiplicative":
        k1, k2, k3 = _const_envelope(1.0), _const_envelope(1.0), _const_envelope(0.0)
        alpha = beta = gamma = 1.5
    elif name == "linear-growth":
        a = abs(c.params["a"])
        k1 = _const_envelope(max(a, 1.0))
        k2 = _const_envelope(a)
        k3 = _const_envelope(0.0)
        alpha = beta = gamma = 1.5
    elif name == "trig":
        lim = math.sqrt(2.0) * abs(c.params["kappa"])
        k1 = k2 = k3 = _const_envelope(lim)
        alpha = beta = gamma = 1.5
    elif name in ("fbm-additive", "fbm-trig"):
        H = c.params["H"]
        scale = c.params.get("sigma0", None)
        if scale is None:
            scale = math.sqrt(2.0) * abs(c.params["kappa"])
        k1 = _KernelEnvelope(scale, H)
        if name == "fbm-trig":
            k2 = k3 = k1
        else:
            k2 = k3 = _const_envelope(0.0)
        alpha = beta = gamma = _fbm_exponent(H)
    else:  # pragma: no cover - make_preset guards the name set
        raise ValueError("no declared bounds for preset %r" % name)

    sup = _budget_sup([_envelope_on_grid(k, grid) for k in (k1, k2, k3)],
                      (alpha, beta, gamma), grid)
    L = 1.05 * max(sup, 1e-9)
    return AssumptionBounds(k1=k1, k2=k2, k3=k3, alpha=alpha, beta=beta,
                            gamma=gamma, L=L)


@dataclass
class AssumptionReport:
    """Advisory outcome of sampled growth/derivative bound checks."""

    checked: int
    violations: List[Tuple[str, float, float, float]]
    growth_margin: float
    integrability_margin: float
    ok: bool


def check_assumptions(c: CoefficientSet, bounds: AssumptionBounds, grid,
                      probe_xs: Sequence[float]) -> AssumptionReport:
    """Spot-check |b| + |sigma| <= k1 (1 + |x|), |b'| + |sigma'| <= k2,
    |b''| + |sigma''| <= k3 on sampled (t, s, x) triples, plus the
    integrability budget.  Purely advisory.
    """
    probe_xs = list(probe_xs)
    if not probe_xs:
        raise ValueError("probe_xs must be non-empty")
    nodes = grid.nodes
    mids = grid.midpoints
    t_stride = max(1, grid.N // 16)
    slack = 1e-9
    K, g = c.on_grid(grid)
    caps = [_envelope_on_grid(k, grid) for k in (bounds.k1, bounds.k2, bounds.k3)]

    checked = 0
    violations: List[Tuple[str, float, float, float]] = []
    growth_margin = math.inf
    for j in range(1, grid.N + 1, t_stride):
        t = nodes[j]
        rows = np.arange(j)[:: max(1, j // 16)]
        ss = mids[rows]
        kcol = 1.0 if K is None else K[rows, j]
        for x in probe_xs:
            xv = np.full(ss.shape, float(x))
            v = {f: np.abs(kcol * np.asarray(getattr(g, f)(t, ss, xv), dtype=float))
                 for f in _COEFF_FIELDS}
            growth = v["b"] + v["sigma"]
            cap1 = caps[0][rows, j] * (1.0 + abs(x))
            checked += 3 * ss.size
            for kind, val, cap in (("growth", growth, cap1),
                                   ("first-derivative", v["db"] + v["dsigma"],
                                    caps[1][rows, j]),
                                   ("second-derivative", v["d2b"] + v["d2sigma"],
                                    caps[2][rows, j])):
                bad = val > cap * (1.0 + slack) + 1e-12
                if np.any(bad):
                    i = int(np.argmax(bad))
                    violations.append((kind, float(t), float(ss[i]), float(x)))
            growth_margin = min(growth_margin, float(np.min(cap1 - growth)))

    sup = _budget_sup(caps, (bounds.alpha, bounds.beta, bounds.gamma), grid)
    integrability_margin = float(bounds.L - sup)
    ok = not violations and integrability_margin >= 0.0
    return AssumptionReport(checked=checked, violations=violations,
                            growth_margin=growth_margin,
                            integrability_margin=integrability_margin, ok=ok)
