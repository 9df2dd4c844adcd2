"""Coefficient presets and the fractional Brownian motion Volterra kernel.

The processes studied here are driven by two-time coefficient kernels
b(t, s, x) and sigma(t, s, x) together with their partial derivatives in
the state x.  This module supplies

* ``FbmKernelParams`` / ``eval_fbm_kernel``: the kernel K_H mapping a
  standard Brownian motion to fractional Brownian motion with Hurst
  index H, through ``scipy.special.hyp2f1`` (re-exported here as
  ``hyp2f1``), plus two quadrature helpers built on it, which import
  ``scipy.integrate`` (and with it ``scipy.optimize``, ``scipy.sparse``
  and ``scipy.linalg``) on first use, so ``limit``, ``rate-scan`` and
  ``thm2`` never load it,
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
from scipy import special
from scipy.special import hyp2f1

_H_BROWNIAN_TOL = 1e-6

_KNOWN_PRESETS = (
    "additive-unit",
    "multiplicative",
    "linear-growth",
    "trig",
    "fbm-additive",
    "fbm-trig",
)


class ConvergenceError(RuntimeError):
    """A kernel value came out non-finite, or a quadrature missed its
    accuracy target."""


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


def eval_fbm_kernel(p: FbmKernelParams, t, s):
    """Evaluate K_H(t, s) for 0 < s < t, broadcasting over ``t`` and ``s``.

    K_H(t, s) = (t - s)^(H - 1/2) / (Gamma(H + 1/2) sqrt(V_H))
                * 2F1(H - 1/2, 1/2 - H; H + 1/2; 1 - t/s).

    Gamma(H + 1/2) is the normalization under which the H -> 1/2 limit
    collapses to K = 1 and the squared kernel integrates to t^(2H).
    """
    t_arr, s_arr = np.broadcast_arrays(np.asarray(t, dtype=float),
                                       np.asarray(s, dtype=float))
    if not np.all((0.0 < s_arr) & (s_arr < t_arr) & np.isfinite(t_arr)):
        raise ValueError("kernel requires 0 < s < t < inf")
    if p.brownian:
        out = np.ones(s_arr.shape)
    else:
        H = p.H
        with np.errstate(all="ignore"):
            f = hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t_arr / s_arr)
            pref = (t_arr - s_arr) ** (H - 0.5) / (math.gamma(H + 0.5) * math.sqrt(p.VH))
            out = pref * f
        if not np.all(np.isfinite(out)):
            raise ConvergenceError("fBm kernel is not finite at H=%g" % H)
    if out.ndim == 0:
        return float(out)
    return out


def eval_fbm_kernel_integral(p: FbmKernelParams, t: float, s: float) -> float:
    """Dual route for H > 1/2: K_H(t, s) = c_H s^(1/2-H) int_s^t (u-s)^(H-3/2) u^(H-1/2) du.

    Used as an oracle against the hypergeometric route.  The endpoint
    singularity (u - s)^(H - 3/2) is removed exactly by the substitution
    u = s + v^(1/(H - 1/2)), which turns the integrand into
    u(v)^(H - 1/2) / (H - 1/2), smooth on [0, (t - s)^(H - 1/2)].
    """
    from scipy import integrate

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
    from scipy import integrate

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
    i, j = np.triu_indices(grid.N, 1, grid.N + 1)
    K = np.zeros((grid.N, grid.N + 1))
    K[i, j] = eval_fbm_kernel(p, grid.nodes[j], grid.midpoints[i])
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
    presets without a kernel ignore (t, s), and the same engines telescope.
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
    """Scales k1, k2, k3 >= 0 of the envelopes k W, with exponents alpha,
    beta, gamma > 1 and budget L > 0 such that, along the grid,

        sup_t int_0^t ((k1 W)^(2 alpha) + (k2 W)^(2 beta)) ds <= L,
        sup_t int_0^t (k3 W)^(2 gamma) ds <= L.

    W(t, s) is the preset's kernel, and 1 for presets without one.
    """

    k1: float
    k2: float
    k3: float
    alpha: float
    beta: float
    gamma: float
    L: float


def _fbm_exponent(H: float) -> float:
    # K_H^(2 alpha) stays integrable iff alpha < 1 / |2H - 1|
    gap = abs(2.0 * H - 1.0)
    if gap <= 2.0 * _H_BROWNIAN_TOL:
        return 1.5
    amax = 1.0 / gap
    return 1.5 if amax >= 2.0 else 0.5 * (1.0 + amax)


def _envelopes_on_grid(c: CoefficientSet, scales, grid) -> List[np.ndarray]:
    """k W[i, j] for each scale k, with W[i, j] = W(t_j, theta_i*) for
    i < j and zero elsewhere."""
    W = c.on_grid(grid)[0]
    if W is None:
        W = np.triu(np.ones((grid.N, grid.N + 1)), 1)
    return [k * W for k in scales]


def _budget_sup(envelopes, exponents, grid) -> float:
    """max(sup_t int (k1^(2 alpha) + k2^(2 beta)), sup_t int k3^(2 gamma))."""
    sups = [float(np.max(np.sum(E ** (2.0 * a), axis=0)) * grid.delta)
            for E, a in zip(envelopes, exponents)]
    return max(sups[0] + sups[1], sups[2])


def bounds_for(c: CoefficientSet, grid) -> AssumptionBounds:
    """Declared envelopes for a built-in preset, with L fitted on the grid."""
    name = c.name
    if name == "additive-unit":
        k1, k2, k3 = 1.0, 0.0, 0.0
    elif name == "multiplicative":
        k1, k2, k3 = 1.0, 1.0, 0.0
    elif name == "linear-growth":
        a = abs(c.params["a"])
        k1, k2, k3 = max(a, 1.0), a, 0.0
    elif name in ("trig", "fbm-trig"):
        k1 = k2 = k3 = math.sqrt(2.0) * abs(c.params["kappa"])
    elif name == "fbm-additive":
        k1, k2, k3 = c.params["sigma0"], 0.0, 0.0
    else:  # pragma: no cover - make_preset guards the name set
        raise ValueError("no declared bounds for preset %r" % name)
    alpha = beta = gamma = (_fbm_exponent(c.params["H"]) if "H" in c.params
                            else 1.5)

    sup = _budget_sup(_envelopes_on_grid(c, (k1, k2, k3), grid),
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
    caps = _envelopes_on_grid(c, (bounds.k1, bounds.k2, bounds.k3), grid)

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
