"""Coefficient presets and the fractional Brownian motion Volterra kernel.

The processes studied here have separable coefficients
b(t, s, x) = k(t, s) g_b(x) and sigma(t, s, x) = k(t, s) g_sigma(x): a
Volterra kernel k times state functions g.  This module supplies

* ``FbmKernelParams`` / ``eval_fbm_kernel``: the kernel K_H mapping a
  standard Brownian motion to fractional Brownian motion with Hurst
  index H, through ``scipy.special.hyp2f1`` (read as ``kernels.hyp2f1``
  at each call), plus the quadrature ``kernel_l2_mass`` built on it, and
* ``CoefficientSet`` presets spanning trivial, closed-form and fractional
  test equations, each declared once: g and its x-derivatives, plus for
  the fractional ones k = K_H, evaluated once per grid into a memoized
  kernel matrix.

Importing this module loads no scipy: ``scipy.special`` loads at the
first access to ``kernels.hyp2f1`` (a module ``__getattr__``) or the
first c_H (H > 1/2), and ``scipy.integrate`` (with ``scipy.optimize``,
``scipy.sparse`` and ``scipy.linalg``) in ``kernel_l2_mass`` alone, so
``limit``, ``rate-scan`` and ``thm2`` never load it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
        from scipy.special import beta

        cH = math.sqrt(H * (2.0 * H - 1.0) / beta(2.0 - 2.0 * H, H - 0.5))
    else:
        cH = float("nan")
    return FbmKernelParams(H=H, cH=cH, VH=VH, brownian=False)


def __getattr__(name: str):
    """Bind scipy's ``hyp2f1`` as ``kernels.hyp2f1`` at its first access
    (PEP 562), so that importing this module leaves scipy.special unloaded."""
    if name != "hyp2f1":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from scipy.special import hyp2f1

    globals()["hyp2f1"] = hyp2f1
    return hyp2f1


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
        # kernels.hyp2f1 at each call, so a patched one is honoured
        hyp2f1 = globals().get("hyp2f1") or __getattr__("hyp2f1")
        with np.errstate(all="ignore"):
            f = hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t_arr / s_arr)
            pref = (t_arr - s_arr) ** (H - 0.5) / (math.gamma(H + 0.5) * math.sqrt(p.VH))
            out = pref * f
        if not np.all(np.isfinite(out)):
            raise ConvergenceError("fBm kernel is not finite at H=%g" % H)
    if out.ndim == 0:
        return float(out)
    return out


def kernel_l2_mass(p: FbmKernelParams, t: float) -> float:
    """int_0^t K_H(t, s)^2 ds by singularity-aware quadrature (equals t^(2H)).

    Near s = 0 the integrand behaves like C^2 s^(a0 - 1) with
    a0 = 1 - |2H - 1| (C from the z -> -inf asymptotics of 2F1), near
    s = t like (t - s)^(2H - 1); power substitutions flatten both
    endpoints before quadrature, and where s underflows (H near 0 or 1)
    the flattened left integrand is its limit C^2 / a0.  A missed
    accuracy target raises ``ConvergenceError``.
    """
    from scipy import integrate

    if p.brownian:
        return float(t)
    H = p.H

    def ksq(s):
        return eval_fbm_kernel(p, t, float(s)) ** 2

    a0 = 1.0 - abs(2.0 * H - 1.0)
    at = 2.0 * H
    half = 0.5 * t
    failed = "kernel L2 quadrature failed at H=%g, t=%g" % (H, t)
    # the right integrand is 2F1(.; -w/s)^2 / (Gamma(H + 1/2)^2 V_H at) with
    # w = t - s, so it tends to this value as w -> 0
    edge = 1.0 / (math.gamma(H + 0.5) ** 2 * p.VH * at)

    # K_H(t, s) ~ C s^(-|H - 1/2|) as s -> 0
    if H > 0.5:
        C = t ** (at - 1.0) * math.gamma(at - 1.0) / (
            math.sqrt(p.VH) * math.gamma(H - 0.5) * math.gamma(at))
    else:
        C = math.gamma(1.0 - at) / (math.sqrt(p.VH) * math.gamma(0.5 - H))

    def left(u):  # s = u^(1/a0) on (0, t/2)
        s = u ** (1.0 / a0)
        if s < 1e-300:  # t/s nears overflow: the integrand's s -> 0 limit
            return C * C / a0
        return ksq(s) * u ** (1.0 / a0 - 1.0) / a0

    def right(v):  # t - s = w = v^(1/at) on (t/2, t)
        w = v ** (1.0 / at)
        if w <= 1e-9 * t:  # t - (t - w) keeps too few of w's digits
            return edge
        return ksq(t - w) * v ** (1.0 / at - 1.0) / at

    total = 0.0
    for f, hi in ((left, half ** a0), (right, half ** at)):
        res = integrate.quad(f, 0.0, hi, limit=200, epsabs=1e-12, epsrel=1e-10,
                             full_output=1)
        val, err = res[0], res[1]
        if not np.isfinite(val) or err > 1e-6 * max(abs(val), 1e-12):
            raise ConvergenceError(failed)
        total += val
    return float(total)


def fbm_covariance(H: float, t: float, s: float) -> float:
    """R_H(t, s) = (t^(2H) + s^(2H) - |t - s|^(2H)) / 2."""
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


@dataclass(frozen=True)
class CoefficientSet:
    """Separable coefficients b = k(t, s) g_b(x), sigma = k(t, s) g_sigma(x).

    The six callables are the state functions g and their x-derivatives;
    they broadcast over numpy x and take (t, s, x) but ignore t and s.
    ``kernel`` maps a grid to the matrix K[i, j] = k(t_j, theta_i*) (zero
    for i >= j); ``None`` means k = 1, and the engines then telescope.
    """

    name: str
    b: Callable
    sigma: Callable
    db: Callable
    dsigma: Callable
    d2b: Callable
    d2sigma: Callable
    kernel: Optional[Callable] = None

    def on_grid(self, grid) -> Optional[np.ndarray]:
        """The kernel matrix on ``grid``; None when k = 1."""
        return None if self.kernel is None else self.kernel(grid)


def _zero_coeff(t, s, x):
    return np.zeros(np.shape(x))


def _unit_coeff(t, s, x):
    return np.ones(np.shape(x))


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
                            _zero_coeff, _zero_coeff, _zero_coeff)
    elif name == "multiplicative":
        cs = CoefficientSet(
            name,
            b=_zero_coeff,
            sigma=lambda t, s, x: np.asarray(x, dtype=float),
            db=_zero_coeff,
            dsigma=_unit_coeff,
            d2b=_zero_coeff,
            d2sigma=_zero_coeff,
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
        )
    else:  # fbm-additive, fbm-trig: K_H(t, s) times a state preset g
        if "H" not in params:
            raise ValueError("preset %r requires H" % name)
        H = take("H", None)
        fbm_kernel_params(H)  # validates H
        if name == "fbm-additive":
            sigma0 = take("sigma0", 1.0)
            g = CoefficientSet(name, _zero_coeff,
                               lambda t, s, x: np.full(np.shape(x), sigma0),
                               _zero_coeff, _zero_coeff, _zero_coeff, _zero_coeff)
        else:
            g = make_preset("trig", kappa=take("kappa", 1.0))
        cs = dataclasses.replace(g, name=name, kernel=functools.partial(_fbm_matrix, H))
    if params:
        raise ValueError("unknown parameters for preset %r: %s" % (name, sorted(params)))
    return cs
