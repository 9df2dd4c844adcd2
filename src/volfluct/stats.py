"""Distance estimation, rate regression, and the two-sided weak-expansion
estimator built from the Skorokhod duality identity
delta(Z DY) = Z Y - <DZ, DY>.

Total variation between continuous laws is not directly estimable, so a
histogram-TV (Freedman-Diaconis binning, floor of 16 bins) is reported
alongside the Kolmogorov (sup-CDF) distance, which lower-bounds TV and
has a consistent estimator; rate fits use the Kolmogorov values.
Distance standard errors come from a 200-resample bootstrap with its own
counter-based seed.  Each sample is sorted once; a resample is the
bincount of its index draws over the presorted points, read through
cumulative counts (ECDF values at precomputed pool ranks, histogram bin
counts at the edges), so the SE is bit-identical to resampling and
re-sorting.  Both distances have one implementation: the point estimate
is the same computation at all-ones counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

_BOOTSTRAP_RESAMPLES = 200
_MIN_BINS = 16
GATE_SE = 3.0  # weak-expansion gate: |lhs - rhs| within 3 combined SE


@dataclass(frozen=True)
class DistanceReport:
    """Distances between two one-dimensional samples, with uncertainty."""

    epsilon: float
    kolmogorov: float
    tv_histogram: float
    bins: int
    n_a: int
    n_b: int
    kolmogorov_se: float
    tv_se: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(distance) against log(epsilon)."""

    slope: float
    intercept: float
    residual: float
    n_points: int


@dataclass(frozen=True)
class Thm2Report:
    """Two sides of the weak-expansion identity at one (epsilon, phi)."""

    phi: str
    epsilon: float
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def combined_se(self) -> float:
        return math.hypot(self.lhs_se, self.rhs_se)

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passes(self) -> bool:
        """The two sides agree within GATE_SE combined standard errors."""
        return self.gap <= GATE_SE * self.combined_se


def _as_sample(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    return arr


@dataclass(frozen=True)
class CountedSample:
    """A sample as cumulative counts over its presorted points.

    ``x`` is the original sample sorted once (``order`` is its stable
    argsort), ``rank`` holds ``searchsorted(x, pool, side="right")`` for
    the points of the pooled pair it was sorted with, and ``cum[k]``
    counts the represented sample's points among ``x[:k]``, so
    ``cum[0] == 0`` and ``cum[-1]`` is its size.  The sample itself has
    all-ones counts, ``cum = arange(n + 1)``; a bootstrap resample has the
    counts of its draws.
    """

    x: np.ndarray
    order: np.ndarray
    rank: np.ndarray
    cum: np.ndarray

    @property
    def n(self) -> int:
        return int(self.cum[-1])

    def resample(self, draws: np.ndarray) -> "CountedSample":
        """The resample x_orig[draws], as counts gathered into sorted order."""
        cum = np.empty_like(self.cum)
        cum[0] = 0
        np.cumsum(np.bincount(draws, minlength=self.x.size)[self.order],
                  out=cum[1:])
        return CountedSample(self.x, self.order, self.rank, cum)

    def span(self) -> Tuple[float, float]:
        """First and last point with a nonzero count: the min and the max."""
        first = self.cum.searchsorted(0, side="right") - 1
        last = self.cum.searchsorted(self.cum[-1], side="left") - 1
        return self.x[first], self.x[last]

    def histogram(self, edges: np.ndarray) -> np.ndarray:
        """Counts in [e_k, e_k+1), the last bin closed: what np.histogram
        reads off a sorted sample for array edges."""
        at = self.cum[self.x.searchsorted(edges, side="left")]
        at[-1] = self.cum[self.x.searchsorted(edges[-1], side="right")]
        return np.diff(at)


def presort_pair(a, b) -> Tuple[CountedSample, CountedSample]:
    """Sort two samples once and rank their pooled points in each."""
    pair = []
    for arr in (_as_sample(a), _as_sample(b)):
        order = np.argsort(arr, kind="stable")
        pair.append((arr[order], order))
    pool = np.concatenate([x for x, _ in pair])
    return tuple(CountedSample(x, order, np.searchsorted(x, pool, side="right"),
                               np.arange(x.size + 1))
                 for x, order in pair)


def _counted(a, b) -> Tuple[CountedSample, CountedSample]:
    if isinstance(a, CountedSample):
        return a, b
    return presort_pair(a, b)


def kolmogorov_distance(a, b) -> float:
    """sup_x |F_a(x) - F_b(x)| over the pooled sample points.

    a and b are samples or a pair of CountedSample (presort_pair or a
    resample of it).  A resample's ECDF steps only at its own points, so
    the sup over the original pool equals the sup over the resample's.
    """
    ca, cb = _counted(a, b)
    return float(np.max(np.abs(ca.cum[ca.rank] / ca.n - cb.cum[cb.rank] / cb.n)))


def freedman_diaconis_bins(pooled) -> int:
    """Freedman-Diaconis bin count on a pooled sample, floored at 16."""
    arr = _as_sample(pooled)
    q75, q25 = np.percentile(arr, [75.0, 25.0])
    iqr = q75 - q25
    span = float(arr.max() - arr.min())
    if iqr <= 0.0 or span <= 0.0:
        return _MIN_BINS
    width = 2.0 * iqr / arr.size ** (1.0 / 3.0)
    return max(_MIN_BINS, int(math.ceil(span / width)))


def tv_histogram(a, b, bins: int) -> float:
    """(1/2) sum_k |p_k - q_k| over a shared binning of the pooled range.

    a and b are samples or a pair of CountedSample, as for
    kolmogorov_distance.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    ca, cb = _counted(a, b)
    (lo_a, hi_a), (lo_b, hi_b) = ca.span(), cb.span()
    lo = min(lo_a, lo_b)
    hi = max(hi_a, hi_b)
    if hi <= lo:
        return 0.0  # both samples concentrated on one common atom
    # np.linspace(lo, hi, bins + 1), its arithmetic without its overhead
    delta = hi - lo
    step = delta / bins
    edges = np.arange(bins + 1, dtype=float)
    if step == 0:  # subnormal span: linspace scales by delta after dividing
        edges /= bins
        edges *= delta
    else:
        edges *= step
    edges += lo
    edges[-1] = hi
    return float(0.5 * np.abs(ca.histogram(edges) / ca.n
                              - cb.histogram(edges) / cb.n).sum())


def bootstrap_se(a, b, stat: Callable, n_boot: int = _BOOTSTRAP_RESAMPLES,
                 seed: int = 0) -> float:
    """Bootstrap standard error of stat(a, b) resampling both samples.

    a and b are samples or their presort_pair.  Each resample draws
    gen.integers(0, n, n) indices per sample, as x[draws] would, but stat
    receives it as a CountedSample: the draws' counts over the presorted
    points.  The two distances here read those counts exactly as they
    read a sorted resample, so the SE is bit-identical to resampling and
    re-sorting, without a sort or a search per resample.
    """
    ca, cb = _counted(a, b)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    vals = np.empty(n_boot)
    for r in range(n_boot):
        ra = ca.resample(gen.integers(0, ca.x.size, ca.x.size))
        rb = cb.resample(gen.integers(0, cb.x.size, cb.x.size))
        vals[r] = stat(ra, rb)
    return float(vals.std(ddof=1))


def distance_report(epsilon: float, a, b, seed: int = 0) -> DistanceReport:
    """Kolmogorov and histogram-TV distances with bootstrap uncertainty."""
    sa = _as_sample(a)
    sb = _as_sample(b)
    bins = freedman_diaconis_bins(np.concatenate([sa, sb]))
    ca, cb = presort_pair(sa, sb)
    return DistanceReport(
        epsilon=epsilon,
        kolmogorov=kolmogorov_distance(ca, cb),
        tv_histogram=tv_histogram(ca, cb, bins),
        bins=bins,
        n_a=sa.size,
        n_b=sb.size,
        kolmogorov_se=bootstrap_se(ca, cb, kolmogorov_distance, seed=seed),
        tv_se=bootstrap_se(ca, cb, lambda u, v: tv_histogram(u, v, bins),
                           seed=(seed + 1) % 2 ** 64),
    )


def rate_fit(points: Sequence[Tuple[float, float]]) -> RateFit:
    """Ordinary least squares of log(distance) on log(epsilon)."""
    if len(points) < 3:
        raise ValueError("rate fit needs at least 3 points")
    eps = np.array([p[0] for p in points], dtype=float)
    dist = np.array([p[1] for p in points], dtype=float)
    if np.any(eps <= 0.0):
        raise ValueError("epsilon values must be positive")
    if np.any(dist <= 0.0):
        raise ValueError("non-positive distance: below Monte Carlo resolution")
    coef, res, _, _, _ = np.polyfit(np.log(eps), np.log(dist), 1, full=True)
    residual = float(math.sqrt(res[0])) if res.size else 0.0
    return RateFit(slope=float(coef[0]), intercept=float(coef[1]),
                   residual=residual, n_points=len(points))


# ---------------------------------------------------------------------------
# Bounded test functions and the two-sided weak-expansion estimator
# ---------------------------------------------------------------------------


def _sigmoid(w, x):
    from scipy.special import expit

    return expit(w * x)


_TEST_FUNCTIONS = {
    "cos": lambda w, x: np.cos(w * x),
    "tanh": lambda w, x: np.tanh(w * x),
    "sigmoid": _sigmoid,
    "const": lambda w, x: np.full(np.shape(x), w),
}


def parse_test_function(phi_id: str) -> Tuple[str, float]:
    """(name, scale) of a test-function id: "cos" is ("cos", 1.0) and
    "cos:2.0" is ("cos", 2.0); two ids with one key are one function."""
    name, sep, argstr = str(phi_id).partition(":")
    if sep and not argstr:
        raise ValueError("test function scale is empty in %r" % (phi_id,))
    w = float(argstr) if sep else 1.0
    if not math.isfinite(w):
        raise ValueError("test function scale must be finite, got %r" % (phi_id,))
    if name not in _TEST_FUNCTIONS:
        raise ValueError("unknown test function %r; known: %s"
                         % (phi_id, ", ".join(sorted(_TEST_FUNCTIONS))))
    return name, w


def resolve_test_function(phi_id: str) -> Callable:
    """Bounded test-function menu: "cos", "tanh", "sigmoid", "const",
    optionally scaled as e.g. "cos:2.0" for cos(2 x)."""
    name, w = parse_test_function(phi_id)
    f = _TEST_FUNCTIONS[name]
    return lambda x: f(w, x)


def _mean_se(vals: np.ndarray) -> Tuple[float, float]:
    m = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return m, se


def thm2_ell(phi_id: str, Xt_T, Y_T, eps: float) -> np.ndarray:
    """The per-path lhs l(eps) = (phi(Xt_T) - phi(Y_T)) / eps."""
    if eps == 0.0:
        raise ValueError("eps must be nonzero")
    f = resolve_test_function(phi_id)
    xt = _as_sample(Xt_T)
    y = _as_sample(Y_T)
    if xt.shape != y.shape:
        raise ValueError("coupled samples must have equal length")
    return (f(xt) - f(y)) / eps


def thm2_r(phi_id: str, Y_T, delta, varY: float) -> np.ndarray:
    """The per-path rhs phi(Y_T) delta / (2 Var(Y_T))."""
    if not varY > 0.0:
        raise ValueError("degenerate Gaussian limit: Var(Y_T) must be positive")
    f = resolve_test_function(phi_id)
    y = _as_sample(Y_T)
    dlt = _as_sample(delta)
    if y.shape != dlt.shape:
        raise ValueError("coupled samples must have equal length")
    return f(y) * dlt / (2.0 * varY)


def thm2_report(phi_id: str, eps: float, ell, r) -> Thm2Report:
    """Both sides of the weak expansion as means of per-path values.

    ell is l(eps) from thm2_ell for a fixed-eps row, or the Richardson
    value 2 l(eps/2) - l(eps) on coupled paths, which cancels the O(eps)
    term of the expansion; its SE then counts the correlation between the
    two eps.  r is thm2_r on the same paths.
    """
    lhs, lhs_se = _mean_se(ell)
    rhs, rhs_se = _mean_se(r)
    return Thm2Report(phi=phi_id, epsilon=eps, lhs=lhs, lhs_se=lhs_se,
                      rhs=rhs, rhs_se=rhs_se)


def gauss_hermite_mean(f: Callable, n: int = 151) -> float:
    """E f(xi) for xi ~ Normal(0, 1) by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return float((w @ f(x)) / math.sqrt(2.0 * math.pi))


def rms_with_se(vals) -> Tuple[float, float]:
    """Root mean square of per-path values with a delta-method SE."""
    g = _as_sample(vals) ** 2
    m = float(g.mean())
    rms = math.sqrt(m)
    if g.size < 2 or rms == 0.0:
        return rms, 0.0
    se_mean = float(g.std(ddof=1) / math.sqrt(g.size))
    return rms, se_mean / (2.0 * rms)
