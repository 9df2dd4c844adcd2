import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sps

from volfluct import stats as st
from volfluct import simulate as sim
from volfluct.kernels import make_preset
from volfluct.deterministic import (TimeGrid, solve_deterministic_limit,
                                    solve_derivative_field)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_kolmogorov_trivial_cases():
    assert st.kolmogorov_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert st.kolmogorov_distance([0.0], [1.0]) == 1.0
    with pytest.raises(ValueError):
        st.kolmogorov_distance([], [1.0])


def test_kolmogorov_normal_shift():
    # sup_x |Phi(x) - Phi(x - 1)| = 2 Phi(1/2) - 1
    r = _rng(1)
    n = 100000
    a = r.standard_normal(n)
    b = r.standard_normal(n) + 1.0
    target = 2.0 * sps.norm.cdf(0.5) - 1.0
    assert st.kolmogorov_distance(a, b) == pytest.approx(target, abs=0.01)


def test_tv_histogram_normal_shift():
    # for a pure location shift the optimal set is a half line, so the
    # total variation equals the Kolmogorov distance
    r = _rng(2)
    n = 100000
    a = r.standard_normal(n)
    b = r.standard_normal(n) + 1.0
    target = 2.0 * sps.norm.cdf(0.5) - 1.0
    bins = st.freedman_diaconis_bins(np.concatenate([a, b]))
    assert st.tv_histogram(a, b, bins) == pytest.approx(target, abs=0.02)


def test_tv_histogram_affine_invariance():
    r = _rng(3)
    a = r.standard_normal(4000)
    b = r.standard_normal(4000) * 1.2
    t1 = st.tv_histogram(a, b, 40)
    t2 = st.tv_histogram(2.0 * a + 3.0, 2.0 * b + 3.0, 40)
    assert t1 == pytest.approx(t2, abs=1e-9)


def test_distances_on_disjoint_supports():
    r = _rng(4)
    a = r.uniform(0.0, 1.0, 500)
    b = r.uniform(10.0, 11.0, 500)
    assert st.kolmogorov_distance(a, b) == 1.0
    assert st.tv_histogram(a, b, 16) == 1.0


def test_tv_histogram_edge_cases():
    assert st.tv_histogram([1.0, 1.0], [1.0, 1.0], 16) == 0.0
    with pytest.raises(ValueError):
        st.tv_histogram([0.0, 1.0], [0.0, 1.0], 1)


def test_freedman_diaconis_floor_and_growth():
    assert st.freedman_diaconis_bins(np.ones(1000)) == 16
    assert st.freedman_diaconis_bins(np.array([0.0, 1.0])) == 16
    r = _rng(5)
    big = st.freedman_diaconis_bins(r.standard_normal(20000))
    assert big > 16
    assert isinstance(big, int)


def test_kolmogorov_below_tv_within_noise():
    # scale families separate the two: the optimal set is not a half line
    r = _rng(6)
    a = r.standard_normal(30000)
    b = r.standard_normal(30000) * 1.3
    rep = st.distance_report(0.1, a, b)
    slack = 4.0 * math.hypot(rep.kolmogorov_se, rep.tv_se)
    assert rep.kolmogorov <= rep.tv_histogram + slack
    assert rep.epsilon == 0.1
    assert rep.n_a == 30000 and rep.n_b == 30000
    assert rep.bins >= 16


def _kolmogorov_ref(a, b):
    sa, sb = np.sort(a), np.sort(b)
    pool = np.concatenate([sa, sb])
    return float(np.max(np.abs(np.searchsorted(sa, pool, side="right") / sa.size
                               - np.searchsorted(sb, pool, side="right") / sb.size)))


def _tv_ref(a, b, bins):
    lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    return float(0.5 * np.abs(pa / a.size - pb / b.size).sum())


def _resampling_se(a, b, stat, seed, n_boot=200):
    """The bootstrap as resampling: stat on x[draws], re-sorted per resample."""
    sa, sb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    gen = _rng(seed)
    vals = np.empty(n_boot)
    for r in range(n_boot):
        ia = gen.integers(0, sa.size, sa.size)
        ib = gen.integers(0, sb.size, sb.size)
        vals[r] = stat(sa[ia], sb[ib])
    return float(vals.std(ddof=1))


def _samples(case):
    r = _rng(7)
    if case == "normal":
        return r.standard_normal(800), r.standard_normal(800) + 0.3
    if case == "tied":
        return (np.round(r.standard_normal(800), 1),
                np.round(r.standard_normal(800) + 0.3, 1))
    if case == "unequal":
        return r.standard_normal(300), r.standard_normal(1100) * 1.3
    if case == "one-point":
        return np.array([0.25]), r.standard_normal(3000)
    if case == "all-equal":
        return np.full(200, 1.5), np.full(300, 1.5)
    raise ValueError(case)


@pytest.mark.parametrize("case", ["normal", "tied", "unequal", "one-point"])
def test_bootstrap_se_deterministic_and_positive(case):
    a, b = _samples(case)
    s1 = st.bootstrap_se(a, b, st.kolmogorov_distance, seed=5)
    s2 = st.bootstrap_se(a, b, st.kolmogorov_distance, seed=5)
    s3 = st.bootstrap_se(a, b, st.kolmogorov_distance, seed=6)
    assert s1 == s2
    assert s1 != s3
    assert 0.0 < s1 < 0.2
    # counting over presorted points is bit for bit the resampling loop
    assert s1 == _resampling_se(a, b, _kolmogorov_ref, seed=5)
    assert st.bootstrap_se(a, b, lambda u, v: st.tv_histogram(u, v, 24),
                           seed=5) == _resampling_se(
        a, b, lambda u, v: _tv_ref(u, v, 24), seed=5)


@pytest.mark.parametrize("case", ["normal", "tied", "unequal", "one-point",
                                  "all-equal"])
def test_distance_report_is_the_resampling_bootstrap(case):
    a, b = _samples(case)
    rep = st.distance_report(0.1, a, b, seed=11)
    assert rep.kolmogorov == _kolmogorov_ref(a, b)
    assert rep.tv_histogram == _tv_ref(a, b, rep.bins)
    assert rep.kolmogorov_se == _resampling_se(a, b, _kolmogorov_ref, seed=11)
    assert rep.tv_se == _resampling_se(
        a, b, lambda u, v: _tv_ref(u, v, rep.bins), seed=12)
    if case == "all-equal":  # every resample is the one atom: hi <= lo
        assert rep.kolmogorov_se == rep.tv_se == 0.0


def test_counted_resample_reads_like_the_resample():
    a, b = _samples("tied")
    ca, cb = st.presort_pair(a, b)
    gen = _rng(3)
    ia, ib = gen.integers(0, a.size, a.size), gen.integers(0, b.size, b.size)
    ra, rb = ca.resample(ia), cb.resample(ib)
    assert ra.n == a.size and rb.n == b.size
    assert ra.span() == (a[ia].min(), a[ia].max())
    edges = np.linspace(-1.0, 1.0, 9)
    np.testing.assert_array_equal(ra.histogram(edges),
                                  np.histogram(a[ia], bins=edges)[0])
    assert st.kolmogorov_distance(ra, rb) == _kolmogorov_ref(a[ia], b[ib])
    assert st.tv_histogram(ra, rb, 30) == _tv_ref(a[ia], b[ib], 30)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_rate_fit_recovers_exact_powers():
    eps = [0.4, 0.2, 0.1, 0.05]
    lin = st.rate_fit([(e, 3.0 * e) for e in eps])
    assert lin.slope == pytest.approx(1.0, rel=1e-12)
    assert lin.intercept == pytest.approx(math.log(3.0), rel=1e-12)
    assert lin.residual < 1e-12
    assert lin.n_points == 4
    quad = st.rate_fit([(e, 0.5 * e ** 2) for e in eps])
    assert quad.slope == pytest.approx(2.0, rel=1e-12)


def test_rate_fit_with_multiplicative_noise():
    r = _rng(8)
    eps = [0.4, 0.2, 0.1, 0.05]
    pts = [(e, 2.0 * e * math.exp(0.05 * r.standard_normal())) for e in eps]
    fit = st.rate_fit(pts)
    assert 0.85 <= fit.slope <= 1.15


def test_rate_fit_rejections():
    with pytest.raises(ValueError):
        st.rate_fit([(0.4, 0.1), (0.2, 0.05)])
    with pytest.raises(ValueError):
        st.rate_fit([(0.4, 0.1), (0.2, 0.05), (-0.1, 0.02)])
    with pytest.raises(ValueError, match="below Monte Carlo resolution"):
        st.rate_fit([(0.4, 0.1), (0.2, 0.0), (0.1, 0.01)])


# ---------------------------------------------------------------------------
# Skorokhod correction term
# ---------------------------------------------------------------------------


def test_skorokhod_term_multiplicative_closed_form():
    g = TimeGrid(T=1.0, N=64)
    x0 = 1.3
    c = make_preset("multiplicative")
    x = solve_deterministic_limit(c, g, x0)
    D = solve_derivative_field(c, g, x)
    M = 20000
    batch = sim.sample_brownian(M, g, 101)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    Z = sim.simulate_Z(c, g, x, Y, batch)
    DZ = sim.simulate_DZ_terminal(c, g, x, Y, D, batch)
    out = st.skorokhod_term(Y.values[:, -1], Z.values[:, -1], DZ,
                            D.D[:, g.N], g)
    B = batch.increments.sum(axis=1)
    q = (batch.increments ** 2).sum(axis=1)
    closed = x0 ** 2 * ((B ** 2 - q) * B - 2.0 * B)
    np.testing.assert_allclose(out, closed, rtol=0, atol=1e-10)
    se = out.std(ddof=1) / math.sqrt(M)
    assert abs(out.mean()) < 3.0 * se  # mean zero in law


def test_skorokhod_term_shape_validation():
    g = TimeGrid(T=1.0, N=8)
    with pytest.raises(ValueError):
        st.skorokhod_term(np.ones(5), np.ones(5), np.ones((5, 7)),
                          np.ones(7), g)
    with pytest.raises(ValueError):
        st.skorokhod_term(np.ones(5), np.ones(4), np.ones((5, 8)),
                          np.ones(8), g)


# ---------------------------------------------------------------------------
# test functions and the weak-expansion estimator
# ---------------------------------------------------------------------------


def test_resolve_test_function_menu():
    x = np.array([-1.0, 0.0, 0.7])
    np.testing.assert_allclose(st.resolve_test_function("cos")(x), np.cos(x))
    np.testing.assert_allclose(st.resolve_test_function("cos:2.0")(x),
                               np.cos(2.0 * x))
    np.testing.assert_allclose(st.resolve_test_function("tanh")(x),
                               np.tanh(x))
    sig = st.resolve_test_function("sigmoid")(x)
    np.testing.assert_allclose(sig, 1.0 / (1.0 + np.exp(-x)))
    np.testing.assert_array_equal(st.resolve_test_function("const:3")(x),
                                  np.full(3, 3.0))
    with pytest.raises(ValueError, match="unknown test function"):
        st.resolve_test_function("gauss")
    assert st.parse_test_function("cos") == st.parse_test_function("cos:1.0")


def test_thm2_lhs_trivial_zero_and_validation():
    y = np.array([0.1, -0.4, 0.9])
    lhs, se = st.thm2_lhs("cos", y, y, 0.25)
    assert lhs == 0.0 and se == 0.0
    lhs, se = st.thm2_lhs("const", y + 1.0, y, 0.25)
    assert lhs == 0.0
    with pytest.raises(ValueError):
        st.thm2_lhs("cos", y, y, 0.0)
    with pytest.raises(ValueError):
        st.thm2_lhs("cos", y, y[:2], 0.1)


def test_thm2_rhs_zero_mean_and_degenerate():
    r = _rng(9)
    n = 50000
    y = r.standard_normal(n)
    delta = y ** 3 - 3.0 * y  # mean-zero Skorokhod term in the flat case
    rhs, se = st.thm2_rhs("const", y, delta, 1.0)
    assert se > 0.0
    assert abs(rhs) < 3.0 * se
    with pytest.raises(ValueError, match="degenerate Gaussian limit"):
        st.thm2_rhs("cos", y, delta, 0.0)
    with pytest.raises(ValueError):
        st.thm2_rhs("cos", y, delta[:10], 1.0)


def test_thm2_report_fields():
    r = _rng(10)
    y = r.standard_normal(2000)
    xt = y + 0.01 * r.standard_normal(2000)
    rep = st.thm2_report("cos", 0.1, xt, y, y ** 3 - 3 * y, 1.0)
    assert rep.phi == "cos" and rep.epsilon == 0.1
    assert rep.gap == abs(rep.lhs - rep.rhs)
    assert rep.combined_se == pytest.approx(math.hypot(rep.lhs_se,
                                                       rep.rhs_se))


def test_thm2_report_passes_within_three_combined_se():
    rep = st.Thm2Report(phi="cos", epsilon=0.1, lhs=1.5, lhs_se=0.3,
                        rhs=0.0, rhs_se=0.4)
    assert rep.passes  # gap 1.5 = 3 * 0.5
    assert not dataclasses.replace(rep, lhs=1.6).passes


def test_thm2_richardson_per_path_value():
    r = _rng(12)
    y = r.standard_normal(4000)
    xt = y + 0.1 * r.standard_normal(4000)
    xt_half = y + 0.05 * r.standard_normal(4000)
    delta = y ** 3 - 3.0 * y
    rep = st.thm2_richardson("cos", 0.1, xt, xt_half, y, delta, 1.0)
    per_path = (2.0 * (np.cos(xt_half) - np.cos(y)) / 0.05
                - (np.cos(xt) - np.cos(y)) / 0.1)
    assert rep.lhs == pytest.approx(per_path.mean(), rel=1e-12)
    assert rep.lhs_se == pytest.approx(
        per_path.std(ddof=1) / math.sqrt(y.size), rel=1e-12)
    assert (rep.rhs, rep.rhs_se) == st.thm2_rhs("cos", y, delta, 1.0)
    assert rep.epsilon == 0.1 and rep.phi == "cos"
    with pytest.raises(ValueError):
        st.thm2_richardson("cos", 0.1, xt, xt_half[:10], y, delta, 1.0)


def test_gauss_hermite_mean_moments():
    assert st.gauss_hermite_mean(lambda x: x ** 2) == pytest.approx(
        1.0, rel=1e-12)
    he3 = lambda x: x ** 3 - 3.0 * x
    assert st.gauss_hermite_mean(lambda x: he3(x) ** 2) == pytest.approx(
        6.0, rel=1e-12)
    assert st.gauss_hermite_mean(np.cos) == pytest.approx(
        math.exp(-0.5), rel=1e-12)


def _multiplicative_lhs(phi, eps):
    # exact multiplicative solution from x0 = 1: X_T = exp(eps B_T - eps^2/2)
    f = st.resolve_test_function(phi)
    return st.gauss_hermite_mean(
        lambda xi: (f(np.expm1(eps * xi - 0.5 * eps ** 2) / eps) - f(xi))
        / eps)


@pytest.mark.parametrize("phi, first_order", [
    ("cos", math.exp(-0.5) * 7.0 / 24.0), ("tanh", 0.0)])
def test_weak_expansion_remainder_orders_by_quadrature(phi, first_order):
    f = st.resolve_test_function(phi)
    rhs = st.gauss_hermite_mean(lambda xi: f(xi) * (xi ** 3 - 3.0 * xi)) / 2.0
    lhs = {e: _multiplicative_lhs(phi, e) for e in (0.1, 0.05, 0.025)}
    # (lhs - rhs) / eps -> the first-order coefficient, with an O(eps) error
    errs = [abs((lhs[e] - rhs) / e - first_order) for e in (0.1, 0.05, 0.025)]
    assert errs[2] < 1e-3
    assert errs[0] > errs[1] > errs[2]
    # Richardson's 2 lhs(eps/2) - lhs(eps) cancels it, leaving O(eps^2)
    res = [abs(2.0 * lhs[e / 2.0] - lhs[e] - rhs) for e in (0.1, 0.05)]
    assert res[1] < 5e-5
    assert res[0] / res[1] > 3.5


def test_rms_with_se():
    rms, se = st.rms_with_se(np.full(50, -2.0))
    assert rms == 2.0 and se == 0.0
    r = _rng(11)
    n = 40000
    rms, se = st.rms_with_se(r.standard_normal(n))
    assert abs(rms - 1.0) < 3.0 * se
    assert se == pytest.approx(1.0 / math.sqrt(2.0 * n), rel=0.1)
