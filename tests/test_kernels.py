import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, strategies as st

from volfluct.deterministic import TimeGrid
from volfluct import kernels as K


# ---------------------------------------------------------------------------
# hyp2f1: scipy.special.hyp2f1 is the independent oracle
# ---------------------------------------------------------------------------


def test_hyp2f1_trivial_values():
    assert K.hyp2f1(0.7, -0.3, 1.1, 0.0) == 1.0
    # F(1,1;2;z) = -log(1-z)/z
    assert abs(K.hyp2f1(1.0, 1.0, 2.0, -1.0) - math.log(2.0)) < 1e-14
    # a or b zero terminates the series immediately
    assert K.hyp2f1(0.0, 1.7, 0.9, -123.0) == 1.0


def test_hyp2f1_symmetric_in_a_b():
    assert K.hyp2f1(0.3, -0.7, 1.1, -2.5) == pytest.approx(
        K.hyp2f1(-0.7, 0.3, 1.1, -2.5), rel=1e-14)


def test_hyp2f1_kernel_family_against_scipy():
    # the argument family the fBm kernel actually uses
    for H in (0.05, 0.3, 0.45, 0.55, 0.7, 0.95):
        a, b, c = H - 0.5, 0.5 - H, H + 0.5
        for z in (0.0, -1e-6, -0.5, -1.0, -10.0, -1e3, -1e8):
            ours = K.hyp2f1(a, b, c, z)
            ref = float(sp.hyp2f1(a, b, c, z))
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12), (H, z)


def test_hyp2f1_generic_params_against_scipy():
    # b - a is kept away from integers: the integer-difference connection
    # case is outside the supported domain (see the nonconvergence test)
    for a in (-1.3, -0.25, 0.7, 2.2):
        for b in (-0.85, 0.45, 1.9):
            for c in (0.6, 1.9):
                for z in (-1e4, -37.1, -2.0, -0.37):
                    ours = K.hyp2f1(a, b, c, z)
                    ref = float(sp.hyp2f1(a, b, c, z))
                    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-10), \
                        (a, b, c, z)


def test_hyp2f1_rejects_positive_z():
    with pytest.raises(ValueError):
        K.hyp2f1(0.2, 0.3, 1.0, 0.5)


def test_hyp2f1_rejects_non_finite_z():
    # the Pfaff argument z / (z - 1) leaves [0, 1) for z = nan or -inf
    for z in (float("nan"), -math.inf, np.array([-1.0, float("nan")])):
        with pytest.raises(ValueError, match="Pfaff"):
            K.hyp2f1(0.2, 0.3, 1.2, z)


def test_kernel_matrix_memo_is_shared_and_read_only():
    grid = TimeGrid(T=1.0, N=16)
    c = K.make_preset("fbm-trig", H=0.7)
    Km, g = c.on_grid(grid)
    assert Km is K.make_preset("fbm-additive", H=0.7).on_grid(grid)[0]
    assert g.name == "trig" and not Km.flags.writeable
    np.testing.assert_array_equal(
        Km, K.fbm_kernel_matrix(K.fbm_kernel_params(0.7), grid))
    assert K.make_preset("trig").on_grid(grid)[0] is None


def test_hyp2f1_rejects_nonpositive_integer_c():
    with pytest.raises(ValueError):
        K.hyp2f1(0.2, 0.3, 0.0, -1.0)
    with pytest.raises(ValueError):
        K.hyp2f1(0.2, 0.3, -2.0, -1.0)


def test_hyp2f1_reports_nonconvergence_at_extreme_z():
    # b - a integral forces the plain-series fallback, which cannot reach
    # the tolerance with w this close to 1; the failure must be loud
    with pytest.raises(K.ConvergenceError):
        K.hyp2f1(0.2, 0.2, 0.7, -1e12)
    with pytest.raises(K.ConvergenceError):
        K.hyp2f1(0.2, 1.2, 0.7, -1e12)


@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
       c=st.floats(0.3, 3.0), z=st.floats(-50.0, 0.0))
def test_hyp2f1_matches_scipy_property(a, b, c, z):
    ours = K.hyp2f1(a, b, c, z)
    ref = float(sp.hyp2f1(a, b, c, z))
    assert math.isfinite(ours)
    assert ours == pytest.approx(ref, rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# fBm kernel
# ---------------------------------------------------------------------------


def test_fbm_params_validation():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            K.fbm_kernel_params(bad)
    assert K.fbm_kernel_params(0.5).brownian
    assert K.fbm_kernel_params(0.5 + 1e-7).brownian
    assert not K.fbm_kernel_params(0.3).brownian


def test_brownian_kernel_is_one():
    p = K.fbm_kernel_params(0.5)
    assert K.eval_fbm_kernel(p, 1.0, 0.25) == 1.0
    assert K.kernel_l2_mass(p, 0.7) == pytest.approx(0.7, rel=1e-14)
    np.testing.assert_array_equal(
        K.eval_fbm_kernel(p, 1.0, np.array([0.1, 0.9])), [1.0, 1.0])


def test_kernel_requires_s_below_t():
    p = K.fbm_kernel_params(0.7)
    with pytest.raises(ValueError):
        K.eval_fbm_kernel(p, 1.0, 1.0)
    with pytest.raises(ValueError):
        K.eval_fbm_kernel(p, 1.0, 0.0)


def test_kernel_dual_route_H_above_half():
    # hypergeometric route vs direct integral route, plus frozen values
    # at which the two routes were observed to agree to machine precision
    p = K.fbm_kernel_params(0.7)
    frozen = {
        (1.0, 0.5): 0.9771404973936163,
        (1.0, 0.03): 1.4009282256518503,
        (2.0, 1.9): 0.69007997485369055,
        (0.5, 0.01): 1.2832942561407585,
    }
    for (t, s), val in frozen.items():
        a = K.eval_fbm_kernel(p, t, s)
        b = K.eval_fbm_kernel_integral(p, t, s)
        assert a == pytest.approx(b, rel=1e-6)
        assert a == pytest.approx(val, rel=1e-9)


def test_kernel_dual_route_more_exponents():
    for H in (0.55, 0.85):
        p = K.fbm_kernel_params(H)
        for (t, s) in ((1.0, 0.5), (1.0, 0.9), (0.25, 0.2)):
            a = K.eval_fbm_kernel(p, t, s)
            b = K.eval_fbm_kernel_integral(p, t, s)
            assert a == pytest.approx(b, rel=1e-6), (H, t, s)


def test_kernel_homogeneity():
    # K(lambda t, lambda s) = lambda^(H - 1/2) K(t, s)
    p = K.fbm_kernel_params(0.3)
    lam = 3.7
    a = K.eval_fbm_kernel(p, lam * 1.0, lam * 0.4)
    b = lam ** (0.3 - 0.5) * K.eval_fbm_kernel(p, 1.0, 0.4)
    assert a == pytest.approx(b, rel=1e-12)


def test_kernel_singularity_envelope_H_below_half():
    # K(t,s) <= c (t-s)^(H-1/2) s^(-|H-1/2|): the scaled kernel stays
    # bounded as s -> t and as s -> 0
    p = K.fbm_kernel_params(0.3)
    for s in (0.9, 0.99, 0.999, 0.9999, 0.5, 0.1, 0.01, 1e-4):
        scaled = K.eval_fbm_kernel(p, 1.0, s) * (1.0 - s) ** 0.2 * s ** 0.2
        assert 0.0 < scaled < 1.0


def test_kernel_l2_mass_identity():
    for H in (0.3, 0.5, 0.7, 0.9):
        p = K.fbm_kernel_params(H)
        for t in (0.25, 0.5, 1.0):
            mass = K.kernel_l2_mass(p, t)
            target = t ** (2.0 * H)
            assert abs(mass - target) / target <= 1e-3, (H, t)


def test_kernel_l2_mass_identity_is_tight():
    # quadrature is far better than the gate; freeze the observed level
    p = K.fbm_kernel_params(0.7)
    assert K.kernel_l2_mass(p, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_fbm_covariance_closed_form():
    assert K.fbm_covariance(0.5, 0.7, 0.2) == pytest.approx(0.2, rel=1e-15)
    assert K.fbm_covariance(0.7, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    # H=0.7, t=1, s=0.5: the two 0.5^(1.4) terms cancel
    assert K.fbm_covariance(0.7, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)
    v = K.fbm_covariance(0.3, 1.0, 0.5)
    assert v == pytest.approx(0.5 * (1.0 + 0.5 ** 0.6 - 0.5 ** 0.6), rel=1e-14)


def test_kernel_matrix_layout_and_mass():
    grid = TimeGrid(T=1.0, N=256)
    p = K.fbm_kernel_params(0.7)
    km = K.fbm_kernel_matrix(p, grid)
    assert km.shape == (256, 257)
    # strictly upper triangular: row i feeds nodes j > i only
    assert np.count_nonzero(np.tril(km[:, 1:], -1)) == 0
    assert np.all(km[:, 0] == 0.0)
    assert np.all(km[np.triu_indices(256, 1, 257)] > 0.0)
    # midpoint-rule column mass approximates t^(2H); the first node is
    # self-similar (relative error fixed at 1 - K(1, 1/2)^2 for every N)
    mass = grid.delta * (km ** 2).sum(axis=0)
    t = grid.nodes[1:]
    rel = np.abs(mass[1:] - t ** 1.4) / t ** 1.4
    first = K.eval_fbm_kernel(p, 1.0, 0.5) ** 2
    assert mass[1] / grid.delta ** 1.4 == pytest.approx(first, rel=1e-10)
    assert rel[15:].max() < 2e-2
    assert rel[-1] < 5e-3


def test_variance_lower_bound_const_positive():
    for H in (0.55, 0.7, 0.9):
        p = K.fbm_kernel_params(H)
        assert K.variance_lower_bound_const(p, 1.0) > 0.0
    with pytest.raises(ValueError):
        K.variance_lower_bound_const(K.fbm_kernel_params(0.3), 1.0)


# ---------------------------------------------------------------------------
# presets and assumption checks
# ---------------------------------------------------------------------------


def test_make_preset_errors():
    with pytest.raises(ValueError):
        K.make_preset("no-such-preset")
    with pytest.raises(ValueError):
        K.make_preset("trig", bogus=1.0)
    with pytest.raises(ValueError):
        K.make_preset("fbm-additive")  # H missing


def test_preset_values():
    add = K.make_preset("additive-unit")
    assert float(add.b(1.0, 0.5, 2.0)) == 0.0
    assert float(add.sigma(1.0, 0.5, 2.0)) == 1.0
    mul = K.make_preset("multiplicative")
    assert float(mul.sigma(1.0, 0.5, -3.0)) == -3.0
    assert float(mul.dsigma(1.0, 0.5, -3.0)) == 1.0
    assert not mul.time_dependent
    fbm = K.make_preset("fbm-additive", H=0.7, sigma0=2.0)
    assert fbm.time_dependent
    p = K.fbm_kernel_params(0.7)
    assert float(fbm.sigma(1.0, 0.5, 0.0)) == pytest.approx(
        2.0 * K.eval_fbm_kernel(p, 1.0, 0.5), rel=1e-12)


def test_removed_alias_preset_is_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        K.make_preset("fbm-additive-shifted", H=0.7, sigma0=2.0)


@pytest.mark.parametrize("name,params", [
    ("additive-unit", {}),
    ("multiplicative", {}),
    ("linear-growth", {"a": 0.8}),
    ("trig", {"kappa": 1.3}),
    ("fbm-trig", {"H": 0.7, "kappa": 0.9}),
])
def test_preset_derivatives_match_finite_differences(name, params):
    c = K.make_preset(name, **params)
    t, s = 1.0, 0.4
    h = 1e-5
    xs = np.array([-1.7, -0.3, 0.0, 0.9, 2.4])
    for f, df in ((c.b, c.db), (c.sigma, c.dsigma),
                  (c.db, c.d2b), (c.dsigma, c.d2sigma)):
        lo = np.asarray(f(t, s, xs - h), dtype=float)
        hi = np.asarray(f(t, s, xs + h), dtype=float)
        fd = (hi - lo) / (2.0 * h)
        supplied = np.broadcast_to(np.asarray(df(t, s, xs), dtype=float),
                                   fd.shape)
        scale = 1.0 + np.abs(supplied)
        assert np.all(np.abs(fd - supplied) <= 1e-6 * scale), name


def test_check_assumptions_clean_presets():
    grid = TimeGrid(T=1.0, N=64)
    probe = np.linspace(-3.0, 3.0, 13)
    for name in ("additive-unit", "multiplicative", "trig", "linear-growth"):
        c = K.make_preset(name)
        rep = K.check_assumptions(c, K.bounds_for(c, grid), grid, probe)
        assert rep.ok, (name, rep.violations)
        assert rep.checked > 0
        assert rep.growth_margin >= 0.0
        assert rep.integrability_margin >= 0.0


def test_check_assumptions_fbm():
    grid = TimeGrid(T=1.0, N=64)
    probe = np.linspace(-2.0, 2.0, 7)
    c = K.make_preset("fbm-additive", H=0.7)
    rep = K.check_assumptions(c, K.bounds_for(c, grid), grid, probe)
    assert rep.ok, rep.violations


def test_check_assumptions_detects_violation():
    grid = TimeGrid(T=1.0, N=32)
    probe = np.linspace(-5.0, 5.0, 9)
    c = K.make_preset("trig", kappa=2.0)
    # an envelope that is deliberately too small for kappa = 2
    bad = K.AssumptionBounds(
        k1=lambda t, s: np.full(np.shape(s), 0.5),
        k2=lambda t, s: np.full(np.shape(s), 0.5),
        k3=lambda t, s: np.full(np.shape(s), 0.5),
        alpha=1.5, beta=1.5, gamma=1.5, L=10.0)
    rep = K.check_assumptions(c, bad, grid, probe)
    assert not rep.ok
    assert rep.violations


def test_check_assumptions_empty_probe():
    grid = TimeGrid(T=1.0, N=16)
    c = K.make_preset("trig")
    with pytest.raises(ValueError):
        K.check_assumptions(c, K.bounds_for(c, grid), grid, np.array([]))
