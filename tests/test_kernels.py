import math

import numpy as np
import pytest
import scipy.special as sp
from scipy import integrate

from volfluct.cli import main
from volfluct.deterministic import TimeGrid
from volfluct import kernels as K


# ---------------------------------------------------------------------------
# fBm kernel
# ---------------------------------------------------------------------------


def test_kernel_matrix_memo_is_shared_and_read_only():
    grid = TimeGrid(T=1.0, N=16)
    c = K.make_preset("fbm-trig", H=0.7)
    Km = c.on_grid(grid)
    assert Km is K.make_preset("fbm-additive", H=0.7).on_grid(grid)
    assert not Km.flags.writeable
    np.testing.assert_array_equal(
        Km, K.fbm_kernel_matrix(K.fbm_kernel_params(0.7), grid))
    assert K.make_preset("trig").on_grid(grid) is None


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
    for t, s in ((1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            K.eval_fbm_kernel(p, t, s)


def test_hyp2f1_rejects_non_finite_z():
    # hyp2f1's argument z = 1 - t/s is -inf at s = 0 and non-finite at
    # s = nan or t = inf; the kernel refuses these before calling scipy
    p = K.fbm_kernel_params(0.7)
    nan = float("nan")
    for t, s in ((1.0, 0.0), (1.0, nan), (float("inf"), 0.5),
                 (np.array([1.0, 1.0]), np.array([0.5, nan]))):
        with pytest.raises(ValueError, match="0 < s < t < inf"):
            K.eval_fbm_kernel(p, t, s)


def test_kernel_is_scipy_hyp2f1():
    assert K.hyp2f1 is sp.hyp2f1


def test_kernel_reads_hyp2f1_from_the_module_at_call_time(monkeypatch):
    # the benchmark's tracer times hyp2f1 by patching kernels.hyp2f1
    p, grid = K.fbm_kernel_params(0.7), TimeGrid(T=1.0, N=8)
    want = K.fbm_kernel_matrix(p, grid)
    calls = []
    real = K.hyp2f1

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(K, "hyp2f1", counted)
    got = K.fbm_kernel_matrix(p, grid)
    assert calls
    assert got.tobytes() == want.tobytes()


def test_kernel_matches_mpmath():
    # the closed form at 40 digits, with s/t down to the N = 4096 grid's
    # first midpoint 1/8192
    mp = pytest.importorskip("mpmath")
    ratios = (2.0 ** -13, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 2.0 ** -13)
    with mp.workdps(40):
        for H in (0.05, 0.3, 0.45, 0.55, 0.7, 0.95):
            h = mp.mpf(H)
            VH = mp.gamma(2 - 2 * h) * mp.cos(mp.pi * h) / (mp.pi * h * (1 - 2 * h))
            norm = mp.gamma(h + 0.5) * mp.sqrt(VH)
            p = K.fbm_kernel_params(H)
            for t in (0.75, 1.0, 2.0):
                for s in (r * t for r in ratios):
                    ref = (mp.power(mp.mpf(t) - s, h - 0.5) / norm
                           * mp.hyp2f1(h - 0.5, 0.5 - h, h + 0.5, 1 - mp.mpf(t) / s))
                    assert K.eval_fbm_kernel(p, t, s) == pytest.approx(
                        float(ref), rel=1e-13), (H, t, s)


@pytest.mark.filterwarnings("error")
def test_non_finite_kernel_exits_3(tmp_path, monkeypatch, capsys):
    p = K.fbm_kernel_params(0.7)
    monkeypatch.setattr(K, "hyp2f1", lambda a, b, c, z: np.full(np.shape(z), np.nan))
    with pytest.raises(K.ConvergenceError):
        K.eval_fbm_kernel(p, 1.0, np.array([0.25, 0.5]))
    K._fbm_matrix.cache_clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"preset": "fbm-trig", "H": 0.7, "N": 16, "M": 200}')
    assert main(["limit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical divergence: ") and "Traceback" not in err


def _kernel_integral(p, t, s):
    """Reference route for H > 1/2:
    K_H(t, s) = c_H s^(1/2-H) int_s^t (u-s)^(H-3/2) u^(H-1/2) du.

    The endpoint singularity (u - s)^(H - 3/2) is removed exactly by the
    substitution u = s + v^(1/(H - 1/2)), which turns the integrand into
    u(v)^(H - 1/2) / (H - 1/2), smooth on [0, (t - s)^(H - 1/2)].
    """
    H = p.H
    if not H > 0.5 + 1e-6:
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
        raise K.ConvergenceError("kernel integral route failed at H=%g t=%g s=%g" % (H, t, s))
    return p.cH * s ** (0.5 - H) * val


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
        b = _kernel_integral(p, t, s)
        assert a == pytest.approx(b, rel=1e-6)
        assert a == pytest.approx(val, rel=1e-9)


def test_kernel_dual_route_more_exponents():
    for H in (0.55, 0.85):
        p = K.fbm_kernel_params(H)
        for (t, s) in ((1.0, 0.5), (1.0, 0.9), (0.25, 0.2)):
            a = K.eval_fbm_kernel(p, t, s)
            b = _kernel_integral(p, t, s)
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
    # at H near 0 or 1, s = u^(1/a0) underflows on part of the left
    # interval, where the integrand is its s -> 0 limit
    for H in (0.0005, 0.003, 0.3, 0.5, 0.7, 0.9, 0.996, 0.997, 0.9999):
        p = K.fbm_kernel_params(H)
        for t in (0.25, 0.5, 1.0):
            mass = K.kernel_l2_mass(p, t)
            target = t ** (2.0 * H)
            assert abs(mass - target) / target <= 1e-3, (H, t)


def test_kernel_l2_mass_identity_is_tight():
    # quadrature is far better than the gate; freeze the observed level
    for H in (0.0005, 0.7, 0.9999):
        p = K.fbm_kernel_params(H)
        assert K.kernel_l2_mass(p, 1.0) == pytest.approx(1.0, rel=1e-9), H


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


def _per_column_kernel_matrix(p, grid):
    # the column-by-column construction the one-call matrix replaced
    Km = np.zeros((grid.N, grid.N + 1))
    for j in range(1, grid.N + 1):
        Km[:j, j] = K.eval_fbm_kernel(p, grid.nodes[j], grid.midpoints[:j])
    return Km


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("H", [0.1, 0.3, 0.7, 0.9])
def test_kernel_matrix_equals_per_column_construction(H, N):
    # one broadcast call gives the same bits: the series stops per element
    grid = TimeGrid(T=1.0, N=N)
    p = K.fbm_kernel_params(H)
    np.testing.assert_array_equal(K.fbm_kernel_matrix(p, grid),
                                  _per_column_kernel_matrix(p, grid))


def test_kernel_broadcasts_over_t_and_s():
    p = K.fbm_kernel_params(0.3)
    t = np.array([[1.0], [0.5]])
    s = np.array([0.1, 0.2, 0.4])
    got = K.eval_fbm_kernel(p, t, s)
    assert got.shape == (2, 3)
    for a in range(2):
        for b in range(3):
            assert got[a, b] == K.eval_fbm_kernel(p, float(t[a, 0]), float(s[b]))
    # the domain check is elementwise: one s >= t anywhere is an error
    with pytest.raises(ValueError):
        K.eval_fbm_kernel(p, np.array([1.0, 0.3]), np.array([0.5, 0.3]))


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
    assert mul.kernel is None
    # an fBm preset is its state preset g with the kernel K_H attached
    fbm = K.make_preset("fbm-additive", H=0.7, sigma0=-2.0)
    assert fbm.kernel is not None
    assert float(fbm.sigma(1.0, 0.5, 0.0)) == -2.0
    trig = K.make_preset("trig", kappa=0.9)
    fbm_trig = K.make_preset("fbm-trig", H=0.7, kappa=0.9)
    assert fbm_trig.name == "fbm-trig"
    xs = np.array([-1.0, 0.3, 2.0])
    for f in ("b", "sigma", "db", "dsigma", "d2b", "d2sigma"):
        np.testing.assert_array_equal(getattr(fbm_trig, f)(1.0, 0.5, xs),
                                      getattr(trig, f)(1.0, 0.5, xs))


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


_DEFAULT_PRESETS = [(name, {"H": 0.7} if name.startswith("fbm") else {})
                    for name in K._KNOWN_PRESETS]


# The paper's assumptions on g, by preset: |g_b| + |g_sigma| <= k1 (1 + |x|),
# |g_b'| + |g_sigma'| <= k2 and |g_b''| + |g_sigma''| <= k3.  The kernel
# factor k(t, s) multiplies both sides, so g alone decides.
_ENVELOPES = {
    "additive-unit": lambda p: (1.0, 0.0, 0.0),
    "multiplicative": lambda p: (1.0, 1.0, 0.0),
    "linear-growth": lambda p: (max(abs(p.get("a", 1.0)), 1.0), abs(p.get("a", 1.0)), 0.0),
    "trig": lambda p: (math.sqrt(2.0) * abs(p.get("kappa", 1.0)),) * 3,
    "fbm-additive": lambda p: (abs(p.get("sigma0", 1.0)), 0.0, 0.0),
    "fbm-trig": lambda p: (math.sqrt(2.0) * abs(p.get("kappa", 1.0)),) * 3,
}


@pytest.mark.parametrize("name,params", _DEFAULT_PRESETS + [
    ("linear-growth", {"a": -2.5}),
    ("trig", {"kappa": -1.3}),
    ("fbm-trig", {"H": 0.1, "kappa": -1.3}),
    ("fbm-additive", {"H": 0.1, "sigma0": -2.0}),
    ("fbm-additive", {"H": 0.7, "sigma0": -2.0}),
])
def test_check_assumptions_clean_presets(name, params):
    # every preset's g lies inside its envelope for |x| up to 1e8, and each
    # nonzero scale is reached within a factor 2, so halving one fails
    c = K.make_preset(name, **params)
    tail = np.logspace(-3.0, 8.0, 89)
    xs = np.concatenate([-tail, np.linspace(-4.0, 4.0, 161), tail])
    growth = (np.abs(c.b(1.0, 0.5, xs)) + np.abs(c.sigma(1.0, 0.5, xs))) / (1.0 + np.abs(xs))
    first = np.abs(c.db(1.0, 0.5, xs)) + np.abs(c.dsigma(1.0, 0.5, xs))
    second = np.abs(c.d2b(1.0, 0.5, xs)) + np.abs(c.d2sigma(1.0, 0.5, xs))
    for kind, val, k in zip(("growth", "first", "second"), (growth, first, second),
                            _ENVELOPES[name](params)):
        assert np.all(val <= k * (1.0 + 1e-9)), (name, kind)
        assert k == 0.0 or val.max() > 0.5 * k, (name, kind)
