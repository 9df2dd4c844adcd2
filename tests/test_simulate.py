import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import special

from conftest import dense_D
from volfluct import kernels
from volfluct.kernels import make_preset
from volfluct.deterministic import (DivergenceError, TimeGrid, _on_path,
                                    solve_deterministic_limit,
                                    solve_derivative_field, variance_of_Y)
from volfluct import simulate as sim


def _zero_sigma(base):
    zero = lambda t, s, x: np.zeros(np.shape(x))
    return dataclasses.replace(base, sigma=zero, dsigma=zero, d2sigma=zero)


def _solved(c, grid, x0):
    """The limit path and derivative field the driver takes."""
    x = solve_deterministic_limit(c, grid, x0)
    return x, solve_derivative_field(c, grid, x)


def _pipeline(name, grid, x0, **params):
    c = make_preset(name, **params)
    return (c,) + _solved(c, grid, x0)


def _y_exact(D, batch):
    """Reference Y by Clark-Ocone synthesis, Y_{t_j} = sum_{i<j} D[i, j] dB_i:
    exactly Gaussian on the grid with variance sum_{i<j} D[i, j]^2 delta."""
    if D.grid != batch.grid:
        raise ValueError("derivative field and batch live on different grids")
    return sim.PathEnsemble(values=batch.increments @ np.triu(dense_D(D), 1),
                            grid=D.grid, seed=batch.seed)


# ---------------------------------------------------------------------------
# Brownian batch
# ---------------------------------------------------------------------------


def test_brownian_reproducible_and_seed_sensitive():
    g = TimeGrid(T=1.0, N=32)
    a = sim.sample_brownian(50, g, 7)
    b = sim.sample_brownian(50, g, 7)
    np.testing.assert_array_equal(a.increments, b.increments)
    c = sim.sample_brownian(50, g, 8)
    assert not np.array_equal(a.increments, c.increments)


def test_brownian_stream_stable_under_batch_growth():
    # row m depends only on (seed, m): growing M must not reshuffle draws
    g = TimeGrid(T=1.0, N=17)
    small = sim.sample_brownian(10, g, 123)
    big = sim.sample_brownian(25, g, 123)
    np.testing.assert_array_equal(small.increments, big.increments[:10])


def test_brownian_chunk_addressing():
    g = TimeGrid(T=1.0, N=13)  # N prime: chunk edges fall inside counter blocks
    whole = sim.sample_brownian(9, g, 5).increments
    part = sim._increment_rows(5, g, 4, 7)
    np.testing.assert_array_equal(part, whole[4:7])


def test_shared_draw_spans_row_blocks():
    # at N = 13 the row blocks hold 5041 rows, so M = 12000 takes three RNG
    # calls whose edges (draws 65533 and 131066) fall inside 4-word counter
    # blocks; the time-major draw must equal one call over all the rows
    g = TimeGrid(T=1.0, N=13)
    M = 12000
    assert len(sim._row_blocks(13, 0, M)) == 3
    assert all(r0 * 13 % 4 for r0, _ in sim._row_blocks(13, 0, M)[1:])
    got = sim.sample_brownian(M, g, 5).increments
    np.testing.assert_array_equal(got, sim._increment_rows(5, g, 0, M))


@pytest.mark.parametrize("N,rows", [(13, [(0, 9), (4, 7), (5, 6), (3, 11)]),
                                     (256, [(0, 3), (1, 4), (2, 2050)])])
def test_increment_rows_follow_the_stated_rng_scheme(N, rows):
    # the reproducibility statement, rebuilt from Philox's raw 64-bit words:
    # draw k is ndtri((word_k >> 11) 2^-53 + 2^-54) sqrt(delta), and row m
    # holds draws m N .. m N + N - 1; N = 13 puts chunk edges inside the
    # 4-word counter blocks
    g = TimeGrid(T=1.0, N=N)
    seed = 2 ** 63 + 12345
    for m0, m1 in rows:
        words = np.random.Philox(key=seed).random_raw(m1 * N)[m0 * N:]
        u = (words >> np.uint64(11)).astype(float) * 2.0 ** -53
        want = special.ndtri(u + 2.0 ** -54) * math.sqrt(g.delta)
        got = sim._increment_rows(seed, g, m0, m1)
        assert got.shape == (m1 - m0, N)
        np.testing.assert_array_equal(got, want.reshape(m1 - m0, N))


def test_brownian_moments():
    g = TimeGrid(T=1.0, N=64)
    inc = sim.sample_brownian(20000, g, 11).increments
    n = inc.size
    sd = math.sqrt(g.delta)
    assert abs(inc.mean()) < 3.0 * sd / math.sqrt(n)
    rel_se = math.sqrt(2.0 / n)
    assert abs(inc.var() / g.delta - 1.0) < 3.0 * rel_se


def test_brownian_validation():
    g = TimeGrid(T=1.0, N=8)
    with pytest.raises(ValueError):
        sim.sample_brownian(0, g, 1)
    with pytest.raises(ValueError):
        sim.sample_brownian(5, g, -1)


# ---------------------------------------------------------------------------
# X and the fluctuation
# ---------------------------------------------------------------------------


def test_sigma_zero_reproduces_limit_bitwise():
    g = TimeGrid(T=1.0, N=64)
    c = _zero_sigma(make_preset("linear-growth", a=0.8))
    x = solve_deterministic_limit(c, g, 1.3)
    batch = sim.sample_brownian(7, g, 99)
    X = sim.simulate_X(c, g, 1.3, 0.3, batch)
    np.testing.assert_array_equal(
        X.values, np.broadcast_to(x.values, X.values.shape))


@pytest.mark.parametrize("name,params", [("trig", {}), ("linear-growth", {"a": 0.8}),
                                         ("multiplicative", {}), ("fbm-trig", {"H": 0.7})])
def test_limit_path_is_x_step_at_zero_eps(name, params):
    # the limit runs X's own step at eps = 0, which has no noise term; X
    # with sigma a zero lambda keeps its noise term, adds zeros and lands
    # on the limit path, bit for bit where the engine telescopes; the
    # kernel branch's mat-vec over 7 paths differs from the one over 1
    g = TimeGrid(T=1.0, N=32)
    c = make_preset(name, **params)
    assert sim._x(c, g, 0.0)(0, np.ones((1, 3)), None)[1] is None
    quiet = dataclasses.replace(c, sigma=lambda t, s, x: np.zeros(np.shape(x)))
    x = solve_deterministic_limit(c, g, 1.3)
    X = sim.simulate_X(quiet, g, 1.3, 0.3, sim.sample_brownian(7, g, 99)).values
    want = np.broadcast_to(x.values, X.shape)
    if c.kernel is None:
        np.testing.assert_array_equal(X, want)
    else:
        np.testing.assert_allclose(X, want, rtol=1e-14, atol=0.0)


def test_additive_unit_is_shifted_brownian():
    g = TimeGrid(T=1.0, N=32)
    c = make_preset("additive-unit")
    batch = sim.sample_brownian(40, g, 3)
    X = sim.simulate_X(c, g, 1.0, 0.2, batch)
    B = np.cumsum(batch.increments, axis=1)
    np.testing.assert_allclose(X.values[:, 1:], 1.0 + 0.2 * B, rtol=1e-13)
    np.testing.assert_array_equal(X.values[:, 0], np.ones(40))


def test_fluctuation_equals_euler_gaussian_for_dyadic_eps():
    # b = 0, sigma = 1, x0 = 0, eps = 2^-2: scaling is exact in binary
    g = TimeGrid(T=1.0, N=64)
    c, x, D = _pipeline("additive-unit", g, 0.0)
    nodes = range(1, g.N + 1)
    out = sim.coupled_terminal_samples(c, x, D, (0.25,), 30, 21, observe=nodes)
    for j in nodes:
        np.testing.assert_array_equal(out["Xt"][0.25][j], out["Y"][j])
    assert list(out["Xt"]) == [0.25]


def test_simulate_x_validation():
    g = TimeGrid(T=1.0, N=8)
    c = make_preset("additive-unit")
    batch = sim.sample_brownian(3, g, 2)
    for bad_eps in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            sim.simulate_X(c, g, 0.0, bad_eps, batch)
    with pytest.raises(ValueError):
        sim.simulate_X(c, TimeGrid(T=1.0, N=16), 0.0, 0.5, batch)


def test_multiplicative_terminal_moments():
    # X_T = x0 prod(1 + eps dB): mean x0, second moment x0^2 (1+eps^2 d)^N
    g = TimeGrid(T=1.0, N=512)
    c = make_preset("multiplicative")
    M = 20000
    eps, x0 = 0.3, 1.5
    batch = sim.sample_brownian(M, g, 31)
    XT = sim.simulate_X(c, g, x0, eps, batch).values[:, -1]
    se_mean = XT.std(ddof=1) / math.sqrt(M)
    assert abs(XT.mean() - x0) < 3.0 * se_mean
    m2 = XT ** 2
    target = x0 ** 2 * (1.0 + eps ** 2 * g.delta) ** g.N
    se_m2 = m2.std(ddof=1) / math.sqrt(M)
    assert abs(m2.mean() - target) < 3.0 * se_m2


# ---------------------------------------------------------------------------
# Y: exact synthesis vs Euler recursion
# ---------------------------------------------------------------------------


def test_y_exact_variance_matches_quadrature():
    g = TimeGrid(T=1.0, N=128)
    c, x, D = _pipeline("trig", g, 1.0, kappa=1.0)
    var = variance_of_Y(D, g)
    M = 50000
    Y = _y_exact(D, sim.sample_brownian(M, g, 17))
    for j in (64, 128):
        sample = Y.values[:, j].var()
        target = var.values[j]
        assert abs(sample / target - 1.0) < 3.0 * math.sqrt(2.0 / (M - 1)), j


def test_y_exact_equals_euler_without_drift_linearization():
    # b' = 0 makes both routes plain weighted sums of the increments
    g = TimeGrid(T=1.0, N=64)
    for name in ("additive-unit", "multiplicative"):
        c, x, D = _pipeline(name, g, 1.3)
        batch = sim.sample_brownian(25, g, 5)
        a = _y_exact(D, batch)
        b = sim.simulate_Y_euler(c, g, x, batch)
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


def test_y_exact_euler_gap_shrinks_first_order():
    M = 4000
    rms = {}
    for N in (64, 128):
        g = TimeGrid(T=1.0, N=N)
        c, x, D = _pipeline("linear-growth", g, 1.0, a=1.0)
        batch = sim.sample_brownian(M, g, 13)
        gap = (_y_exact(D, batch).values[:, -1]
               - sim.simulate_Y_euler(c, g, x, batch).values[:, -1])
        rms[N] = math.sqrt(float(np.mean(gap ** 2)))
    assert 0.35 < rms[128] / rms[64] < 0.65


def test_zero_increments_give_zero_processes():
    g = TimeGrid(T=1.0, N=32)
    c, x, D = _pipeline("trig", g, 1.0)
    batch = sim.BrownianBatch(M=4, grid=g, seed=0,
                              increments=np.zeros((4, 32)))
    Y = sim.simulate_Y_euler(c, g, x, batch)
    np.testing.assert_array_equal(Y.values, np.zeros((4, 33)))
    np.testing.assert_array_equal(_y_exact(D, batch).values,
                                  np.zeros((4, 33)))
    Z = sim.simulate_Z(c, g, x, Y, batch)
    np.testing.assert_array_equal(Z.values, np.zeros((4, 33)))
    X = sim.simulate_X(c, g, 1.0, 0.2, batch)
    np.testing.assert_array_equal(
        X.values, np.broadcast_to(x.values, (4, 33)))


# ---------------------------------------------------------------------------
# Z and DZ
# ---------------------------------------------------------------------------


def test_z_vanishes_without_curvature_or_sigma_slope():
    g = TimeGrid(T=1.0, N=32)
    for name, params in (("additive-unit", {}), ("linear-growth", {"a": 0.7})):
        c, x, D = _pipeline(name, g, 1.0, **params)
        batch = sim.sample_brownian(20, g, 9)
        Y = sim.simulate_Y_euler(c, g, x, batch)
        Z = sim.simulate_Z(c, g, x, Y, batch)
        np.testing.assert_array_equal(Z.values, np.zeros((20, 33)))
        DZ = sim.simulate_DZ_terminal(c, g, x, Y, D, batch)
        np.testing.assert_array_equal(DZ, np.zeros((20, 32)))


def test_z_multiplicative_discrete_identity():
    # b = 0, sigma = x: Z_t = 2 x0 sum B_{i-1} dB_i = x0 (B_t^2 - sum dB^2)
    g = TimeGrid(T=1.0, N=64)
    x0 = 1.4
    c, x, D = _pipeline("multiplicative", g, x0)
    batch = sim.sample_brownian(200, g, 23)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    Z = sim.simulate_Z(c, g, x, Y, batch)
    B = np.cumsum(batch.increments, axis=1)
    sq = np.cumsum(batch.increments ** 2, axis=1)
    np.testing.assert_allclose(Z.values[:, 1:], x0 * (B ** 2 - sq),
                               rtol=0, atol=1e-11)


def test_z_terminal_gap_is_half_order():
    # against the continuum x0 (B_T^2 - T): RMS gap = x0 sqrt(2 T delta),
    # so quadrupling N halves it
    M, x0 = 4000, 1.0
    rms = {}
    for N in (64, 256):
        g = TimeGrid(T=1.0, N=N)
        c, x, D = _pipeline("multiplicative", g, x0)
        batch = sim.sample_brownian(M, g, 29)
        Y = sim.simulate_Y_euler(c, g, x, batch)
        ZT = sim.simulate_Z(c, g, x, Y, batch).values[:, -1]
        BT = batch.increments.sum(axis=1)
        gap = ZT - x0 * (BT ** 2 - 1.0)
        rms[N] = math.sqrt(float(np.mean(gap ** 2)))
        # the gap RMS itself is known in closed form
        assert rms[N] == pytest.approx(x0 * math.sqrt(2.0 * g.delta),
                                       rel=0.15)
    assert 0.35 < rms[256] / rms[64] < 0.65


def test_z_mean_matches_deterministic_recursion():
    # E Z_t solves the linear recursion with source b'' E Y^2; the Euler
    # second moment of Y is itself a closed two-term recursion
    g = TimeGrid(T=1.0, N=64)
    c, x, D = _pipeline("trig", g, 1.0, kappa=1.0)
    M = 40000
    batch = sim.sample_brownian(M, g, 41)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    ZT = sim.simulate_Z(c, g, x, Y, batch).values[:, -1]

    d = g.delta
    xv = x.values
    bp = np.asarray(c.db(g.nodes[1:], g.midpoints, xv[:-1]), dtype=float)
    bpp = np.asarray(c.d2b(g.nodes[1:], g.midpoints, xv[:-1]), dtype=float)
    sg = np.asarray(c.sigma(g.nodes[1:], g.midpoints, xv[:-1]), dtype=float)
    ez = 0.0
    v = 0.0
    for i in range(g.N):
        ez = ez + (bp[i] * ez + bpp[i] * v) * d
        v = v * (1.0 + bp[i] * d) ** 2 + sg[i] ** 2 * d
    se = ZT.std(ddof=1) / math.sqrt(M)
    assert abs(ZT.mean() - ez) < 3.0 * se


def test_dz_multiplicative_closed_form():
    # D_theta Z_T = 2 x0 B_T for every theta row
    g = TimeGrid(T=1.0, N=32)
    x0 = 1.2
    c, x, D = _pipeline("multiplicative", g, x0)
    batch = sim.sample_brownian(60, g, 37)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    DZ = sim.simulate_DZ_terminal(c, g, x, Y, D, batch)
    BT = batch.increments.sum(axis=1)
    np.testing.assert_allclose(
        DZ, np.broadcast_to(2.0 * x0 * BT[:, None], DZ.shape), rtol=1e-10)


def _unit_kernel(grid):
    return np.triu(np.ones((grid.N, grid.N + 1)), 1)


def test_engines_agree_when_kernel_path_is_forced():
    # the mat-vec branch with K = 1 must match the telescoped branch on a
    # state-only preset
    g = TimeGrid(T=1.0, N=12)
    c, x, D = _pipeline("trig", g, 1.0, kappa=0.8)
    forced = dataclasses.replace(c, kernel=_unit_kernel)
    assert forced.kernel is not None and c.kernel is None
    xf, Df = _solved(forced, g, 1.0)
    np.testing.assert_allclose(xf.values, x.values, rtol=1e-13)
    np.testing.assert_allclose(dense_D(Df), dense_D(D), rtol=0, atol=1e-13)
    batch = sim.sample_brownian(6, g, 53)

    Xa = sim.simulate_X(c, g, 1.0, 0.2, batch)
    Xb = sim.simulate_X(forced, g, 1.0, 0.2, batch)
    np.testing.assert_allclose(Xa.values, Xb.values, rtol=1e-11)

    Ya = sim.simulate_Y_euler(c, g, x, batch)
    Yb = sim.simulate_Y_euler(forced, g, x, batch)
    np.testing.assert_allclose(Ya.values, Yb.values, rtol=0, atol=1e-13)

    Za = sim.simulate_Z(c, g, x, Ya, batch)
    Zb = sim.simulate_Z(forced, g, x, Ya, batch)
    np.testing.assert_allclose(Za.values, Zb.values, rtol=0, atol=1e-13)

    Da = sim.simulate_DZ_terminal(c, g, x, Ya, D, batch)
    Db = sim.simulate_DZ_terminal(forced, g, x, Ya, D, batch)
    np.testing.assert_allclose(Da, Db, rtol=0, atol=1e-12)


def _volterra_oracle(c, H, g, x0, eps, dB):
    """The defining Volterra sums, evaluated pointwise as K_H(t, s) times the
    preset's state callables: limit x, field D, X, Y, Z and the DZ rows."""
    M, N = dB.shape
    t, s, d = g.nodes, g.midpoints, g.delta
    p = kernels.fbm_kernel_params(H)
    f = {name: (lambda fn: lambda j, i, v: kernels.eval_fbm_kernel(p, t[j], s[i])
                * np.asarray(fn(t[j], s[i], v), dtype=float))(
        getattr(c, name)) for name in ("b", "sigma", "db", "dsigma", "d2b")}
    x = np.full(N + 1, float(x0))
    D = np.zeros((N, N + 1))
    X = np.full((M, N + 1), float(x0))
    Y = np.zeros((M, N + 1))
    Z = np.zeros((M, N + 1))
    for j in range(1, N + 1):
        x[j] = x0 + sum(f["b"](j, i, x[i]) for i in range(j)) * d
        for i in range(j):
            X[:, j] += (f["b"](j, i, X[:, i]) * d
                        + eps * f["sigma"](j, i, X[:, i]) * dB[:, i])
            Y[:, j] += (f["db"](j, i, x[i]) * Y[:, i] * d
                        + f["sigma"](j, i, x[i]) * dB[:, i])
            Z[:, j] += ((f["db"](j, i, x[i]) * Z[:, i]
                         + f["d2b"](j, i, x[i]) * Y[:, i] ** 2) * d
                        + 2.0 * f["dsigma"](j, i, x[i]) * Y[:, i] * dB[:, i])
    for i in range(N):
        D[i, i] = f["sigma"](i + 1, i, x[i])
        for j in range(i + 1, N + 1):
            D[i, j] = f["sigma"](j, i, x[i]) + d * sum(
                f["db"](j, k, x[k]) * D[i, k] for k in range(i, j))
    DZ = np.zeros((M, N))
    for i in range(N):
        A = np.zeros((M, N + 1))
        A[:, i] = 2.0 * f["dsigma"](i + 1, i, x[i]) * Y[:, i]
        for j in range(i + 1, N + 1):
            A[:, j] = 2.0 * f["dsigma"](j, i, x[i]) * Y[:, i]
            for k in range(i, j):
                A[:, j] += (d * f["db"](j, k, x[k]) * A[:, k]
                            + 2.0 * d * f["d2b"](j, k, x[k]) * Y[:, k] * D[i, k]
                            + 2.0 * f["dsigma"](j, k, x[k]) * D[i, k] * dB[:, k])
        DZ[:, i] = A[:, N]
    return x, D, X, Y, Z, DZ


@pytest.mark.parametrize("name,params", [
    ("fbm-trig", {"H": 0.7, "kappa": 0.8}),
    ("fbm-trig", {"H": 0.3}),
    ("fbm-additive", {"H": 0.7, "sigma0": 1.5}),
    # state-only presets against the oracle at H = 1/2, where K_H = 1: an
    # independent check of the telescoped engines and DZ weights
    ("trig", {"kappa": 0.8}),
    ("multiplicative", {}),
    # steps without terms: additive-unit drops X's drift and every Z term,
    # linear-growth drops Z's b'' term alone
    ("additive-unit", {}),
    ("linear-growth", {"a": 0.7}),
])
def test_kernel_engines_match_pointwise_oracle(name, params):
    g = TimeGrid(T=1.0, N=8)
    x0, eps, M, seed = 1.0, 0.2, 5, 91
    c, x, D = _pipeline(name, g, x0, **params)
    H = params.get("H", 0.5)
    assert (c.kernel is None) == kernels.fbm_kernel_params(H).brownian
    batch = sim.sample_brownian(M, g, seed)
    ox, oD, oX, oY, oZ, oDZ = _volterra_oracle(c, H, g, x0, eps, batch.increments)
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(x.values, ox, **tol)
    np.testing.assert_allclose(dense_D(D), oD, **tol)
    X = sim.simulate_X(c, g, x0, eps, batch)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    Z = sim.simulate_Z(c, g, x, Y, batch)
    DZ = sim.simulate_DZ_terminal(c, g, x, Y, D, batch)
    np.testing.assert_allclose(X.values, oX, **tol)
    np.testing.assert_allclose(Y.values, oY, **tol)
    np.testing.assert_allclose(Z.values, oZ, **tol)
    np.testing.assert_allclose(DZ, oDZ, **tol)
    out = sim.coupled_terminal_samples(c, x, D, (eps,), M, seed, with_dzdy=True)
    np.testing.assert_allclose(out["dzdy"][8], (oDZ @ oD[:, 8]) * g.delta, **tol)
    np.testing.assert_allclose(out["Z"][8], oZ[:, 8], **tol)


def test_z_keeps_its_b1_term_when_only_b2_is_zero():
    # linear drift with multiplicative noise: b'' is zero, so Z's step drops
    # b'' Y^2 alone, and its b' Z term moves Z here, as sigma' = 1
    g = TimeGrid(T=1.0, N=8)
    m = make_preset("multiplicative")
    c = dataclasses.replace(make_preset("linear-growth", a=0.7),
                            sigma=m.sigma, dsigma=m.dsigma)
    x, D = _solved(c, g, 1.0)
    batch = sim.sample_brownian(5, g, 91)
    _, _, _, oY, oZ, _ = _volterra_oracle(c, 0.5, g, 1.0, 0.2, batch.increments)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    Z = sim.simulate_Z(c, g, x, Y, batch)
    assert np.abs(oZ[:, 8]).min() > 1e-3
    np.testing.assert_allclose(Z.values, oZ, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name,params", [("multiplicative", {}),
                                         ("fbm-additive", {"H": 0.7})])
def test_zero_drift_by_identity_matches_the_full_step(name, params, threads):
    # b is the declared zero function, so X's step drops its drift term; a
    # zero lambda in its place takes the full step, and every number agrees
    g = TimeGrid(T=1.0, N=16)
    c = make_preset(name, **params)
    full = dataclasses.replace(c, b=lambda t, s, x: np.zeros(np.shape(x)))
    V, dB = np.ones((1, 3)), np.full(3, 0.5)
    assert sim._x(c, g, 0.2)(0, V, dB)[0] is None
    assert sim._x(full, g, 0.2)(0, V, dB)[0] is not None
    M, seed, sweep = sim._CHUNK_ROWS + 37, 13, (0.2, 0.1)
    lean, ref = (sim.coupled_terminal_samples(cs, *_solved(cs, g, 1.0), sweep, M, seed,
                                              observe=(5, 11), with_dzdy=True,
                                              threads=threads)
                 for cs in (c, full))
    for key in ("X", "Xt"):
        for eps in sweep:
            for j, col in ref[key][eps].items():
                assert np.array_equal(lean[key][eps][j], col), (key, eps, j)
    for key in ("Y", "Z", "dzdy"):
        for j, col in ref[key].items():
            assert np.array_equal(lean[key][j], col), (key, j)


def test_divergence_names_first_node_then_first_path():
    # linear growth with a = 1e40 overflows about eleven nodes after a
    # path's first nonzero increment: paths 3 and 4 diverge at node 11,
    # path 1 only later, paths 0 and 2 never
    g = TimeGrid(T=1.0, N=16)
    c = make_preset("linear-growth", a=1e40)
    x = solve_deterministic_limit(c, g, 0.0)
    inc = np.zeros((5, 16))
    inc[1, 6] = 0.25
    inc[3, 2] = 0.25
    inc[4, 2] = -0.25
    batch = sim.BrownianBatch(M=5, grid=g, seed=0, increments=inc)
    for coeff in (c, dataclasses.replace(c, kernel=_unit_kernel)):
        for what, run in (("X", lambda: sim.simulate_X(coeff, g, 0.0, 0.5, batch)),
                          ("Y", lambda: sim.simulate_Y_euler(coeff, g, x, batch))):
            with pytest.raises(DivergenceError) as exc:
                run()
            assert (exc.value.node, exc.value.path) == (11, 3)
            assert str(exc.value) == "%s diverged at path 3, node 11" % what


def test_coupling_is_enforced():
    g = TimeGrid(T=1.0, N=16)
    c, x, D = _pipeline("trig", g, 1.0)
    batch = sim.sample_brownian(10, g, 61)
    other = sim.sample_brownian(10, g, 62)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    with pytest.raises(ValueError):
        sim.simulate_Z(c, g, x, Y, other)
    with pytest.raises(ValueError):
        sim.simulate_DZ_terminal(c, g, x, Y, D, other)
    g2 = TimeGrid(T=1.0, N=32)
    with pytest.raises(ValueError):
        _y_exact(D, sim.sample_brownian(10, g2, 61))


# ---------------------------------------------------------------------------
# coupled chunked driver
# ---------------------------------------------------------------------------


def _flat(out, prefix=()):
    """Driver output as {(process, [eps,] node): array}."""
    for key, v in out.items():
        if isinstance(v, dict):
            yield from _flat(v, prefix + (key,))
        else:
            yield prefix + (key,), v


def _assert_same_outputs(a, b):
    a, b = dict(_flat(a)), dict(_flat(b))
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def test_coupled_driver_matches_direct_pipeline():
    g = TimeGrid(T=1.0, N=32)
    x0, eps, M, seed = 1.0, 0.2, 2500, 71  # crosses one chunk boundary
    c, x, D = _pipeline("trig", g, x0)
    out = sim.coupled_terminal_samples(c, x, D, (eps,), M, seed,
                                       observe=(16,), with_dzdy=True)
    batch = sim.sample_brownian(M, g, seed)
    X = sim.simulate_X(c, g, x0, eps, batch)
    Xt = (X.values - x.values) / eps
    Y = sim.simulate_Y_euler(c, g, x, batch)
    Z = sim.simulate_Z(c, g, x, Y, batch)
    DZ = sim.simulate_DZ_terminal(c, g, x, Y, D, batch)
    for j in (16, 32):
        np.testing.assert_array_equal(out["X"][eps][j], X.values[:, j])
        np.testing.assert_array_equal(out["Xt"][eps][j], Xt[:, j])
        np.testing.assert_array_equal(out["Y"][j], Y.values[:, j])
        np.testing.assert_array_equal(out["Z"][j], Z.values[:, j])
    # matmul-backed outputs shift at ULP level with the BLAS row blocking,
    # so chunked and whole-batch runs differ in the last bit
    np.testing.assert_allclose(out["dzdy"][32], (DZ @ dense_D(D)[:, 32]) * g.delta,
                               rtol=1e-12, atol=1e-15)


def _dz_weight_recursion(c, grid, xv):
    """The DZ weight w by the backward recursion r_N = 1,
    w_k = sum_{m>k} K[k, m] r_m, r_k = delta b'_k w_k (K = 1 without a
    kernel): the reference for the resolvent's last row."""
    N, d = grid.N, grid.delta
    K = c.on_grid(grid)
    bp = _on_path(c.db, grid, xv)
    r = np.empty(N + 1)
    r[N] = 1.0
    w = np.empty(N)
    for k in range(N - 1, -1, -1):
        w[k] = r[k + 1:].sum() if K is None else K[k, k + 1:] @ r[k + 1:]
        r[k] = d * bp[k] * w[k]
    return w


@pytest.mark.parametrize("name,params", [("trig", {"kappa": 0.8}), ("multiplicative", {}),
                                         ("fbm-trig", {"H": 0.7, "kappa": 0.8}),
                                         ("linear-growth", {}), ("fbm-trig", {"H": 0.3})])
def test_euler_y_is_the_tangent_applied_to_the_increments(name, params):
    # Euler Y is linear in the increments, Y_j = sum_i C[j, i] dB_i, with
    # the tangent C = R diag(sigma) read off the field's resolvent: the
    # identity that turns the DZ pairing into one vector of the increments.
    # R's last row is the DZ weight w of the backward recursion.
    g = TimeGrid(T=1.0, N=8)
    c, x, D = _pipeline(name, g, 1.0, **params)
    batch = sim.sample_brownian(5, g, 91)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    assert D.R.shape == (g.N + 1, g.N)
    C = D.R * _on_path(c.sigma, g, x.values)
    np.testing.assert_allclose(Y.values, batch.increments @ C.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(D.R[g.N], _dz_weight_recursion(c, g, x.values),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("N", [8, 50])
@pytest.mark.parametrize("name,params", [("additive-unit", {}), ("multiplicative", {}),
                                         ("linear-growth", {}), ("trig", {}),
                                         ("fbm-additive", {"H": 0.7}),
                                         ("fbm-trig", {"H": 0.3}), ("fbm-trig", {"H": 0.7})])
def test_resolvent_is_euler_y_with_unit_sigma_on_unit_increments(name, params, N):
    # the field's resolvent is Y's own step with unit sigma, one path per
    # cell driven by a unit increment there: R = Y.values.T bit for bit
    g = TimeGrid(T=1.0, N=N)
    c, x, D = _pipeline(name, g, 0.7, **params)
    unit = sim.BrownianBatch(M=N, grid=g, seed=0, increments=np.eye(N))
    Y = sim.simulate_Y_euler(dataclasses.replace(c, sigma=kernels._unit_coeff), g, x, unit)
    np.testing.assert_array_equal(Y.values.T, D.R)


@pytest.mark.parametrize("name,params", [("multiplicative", {}),
                                         ("trig", {"kappa": 1.1}),
                                         ("fbm-trig", {"H": 0.7, "kappa": 0.9})])
def test_driver_dzdy_contraction_equals_matrix_pairing(name, params):
    # delta = 1/50 is no power of two, and 2100 paths cross a chunk boundary
    g = TimeGrid(T=1.0, N=50)
    c, x, D = _pipeline(name, g, 1.0, **params)
    M, seed = 2100, 73
    a, b = (sim.coupled_terminal_samples(c, x, D, (0.2,), M, seed, with_dzdy=True,
                                         threads=threads)["dzdy"][50]
            for threads in (1, 2))
    np.testing.assert_array_equal(a, b)
    batch = sim.sample_brownian(M, g, seed)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    DZ = sim.simulate_DZ_terminal(c, g, x, Y, D, batch)
    np.testing.assert_allclose(a, (DZ @ dense_D(D)[:, 50]) * g.delta, rtol=1e-12, atol=1e-15)


def test_driver_never_forms_the_dz_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("the driver formed the (M, N) DZ rows")

    monkeypatch.setattr(sim, "simulate_DZ_terminal", refuse)
    g = TimeGrid(T=1.0, N=16)
    c, x, D = _pipeline("trig", g, 1.0)
    out = sim.coupled_terminal_samples(c, x, D, (0.2,), 300, 5, with_dzdy=True)
    assert np.all(np.isfinite(out["dzdy"][16]))


@pytest.mark.parametrize("name,params", [("trig", {}), ("fbm-trig", {"H": 0.7})])
def test_driver_runs_no_derivative_solve(monkeypatch, name, params):
    # the pairing vector is read off the field's resolvent, so the only
    # engine runs of a with-dzdy call are the chunk's own: X, then Y and Z
    g = TimeGrid(T=1.0, N=16)
    c, x, D = _pipeline(name, g, 1.0, **params)
    runs = []
    engine = sim._volterra

    def counted(K, base, dBt, steps, keep):
        runs.append((dBt.shape, len(steps)))
        return engine(K, base, dBt, steps, keep)

    monkeypatch.setattr(sim, "_volterra", counted)
    out = sim.coupled_terminal_samples(c, x, D, (0.2,), 300, 5, with_dzdy=True)
    assert runs == [((16, 300), 1), ((16, 300), 2)]
    assert np.all(np.isfinite(out["dzdy"][16]))


@pytest.mark.filterwarnings("error")
def test_driver_divergent_field_raises_without_warnings():
    # x0 = 1e160 overflows the DZ weights, which the driver builds before any
    # chunk; Z stays finite, as b'' is identically zero and its Y^2 term is
    # dropped, so the stage order names DZ, and no RuntimeWarning leaks
    g = TimeGrid(T=1.0, N=16)
    c, x, D = _pipeline("multiplicative", g, 1e160)
    with pytest.raises(DivergenceError, match=r"^DZ diverged at path 0, node 16$"):
        sim.coupled_terminal_samples(c, x, D, (0.5,), 300, 6, with_dzdy=True)


def test_whole_batch_dz_divergence_raises_without_warnings():
    # a huge sigma' overflows the DZ weights and the whole-batch products;
    # the field readers and the call itself keep numpy's warnings in, so
    # the one report is the first bad path at the terminal node
    g = TimeGrid(T=1.0, N=16)
    c = dataclasses.replace(make_preset("multiplicative"),
                            dsigma=lambda t, s, x: np.full(np.shape(x), 1e200))
    x, D = _solved(c, g, 1e150)
    batch = sim.sample_brownian(50, g, 3)
    Y = sim.simulate_Y_euler(c, g, x, batch)
    with pytest.raises(DivergenceError, match=r"^DZ diverged at path 0, node 16$"):
        sim.simulate_DZ_terminal(c, g, x, Y, D, batch)


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("name,params", [("multiplicative", {}),
                                         ("fbm-trig", {"H": 0.7, "kappa": 0.9})])
def test_driver_workspace_reuse_matches_whole_batch(name, params, threads):
    # each worker reuses its dBt buffer across chunks: the short last chunk
    # (37 rows) reshapes it; every observed column must still equal the
    # whole-batch engines.
    # More workers than cores and a short switch interval make a workspace
    # shared between threads show.
    g = TimeGrid(T=1.0, N=16)
    c, x, D = _pipeline(name, g, 1.0, **params)
    M, seed, sweep = 2 * sim._CHUNK_ROWS + 37, 97, (0.2, 0.1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = sim.coupled_terminal_samples(c, x, D, sweep, M, seed, observe=(8,),
                                           threads=threads)
    finally:
        sys.setswitchinterval(interval)
    batch = sim.sample_brownian(M, g, seed)
    X = {eps: sim.simulate_X(c, g, 1.0, eps, batch) for eps in sweep}
    Y = sim.simulate_Y_euler(c, g, x, batch)
    Z = sim.simulate_Z(c, g, x, Y, batch)
    for j in (8, 16):
        for eps in sweep:
            np.testing.assert_array_equal(out["X"][eps][j], X[eps].values[:, j])
        np.testing.assert_array_equal(out["Y"][j], Y.values[:, j])
        np.testing.assert_array_equal(out["Z"][j], Z.values[:, j])


def test_coupled_driver_thread_count_is_invisible():
    g = TimeGrid(T=1.0, N=24)
    c = make_preset("trig", kappa=1.1)
    x, D = _solved(c, g, 1.0)
    kw = dict(observe=(12, 24), with_dzdy=True)
    a = sim.coupled_terminal_samples(c, x, D, (0.1,), 5000, 83, threads=1, **kw)
    b = sim.coupled_terminal_samples(c, x, D, (0.1,), 5000, 83, threads=4, **kw)
    _assert_same_outputs(a, b)


def test_coupled_driver_fbm_thread_count_is_invisible():
    g = TimeGrid(T=1.0, N=16)
    c = make_preset("fbm-trig", H=0.7, kappa=0.9)
    x, D = _solved(c, g, 1.0)
    kw = dict(observe=(8, 16), with_dzdy=True)
    a = sim.coupled_terminal_samples(c, x, D, (0.1,), 4200, 87, threads=1, **kw)
    b = sim.coupled_terminal_samples(c, x, D, (0.1,), 4200, 87, threads=2, **kw)
    _assert_same_outputs(a, b)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name,params", [("trig", {"kappa": 1.1}),
                                         ("fbm-trig", {"H": 0.7, "kappa": 0.9})])
def test_coupled_driver_sweep_equals_single_eps_calls(name, params, threads):
    # one pass over the sweep gives, bit for bit, what one call per eps gives
    g = TimeGrid(T=1.0, N=16)
    c = make_preset(name, **params)
    x, D = _solved(c, g, 1.0)
    sweep = (0.2, 0.1, 0.05)
    kw = dict(observe=(8,), with_dzdy=True, threads=threads)
    fused = dict(_flat(sim.coupled_terminal_samples(c, x, D, sweep, 2100, 89,
                                                    **kw)))
    seen = set()
    for eps in sweep:
        single = sim.coupled_terminal_samples(c, x, D, (eps,), 2100, 89, **kw)
        for key, v in _flat(single):
            np.testing.assert_array_equal(fused[key], v)
            seen.add(key)
    assert seen == fused.keys()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("sweep", [(0.5,), (0.1, 0.5)])
def test_coupled_driver_reports_divergence_like_whole_batch(sweep, threads):
    # b = x|x|^30: chunk 0 first fails at node 9 (path 1000), but over the
    # whole batch node 8 fails first, at path 2707 in chunk 1
    g = TimeGrid(T=1.0, N=16)
    c = dataclasses.replace(make_preset("additive-unit"), name="blow-up",
                            b=lambda t, s, x: x * np.abs(x) ** 30)
    with pytest.raises(DivergenceError) as whole:
        sim.simulate_X(c, g, 0.0, 0.5, sim.sample_brownian(6000, g, 6))
    with pytest.raises(DivergenceError) as exc:
        sim.coupled_terminal_samples(c, *_solved(c, g, 0.0), sweep, 6000, 6,
                                     with_dzdy=True, threads=threads)
    assert (exc.value.node, exc.value.path) == (8, 2707)
    assert str(exc.value) == str(whole.value) == "X diverged at path 2707, node 8"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("with_dzdy", [False, True])
def test_driver_names_y_before_z_in_one_chunk(with_dzdy, threads):
    # b'' = inf makes Z non-finite from node 1 on, while b' = 1e200 overflows
    # Y only at node 3; Y runs in lockstep with Z but is the earlier stage.
    # x and D come from the unmodified preset, whose field stays finite.
    g = TimeGrid(T=1.0, N=16)
    base = make_preset("additive-unit")
    x, D = _solved(base, g, 0.0)
    c = dataclasses.replace(base, name="y-and-z",
                            db=lambda t, s, x: np.full(np.shape(x), 1e200),
                            d2b=lambda t, s, x: np.full(np.shape(x), np.inf))
    M, seed = sim._CHUNK_ROWS + 37, 7
    with pytest.raises(DivergenceError) as whole:
        sim.simulate_Y_euler(c, g, x, sim.sample_brownian(M, g, seed))
    with pytest.raises(DivergenceError) as exc:
        sim.coupled_terminal_samples(c, x, D, (0.5,), M, seed, with_dzdy=with_dzdy,
                                     threads=threads)
    assert str(exc.value) == str(whole.value) == "Y diverged at path 0, node 3"


@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_branch_divergence_across_chunks_matches_whole_batch(threads):
    # the blow-up preset of the telescoping test above on the mat-vec branch:
    # chunk 0 first fails at node 9 (path 1000), the whole batch at node 8
    g = TimeGrid(T=1.0, N=16)
    c = dataclasses.replace(make_preset("additive-unit"), name="blow-up",
                            b=lambda t, s, x: x * np.abs(x) ** 30, kernel=_unit_kernel)
    with pytest.raises(DivergenceError) as chunk0:
        sim.simulate_X(c, g, 0.0, 0.5, sim.sample_brownian(sim._CHUNK_ROWS, g, 6))
    with pytest.raises(DivergenceError) as whole:
        sim.simulate_X(c, g, 0.0, 0.5, sim.sample_brownian(6000, g, 6))
    with pytest.raises(DivergenceError) as exc:
        sim.coupled_terminal_samples(c, *_solved(c, g, 0.0), (0.5,), 6000, 6,
                                     with_dzdy=True, threads=threads)
    assert (chunk0.value.node, chunk0.value.path) == (9, 1000)
    assert (exc.value.node, exc.value.path) == (whole.value.node, whole.value.path) == (8, 2707)
    assert str(exc.value) == str(whole.value) == "X diverged at path 2707, node 8"


def _band_kernel(grid):
    # K[i, i+1] = 1: node j sees only cell j - 1
    return np.eye(grid.N, grid.N + 1, 1)


def test_driver_checks_every_kernel_branch_node():
    # with a kernel a non-finite node need not reach T: x0 + b delta
    # overflows at every odd node, b vanishes at non-finite x and at t = T,
    # and the band kernel forgets each cell after one node, so X_T is finite
    g = TimeGrid(T=1.0, N=16)
    base = make_preset("additive-unit")
    x0 = 1.7e308
    c = dataclasses.replace(base, name="overflow", kernel=_band_kernel,
                            b=lambda t, s, x: np.where(np.isfinite(x) & (t < 1.0), 1.7e308, 0.0))
    batch = sim.sample_brownian(300, g, 7)
    X = np.empty((g.N + 1, 300))
    sim._volterra(c.on_grid(g), x0, np.ascontiguousarray(batch.increments.T),
                  [sim._x(c, g, 0.5)], [dict(enumerate(X))])
    assert np.isfinite(X[g.N]).all() and not np.isfinite(X[1]).any()
    with pytest.raises(DivergenceError) as whole:
        sim.simulate_X(c, g, x0, 0.5, batch)
    with pytest.raises(DivergenceError) as exc:
        sim.coupled_terminal_samples(c, *_solved(base, g, x0), (0.5,), 300, 7)
    assert str(exc.value) == str(whole.value) == "X diverged at path 0, node 1"


@pytest.mark.parametrize("case,what,path,node", [
    # the divergence tests above, each with the whole-batch figures they check
    ("telescoping", "X", 2707, 8),
    ("kernel", "X", 2707, 8),
    ("y-before-z", "Y", 0, 3),
    ("z-only", "DZ", 0, 16),
    ("z-d2b", "Z", 0, 2),
])
def test_driver_locates_divergence_without_whole_paths(monkeypatch, case, what, path, node):
    g = TimeGrid(T=1.0, N=16)
    base = make_preset("additive-unit")
    if case == "y-before-z":
        x, D = _solved(base, g, 0.0)
        c = dataclasses.replace(base, db=lambda t, s, x: np.full(np.shape(x), 1e200),
                                d2b=lambda t, s, x: np.full(np.shape(x), np.inf))
        M, seed = sim._CHUNK_ROWS + 37, 7
    elif case == "z-only":
        c, x, D = _pipeline("multiplicative", g, 1e160)
        M, seed = 300, 6
    elif case == "z-d2b":
        # a nonzero b'' keeps Z's Y^2 term, which overflows at node 2
        base, x, D = _pipeline("multiplicative", g, 1e160)
        c = dataclasses.replace(base, d2b=lambda t, s, x: np.full(np.shape(x), 1.0))
        M, seed = 300, 6
    else:
        c = dataclasses.replace(base, b=lambda t, s, x: x * np.abs(x) ** 30,
                                kernel=_unit_kernel if case == "kernel" else None)
        x, D = _solved(c, g, 0.0)
        M, seed = 6000, 6

    def refuse(*args):
        raise AssertionError("locating a divergence formed whole paths")

    monkeypatch.setattr(sim, "_paths", refuse)
    with pytest.raises(DivergenceError) as exc:
        sim.coupled_terminal_samples(c, x, D, (0.5,), M, seed, with_dzdy=True)
    assert str(exc.value) == "%s diverged at path %d, node %d" % (what, path, node)
    assert (exc.value.node, exc.value.path) == (node, path)


def _driver_peak_blocks(name, with_dzdy, **params):
    """tracemalloc peak of one driver call (N = 64, M = 2 chunks + 37
    rows), in (N, chunk) float64 blocks; tracemalloc sees numpy's buffers."""
    g = TimeGrid(T=1.0, N=64)
    c, x, D = _pipeline(name, g, 1.0, **params)
    M = 2 * sim._CHUNK_ROWS + 37
    tracemalloc.start()
    try:
        sim.coupled_terminal_samples(c, x, D, (0.2,), M, 5, observe=(32,),
                                     with_dzdy=with_dzdy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * g.N * sim._CHUNK_ROWS)


@pytest.mark.parametrize("with_dzdy,blocks", [(False, 2), (True, 2)])
def test_driver_peak_memory(with_dzdy, blocks):
    # per chunk the driver keeps the time-major increments, one RNG row
    # block while drawing them and the observed nodes, with or without the
    # streamed DZ pairing: about 1.8 blocks, against 3.4 for a driver
    # holding whole paths
    assert _driver_peak_blocks("trig", with_dzdy) <= blocks


def test_driver_peak_memory_on_the_kernel_branch():
    # the kernel branch adds Y's and Z's (N, chunk) cell histories: about
    # 3.5 blocks with the pairing
    assert _driver_peak_blocks("fbm-trig", True, H=0.7) <= 4


def test_driver_evaluates_the_fbm_kernel_once_per_grid(monkeypatch):
    calls = []
    real = kernels.hyp2f1

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "hyp2f1", counted)
    kernels._fbm_matrix.cache_clear()
    g = TimeGrid(T=1.0, N=24)
    c, x, D = _pipeline("fbm-trig", g, 1.0, H=0.7)
    sim.coupled_terminal_samples(c, x, D, (0.1,), 300, 5, observe=(12,),
                                 with_dzdy=True)
    assert len(calls) == 1


def test_coupled_driver_validation():
    g = TimeGrid(T=1.0, N=8)
    c, x, D = _pipeline("additive-unit", g, 0.0)
    with pytest.raises(ValueError):
        sim.coupled_terminal_samples(c, x, D, (0.2,), 0, 1)
    with pytest.raises(ValueError):
        sim.coupled_terminal_samples(c, x, D, (0.2, 1.2), 10, 1)
    with pytest.raises(ValueError):
        sim.coupled_terminal_samples(c, x, D, (), 10, 1)
    with pytest.raises(ValueError):
        sim.coupled_terminal_samples(c, x, D, (0.2,), 10, 1, observe=(0,))
    with pytest.raises(ValueError, match=r"lie in \[1, N\]"):
        sim.coupled_terminal_samples(c, x, D, (0.2,), 10, 1, observe=(g.N + 1,))
    with pytest.raises(ValueError):
        sim.coupled_terminal_samples(c, x, D, (0.2,), 10, 1, threads=0)
    # x and D must share one grid, which the driver then simulates on
    D16 = _pipeline("additive-unit", TimeGrid(T=1.0, N=16), 0.0)[2]
    with pytest.raises(ValueError, match="different grids"):
        sim.coupled_terminal_samples(c, x, D16, (0.2,), 10, 1)


def test_coupled_driver_always_observes_terminal_node():
    g = TimeGrid(T=1.0, N=8)
    c, x, D = _pipeline("additive-unit", g, 0.0)
    out = sim.coupled_terminal_samples(c, x, D, (0.5,), 10, 1)
    assert sorted(out["X"][0.5]) == sorted(out["Y"]) == [8]
