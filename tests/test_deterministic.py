import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import dense_D
from volfluct.kernels import (fbm_kernel_matrix, fbm_kernel_params,
                              make_preset, variance_lower_bound_const)
from volfluct.deterministic import (DivergenceError, TimeGrid, _volterra,
                                    solve_deterministic_limit,
                                    solve_derivative_field, variance_of_Y)


def _const_b(value):
    return lambda t, s, x: np.full(np.shape(x), value)


def _first_nonfinite(V):
    """Reference rule: (node, path) of the first non-finite entry of the
    (M, N+1) array V, by node j >= 1 first; None when every entry is finite."""
    ok = np.isfinite(V[:, 1:])
    if ok.all():
        return None
    bad = np.logical_not(ok, out=ok)
    j = int(np.argmax(bad.any(axis=0))) + 1
    return j, int(np.argmax(bad[:, j - 1]))


@st.composite
def _marked_runs(draw):
    """Cell values of P processes run together, with NaN and +-inf at random
    cells, a random set of kept nodes per process and the branch."""
    P = draw(st.integers(1, 3))
    N = draw(st.integers(1, 8))
    M = draw(st.integers(1, 6))
    F = np.arange(P * N * M, dtype=float).reshape(P, N, M)
    cells = st.tuples(st.integers(0, P - 1), st.integers(0, N - 1),
                      st.integers(0, M - 1),
                      st.sampled_from([np.nan, np.inf, -np.inf]))
    for p, i, m, v in draw(st.lists(cells, max_size=8)):
        F[p, i, m] = v
    kept = [draw(st.sets(st.integers(0, N))) for _ in range(P)]
    return F, kept, draw(st.booleans())


@given(_marked_runs())
@example((np.array([[[-np.inf], [np.inf]]]), [set()], False))
def test_engine_finds_the_first_bad_checked_row(run):
    F, kept, kernel = run
    P, N, M = F.shape
    # process p's cell i is F[p, i]; under the unit kernel, as when
    # telescoping, node j sums cells i < j, so both branches give the rows
    # W (exact: the finite cells are small integers) and name W's first
    # bad row, whatever is kept
    K = np.triu(np.ones((N, N + 1)), 1) if kernel else None
    W = np.zeros((P, N + 1, M))
    with np.errstate(invalid="ignore"):  # -inf + inf is NaN, as in the engine
        W[:, 1:] = np.cumsum(F, axis=1)
    steps = [lambda i, V, dBi, p=p: (F[p, i], 0.0) for p in range(P)]
    keep = [{j: np.empty(M) for j in kept[p]} for p in range(P)]
    bad = _volterra(K, 0.0, np.zeros((N, M)), steps, keep)
    for p in range(P):
        assert bad[p] == _first_nonfinite(W[p].T)
        for j in kept[p]:
            np.testing.assert_array_equal(keep[p][j], W[p, j])


@pytest.mark.parametrize("bad_cell", [None, (2, 1)])
def test_telescoping_engine_runs_again_only_after_a_bad_terminal_node(bad_cell):
    # process 0 is finite, process 1 has an inf cell when bad_cell is set;
    # each step counts its calls and doubles its cells once past N calls,
    # so a row that a second pass copied into keep would show
    N, M = 6, 3
    F = np.ones((2, N, M))
    if bad_cell:
        F[(1,) + bad_cell] = np.inf
    calls = [0, 0]

    def step(p):
        def f(i, V, dBi):
            calls[p] += 1
            return (1 + (calls[p] > N)) * F[p, i], None
        return f

    keep = [{j: np.empty(M) for j in range(N + 1)} for _ in range(2)]
    bad = _volterra(None, 0.0, np.zeros((N, M)), [step(0), step(1)], keep)
    assert calls == ([N, N] if bad_cell is None else [2 * N, 2 * N])
    assert bad == [None, None if bad_cell is None else (3, 1)]
    for p in range(2):
        for j in range(N + 1):
            np.testing.assert_array_equal(keep[p][j], F[p, :j].sum(axis=0))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, N=16)
    with pytest.raises(ValueError):
        TimeGrid(T=-1.0, N=16)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, N=1)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, N=8192)
    g = TimeGrid(T=2.0, N=8)
    assert g.delta == 0.25
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.0
    np.testing.assert_allclose(g.midpoints, g.nodes[:-1] + 0.125, rtol=1e-15)


def test_limit_zero_drift_is_constant():
    g = TimeGrid(T=1.0, N=64)
    x = solve_deterministic_limit(make_preset("additive-unit"), g, 1.7)
    np.testing.assert_array_equal(x.values, np.full(65, 1.7))
    x = solve_deterministic_limit(make_preset("multiplicative"), g, -0.4)
    np.testing.assert_array_equal(x.values, np.full(65, -0.4))


def test_limit_unit_drift_is_linear():
    g = TimeGrid(T=1.0, N=256)
    c = dataclasses.replace(make_preset("additive-unit"), b=_const_b(1.0))
    x = solve_deterministic_limit(c, g, 0.5)
    np.testing.assert_allclose(x.values, 0.5 + g.nodes, rtol=0, atol=1e-13)


def test_limit_linear_drift_exponential():
    g = TimeGrid(T=1.0, N=256)
    c = make_preset("linear-growth", a=1.0)
    x = solve_deterministic_limit(c, g, 1.0)
    assert x.values[-1] == pytest.approx(math.e, rel=2e-2)
    # first-order scheme: halving the step roughly halves the error
    x2 = solve_deterministic_limit(c, TimeGrid(T=1.0, N=512), 1.0)
    e1 = abs(x.values[-1] - math.e)
    e2 = abs(x2.values[-1] - math.e)
    assert 0.4 < e2 / e1 < 0.6


def test_limit_divergence_reports_node():
    c = make_preset("linear-growth", a=1.0)
    with pytest.raises(DivergenceError) as exc:
        solve_deterministic_limit(c, TimeGrid(T=1600.0, N=1024), 1.0)
    assert exc.value.node is not None
    assert "node" in str(exc.value)


def test_derivative_field_zero_db_equals_sigma():
    g = TimeGrid(T=1.0, N=32)
    c = make_preset("additive-unit")
    x = solve_deterministic_limit(c, g, 0.0)
    D = solve_derivative_field(c, g, x)
    # strict upper part solves the equation; diagonal holds the seed
    for j in range(1, 33):
        np.testing.assert_array_equal(dense_D(D)[:j, j], np.ones(j))
    assert np.all(np.diag(dense_D(D)[:, :32]) == 1.0)
    # below the seed diagonal everything is zero: theta > t has no effect
    tri = np.tril(dense_D(D)[:, 1:], -2)
    assert np.count_nonzero(tri) == 0


def test_derivative_field_linear_growth_exponential():
    # b' = a constant: D(theta, t) = exp(a (t - theta))
    a = 1.0
    g = TimeGrid(T=1.0, N=256)
    c = make_preset("linear-growth", a=a)
    x = solve_deterministic_limit(c, g, 1.0)
    D = solve_derivative_field(c, g, x)
    rows, cols = np.triu_indices(g.N, 1, g.N + 1)
    exact = np.exp(a * (g.nodes[cols] - g.midpoints[rows]))
    rel = np.abs(dense_D(D)[rows, cols] - exact) / exact
    assert rel.max() < 2e-2


def test_derivative_field_bound_false_alarm_raises_nothing():
    # max|R| max|sigma kick| overflows, yet every D[i, j] = R[j, i] sigma_i
    # kick_i is finite: R peaks at (N, 0), and sigma is huge only in the
    # last cell, whose one entry R[N, N-1] is 1
    g = TimeGrid(T=1.0, N=16)
    c = dataclasses.replace(make_preset("linear-growth", a=700.0),
                            sigma=lambda t, s, x: np.where(x > 1e24, 1e300, 1.0))
    x = solve_deterministic_limit(c, g, 1.0)
    D = solve_derivative_field(c, g, x)
    f = D.sigma * D.kick
    assert float(np.abs(D.R).max()) * float(np.abs(f).max()) == math.inf
    assert np.isfinite(np.tril(D.R, -1) * f).all() and f[-1] > 1e300


def test_derivative_field_fbm_columns_are_kernel_columns():
    g = TimeGrid(T=1.0, N=64)
    c = make_preset("fbm-additive", H=0.7, sigma0=1.5)
    x = solve_deterministic_limit(c, g, 1.0)
    D = solve_derivative_field(c, g, x)
    km = fbm_kernel_matrix(fbm_kernel_params(0.7), g)
    rows, cols = np.triu_indices(g.N, 1, g.N + 1)
    np.testing.assert_allclose(dense_D(D)[rows, cols], 1.5 * km[rows, cols],
                               rtol=1e-12)


@pytest.mark.parametrize("name,params", [("trig", {}), ("fbm-trig", {"H": 0.7})])
def test_derivative_field_holds_one_dense_array(name, params):
    # the field keeps its resolvent R and three per-cell vectors, no dense
    # D beside it: about 1.01 (N+1) x N blocks, against 2.00 with D; the
    # limit solve fills the kernel cache before the measurement
    g = TimeGrid(T=1.0, N=512)
    c = make_preset(name, **params)
    x = solve_deterministic_limit(c, g, 1.0)
    tracemalloc.start()
    try:
        D = solve_derivative_field(c, g, x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert D.R.shape == (g.N + 1, g.N)
    assert held / (8 * (g.N + 1) * g.N) <= 1.1


def test_variance_additive_unit_exact():
    g = TimeGrid(T=1.0, N=128)
    c = make_preset("additive-unit")
    x = solve_deterministic_limit(c, g, 1.0)
    var = variance_of_Y(solve_derivative_field(c, g, x), g)
    np.testing.assert_allclose(var.values, g.nodes, rtol=0, atol=1e-13)
    assert var.values[0] == 0.0


def test_variance_multiplicative_x0_scales():
    g = TimeGrid(T=1.0, N=128)
    c = make_preset("multiplicative")
    x = solve_deterministic_limit(c, g, 2.0)
    var = variance_of_Y(solve_derivative_field(c, g, x), g)
    np.testing.assert_allclose(var.values, 4.0 * g.nodes, rtol=0, atol=1e-12)


def test_variance_fbm_mass_identity():
    g = TimeGrid(T=1.0, N=512)
    c = make_preset("fbm-additive", H=0.7)
    x = solve_deterministic_limit(c, g, 1.0)
    var = variance_of_Y(solve_derivative_field(c, g, x), g)
    assert var.values[-1] == pytest.approx(1.0, rel=2e-2)


def test_variance_fbm_lower_bound_margin():
    H = 0.7
    g = TimeGrid(T=1.0, N=256)
    c = make_preset("fbm-additive", H=H)
    x = solve_deterministic_limit(c, g, 1.0)
    var = variance_of_Y(solve_derivative_field(c, g, x), g)
    cstar = variance_lower_bound_const(fbm_kernel_params(H), 1.0)
    margin = var.values[1:] - 0.5 * cstar * g.nodes[1:] ** (2.0 * H)
    assert margin.min() >= 0.0


def test_grid_refinement_first_order():
    c = make_preset("trig", kappa=1.0)
    vals_x = []
    vals_v = []
    for N in (64, 128, 256, 512):
        g = TimeGrid(T=1.0, N=N)
        x = solve_deterministic_limit(c, g, 1.0)
        var = variance_of_Y(solve_derivative_field(c, g, x), g)
        vals_x.append(x.values[-1])
        vals_v.append(var.values[-1])
    for seq in (vals_x, vals_v):
        d1 = abs(seq[1] - seq[0])
        d2 = abs(seq[2] - seq[1])
        d3 = abs(seq[3] - seq[2])
        assert 1.6 <= d1 / d2 <= 2.4
        assert 1.6 <= d2 / d3 <= 2.4


def test_variance_overflow_raises():
    c = make_preset("linear-growth", a=1.0)
    g = TimeGrid(T=800.0, N=1024)
    x = solve_deterministic_limit(c, g, 1.0)
    D = solve_derivative_field(c, g, x)
    with pytest.raises(DivergenceError):
        variance_of_Y(D, g)


def test_grid_mismatch_errors():
    c = make_preset("additive-unit")
    g1 = TimeGrid(T=1.0, N=16)
    g2 = TimeGrid(T=1.0, N=32)
    x = solve_deterministic_limit(c, g1, 1.0)
    with pytest.raises(ValueError):
        solve_derivative_field(c, g2, x)
    D = solve_derivative_field(c, g1, x)
    with pytest.raises(ValueError):
        variance_of_Y(D, g2)
